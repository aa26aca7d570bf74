"""Read model tests: unit semantics plus the statistical convergence pins.

Unit layer: policy parsing, quorum validation, freshest selection and the
nesting property that makes quorum-k monotone.  Statistical layer
(seed-pinned, tolerance-banded): with many Poisson reads the uniform
any-replica read-observed divergence converges to the mean of per-replica
time-averaged divergence (reads are unbiased time samples of that signal),
and quorum(r) matches freshest-replica float for float.
"""

import numpy as np
import pytest

from repro.cache.readmodel import ReadModel, parse_read_policy
from repro.cache.store import CacheStore
from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.matrix import read_policies_for
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth
from repro.network.topology import Topology, TopologyConfig
from repro.policies.cooperative import CooperativePolicy
from repro.sim.random import RngRegistry
from repro.workloads.synthetic import uniform_random_walk


class TestParseReadPolicy:
    def test_known_policies(self):
        assert parse_read_policy("any") == ("any", 0)
        assert parse_read_policy("freshest") == ("freshest", 0)
        assert parse_read_policy("quorum-2") == ("quorum", 2)

    @pytest.mark.parametrize("bad", ["quorum", "quorum-", "quorum-x",
                                     "quorum-0", "nearest"])
    def test_bad_policies_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_read_policy(bad)

    def test_policy_sweep_walks_the_quorum_axis(self):
        assert read_policies_for(1) == ["any", "freshest"]
        assert read_policies_for(3) == ["any", "quorum-2", "quorum-3",
                                        "freshest"]


def make_model(num_caches=3, replication=3, rng_seed=0):
    """One source, one object, replicated across ``replication`` caches."""
    topology = Topology(
        cache_profiles=[ConstantBandwidth(10.0)] * num_caches,
        source_profiles=[ConstantBandwidth(10.0)],
        assignment=[tuple(range(replication))])
    stores = [CacheStore(1) for _ in range(num_caches)]
    model = ReadModel(stores, topology, owner=np.zeros(1, np.int64),
                      rng=np.random.default_rng(rng_seed))
    return model, stores


class TestReadModelUnit:
    def test_store_count_must_match_topology(self):
        topology = Topology(
            cache_profiles=[ConstantBandwidth(1.0)] * 2,
            source_profiles=[ConstantBandwidth(1.0)],
            assignment=[(0, 1)])
        with pytest.raises(ValueError, match="stores"):
            ReadModel([CacheStore(1)], topology,
                      owner=np.zeros(1, np.int64))

    def test_quorum_size_bounds(self):
        model, _ = make_model(replication=2)
        with pytest.raises(ValueError, match="quorum size"):
            model.quorum(0, 0)
        with pytest.raises(ValueError, match="quorum size"):
            model.quorum(0, 3)  # only 2 replicas hold the object

    def test_quorum_needs_rng_with_real_choice(self):
        model, _ = make_model(replication=2)
        model.rng = None
        with pytest.raises(ValueError, match="rng"):
            model.quorum(0, 1)

    def test_single_replica_reads_skip_the_rng(self):
        """One replica: reads are the star's CacheStore.read, and the rng
        stream is untouched (pins the one-cache bit-for-bit guarantee)."""
        model, stores = make_model(num_caches=1, replication=1)
        stores[0].apply(0, 3.5, now=1.0, update_count=1)
        before = model.rng.bit_generator.state["state"]["state"]
        for _ in range(5):
            assert model.any_replica(0) == (stores[0].read(0), 0)
            assert model.quorum(0, 1) == (stores[0].read(0), 0)
            assert model.freshest_replica(0) == (stores[0].read(0), 0)
        assert model.rng.bit_generator.state["state"]["state"] == before

    def test_freshest_picks_time_then_count_then_lowest_id(self):
        model, stores = make_model()
        stores[0].apply(0, 1.0, now=5.0, update_count=3)
        stores[1].apply(0, 2.0, now=5.0, update_count=4)
        stores[2].apply(0, 3.0, now=4.0, update_count=4)
        assert model.freshest_replica(0) == (2.0, 1)
        # Full tie resolves to the lowest cache id.
        stores[0].apply(0, 9.0, now=6.0, update_count=5)
        stores[1].apply(0, 8.0, now=6.0, update_count=5)
        assert model.freshest_replica(0) == (9.0, 0)

    def test_quorum_full_equals_freshest(self):
        model, stores = make_model()
        stores[1].apply(0, 7.0, now=3.0, update_count=2)
        for _ in range(10):
            assert model.quorum(0, 3) == model.freshest_replica(0)

    def test_quorum_nesting_monotone_freshness(self):
        """On one rng stream, quorum(k+1)'s answer is never staler than
        quorum(k)'s for the same read -- consulted sets are nested."""
        model, stores = make_model()
        stores[0].apply(0, 1.0, now=1.0, update_count=1)
        stores[1].apply(0, 2.0, now=2.0, update_count=2)
        stores[2].apply(0, 3.0, now=3.0, update_count=3)
        for _ in range(50):
            keys = []
            state = model.rng.bit_generator.state
            for k in (1, 2, 3):
                model.rng.bit_generator.state = state  # same permutation
                _, cache_id = model.quorum(0, k)
                keys.append(stores[cache_id].freshness_key(0))
            assert keys[0] <= keys[1] <= keys[2]
            assert keys[2] == (3.0, 3)


class TestStatisticalProperties:
    """Seed-pinned, tolerance-banded convergence pins (satellite 3)."""

    WARMUP, MEASURE = 50.0, 250.0

    def _run(self, read_policy, read_rate, seed=0):
        rng = np.random.default_rng(seed)
        workload = uniform_random_walk(8, 3, self.WARMUP + self.MEASURE,
                                       rng)
        reads = workload.read_stream(
            RngRegistry(seed).stream("read-workload"),
            read_rate=read_rate)
        spec = RunSpec(warmup=self.WARMUP, measure=self.MEASURE,
                       seed=seed,
                       topology=TopologyConfig(kind="replicated",
                                               num_caches=3,
                                               replication=3))
        policy = CooperativePolicy(
            ConstantBandwidth(9.0), [ConstantBandwidth(2.0)] * 8,
            priority_fn=AreaPriority())
        return run_policy(workload, ValueDeviation(), policy, spec,
                          reads=reads, read_policy=read_policy)

    def test_any_replica_converges_to_replica_time_average(self):
        """Poisson reads sample each replica's divergence signal at
        uniform times and replicas uniformly at random, so at a high read
        rate the mean read-observed divergence lands on the mean of the
        per-replica time-averaged divergence."""
        reads = self._run("any", read_rate=6.0).reads
        assert reads.count > 30_000
        expected = reads.replica_divergence
        assert expected > 0
        assert reads.divergence_unweighted == pytest.approx(
            expected, rel=0.02)
        # Uniform replica choice serves each of the 3 replicas ~equally.
        counts = np.array(reads.replica_reads)
        assert counts.min() > 0.9 * counts.mean()

    def test_full_quorum_matches_freshest_exactly(self):
        full = self._run("quorum-3", read_rate=0.5)
        freshest = self._run("freshest", read_rate=0.5)
        assert full.reads.count == freshest.reads.count
        assert full.reads.divergence == freshest.reads.divergence
        assert (full.reads.divergence_unweighted
                == freshest.reads.divergence_unweighted)
        # The simulation itself is read-policy-independent.
        assert full.weighted_divergence == freshest.weighted_divergence
        assert full.refreshes == freshest.refreshes

    def test_freshest_never_exceeds_any_on_staleness(self):
        """Freshest-replica reads serve strictly fresher-or-equal
        snapshots, which shows up as fewer stale reads in aggregate."""
        any_reads = self._run("any", read_rate=1.0).reads
        fresh_reads = self._run("freshest", read_rate=1.0).reads
        assert fresh_reads.stale_fraction <= any_reads.stale_fraction
        assert fresh_reads.divergence <= any_reads.divergence
