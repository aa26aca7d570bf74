"""Bit-for-bit equivalence of batched and per-event trace/read replay.

The replayers apply every trace event strictly before the simulator's
next foreign event in one python call instead of one heap round-trip per
event.  That must be an *optimization only*: on the paper's
configurations every policy has to produce exactly the metrics of the
per-event reference replay in ``tests/oracles.py`` -- same divergence
floats, same message counts, same read samples.  These tests pin that
across:

* all five policies on the Figure 4 settings (fluctuating weights +
  collector resampling), one cache and four (sharded and replicated);
* the Figure 5 settings (buoy workload, 60 s ticks, fluctuating link);
* all three read policies at replication 2 and 3 (the read replayer
  batches consecutive reads between wakeups on the same boundary rule),
  and the read-heavy readmodel matrix (read rate 8/s);
* the batched collector arithmetic itself (``record_at`` with duplicate
  objects inside one batch, the read accumulator's seeded fold).

The boundary argument for why phase semantics survive batching is in
DESIGN.md Sec 10.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.core.weights import SineWeights, StaticWeights
from repro.experiments.matrix import READMODEL, make_policy
from repro.experiments.parallel import build_workload
from repro.experiments.runner import RunSpec, run_policy
from repro.metrics.collector import DivergenceCollector, ReadCollector
from repro.network.bandwidth import ConstantBandwidth, SineBandwidth
from repro.network.topology import TopologyConfig
from repro.policies.cache_driven import CGMPollingPolicy
from repro.policies.competitive import CompetitivePolicy
from repro.policies.cooperative import CooperativePolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.policies.uniform import UniformAllocationPolicy
from repro.sim.engine import Simulator
from repro.sim.random import RngRegistry
from repro.workloads.buoy import buoy_workload
from repro.workloads.read_process import ReadReplayer, ReadTrace
from repro.workloads.synthetic import uniform_random_walk
from repro.workloads.trace import TraceReplayer, UpdateTrace

from oracles import ScalarCollector, reference_schedule

M_SOURCES = 10
N_PER_SOURCE = 10
HORIZON = 200.0
SPEC = dict(warmup=50.0, measure=150.0)


def fig4_workload(fluctuating_weights=True, seed=0):
    rng = np.random.default_rng(seed)
    return uniform_random_walk(num_sources=M_SOURCES,
                               objects_per_source=N_PER_SOURCE,
                               horizon=HORIZON, rng=rng,
                               fluctuating_weights=fluctuating_weights)


def cache_profile():
    return ConstantBandwidth(20.0)


def source_profiles():
    return [ConstantBandwidth(4.0) for _ in range(M_SOURCES)]


def metrics_tuple(result):
    return (
        result.weighted_divergence,
        result.unweighted_divergence,
        result.refreshes,
        result.feedback_messages,
        result.poll_messages,
        result.messages_total,
    )


def per_event_replay():
    """The reference replay alone: one trace or read event per firing."""
    return reference_schedule(scan=False, eager_links=False)


def assert_replay_equivalent(make_policy, workload, spec_kwargs,
                             scan=False):
    """Per-event against batched replay, on the default schedule or (with
    ``scan``) on the reference tick scan."""
    spec = RunSpec(**spec_kwargs)
    results = {}
    for replay in ("event", "batched"):
        with reference_schedule(scan=scan, eager_links=scan,
                                per_event=replay == "event"):
            result = run_policy(workload, ValueDeviation(), make_policy(),
                                spec)
        results[replay] = metrics_tuple(result)
    assert results["event"] == results["batched"], (
        f"batched replay diverged from per-event replay:\n"
        f"  event:   {results['event']}\n"
        f"  batched: {results['batched']}")


TOPOLOGIES = [
    pytest.param(None, id="star"),
    pytest.param(TopologyConfig(kind="sharded", num_caches=4),
                 id="sharded-4"),
    pytest.param(TopologyConfig(kind="replicated", num_caches=4,
                                replication=2), id="replicated-4"),
    pytest.param(TopologyConfig(kind="replicated", num_caches=4,
                                replication=2, delivery="multicast"),
                 id="replicated-4-multicast"),
]


class TestPolicyEquivalence:
    """fig4 settings, one and four caches, all five policies."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_cooperative(self, topology):
        workload = fig4_workload()
        assert_replay_equivalent(
            lambda: CooperativePolicy(cache_profile(), source_profiles(),
                                      priority_fn=AreaPriority()),
            workload,
            dict(**SPEC, resample_interval=10.0, topology=topology))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_uniform(self, topology):
        workload = fig4_workload()
        assert_replay_equivalent(
            lambda: UniformAllocationPolicy(cache_profile(),
                                            source_profiles()),
            workload, dict(**SPEC, topology=topology))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_competitive(self, topology):
        workload = fig4_workload()
        n = workload.num_objects
        assert_replay_equivalent(
            lambda: CompetitivePolicy(
                cache_profile(), source_profiles(),
                priority_fn=AreaPriority(),
                source_weights=StaticWeights.uniform(n), psi=0.25),
            workload, dict(**SPEC, topology=topology))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_cache_driven(self, topology):
        workload = fig4_workload(fluctuating_weights=False)
        assert_replay_equivalent(
            lambda: CGMPollingPolicy(cache_profile()),
            workload, dict(**SPEC, topology=topology))

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_ideal(self, topology):
        workload = fig4_workload()
        assert_replay_equivalent(
            lambda: IdealCooperativePolicy(
                cache_profile(), AreaPriority(),
                source_bandwidths=source_profiles()),
            workload, dict(**SPEC, topology=topology))

    def test_cooperative_fig5_settings(self):
        """Fig 5 shape: buoy workload, 60 s ticks, fluctuating link."""
        rng = np.random.default_rng(5)
        workload = buoy_workload(rng, days=0.1)
        m = workload.num_sources
        mb = 0.25 / 60.0
        assert_replay_equivalent(
            lambda: CooperativePolicy(
                SineBandwidth(10.0 / 60.0, mb),
                [SineBandwidth(10.0 / 60.0, mb, phase=float(j))
                 for j in range(m)],
                priority_fn=AreaPriority()),
            workload,
            dict(warmup=1800.0, measure=0.1 * 86_400.0 - 1800.0,
                 dt=60.0))

    def test_cooperative_tick_scheduler(self):
        """Batched replay composes with the reference tick scan too."""
        workload = fig4_workload()
        assert_replay_equivalent(
            lambda: CooperativePolicy(cache_profile(), source_profiles(),
                                      priority_fn=AreaPriority()),
            workload, dict(**SPEC), scan=True)


class TestReadReplayEquivalence:
    """All three read policies at replication 2 and 3: read samples,
    replica serving counts and stale tallies must match per-event replay
    exactly (one knob batches both the trace and the read replayer)."""

    @pytest.mark.parametrize("replication", [2, 3])
    @pytest.mark.parametrize("read_policy",
                             ["any", "quorum-2", "freshest"])
    def test_cooperative_with_read_stream(self, replication, read_policy):
        workload = fig4_workload()
        reads = workload.read_stream(
            RngRegistry(0).stream("read-workload"), read_rate=0.5)
        spec = RunSpec(**SPEC,
                       topology=TopologyConfig(kind="replicated",
                                               num_caches=4,
                                               replication=replication))
        results = {}
        for replay in ("event", "batched"):
            with per_event_replay() if replay == "event" else nullcontext():
                policy = CooperativePolicy(cache_profile(),
                                           source_profiles(),
                                           priority_fn=AreaPriority())
                results[replay] = run_policy(
                    workload, ValueDeviation(), policy, spec, reads=reads,
                    read_policy=read_policy)
        assert results["event"].reads.count > 0
        assert results["event"] == results["batched"], (
            f"read metrics diverged across replay modes:\n"
            f"  event:   {results['event']}\n"
            f"  batched: {results['batched']}")

    def test_read_heavy_readmodel_matrix(self):
        """Every cell of a read-dominated readmodel matrix (read rate 8/s,
        so many consecutive reads fall between simulator wakeups) gives
        the same read-path numbers under per-event replay."""
        params = READMODEL.parse(
            "replication=1,2 read-rate=8 warmup=50 measure=250".split())
        for _, _, scenario in READMODEL.cells(params):
            workload = build_workload(scenario.workload)
            results = {}
            for replay in ("event", "batched"):
                with (per_event_replay() if replay == "event"
                      else nullcontext()):
                    policy = make_policy(
                        scenario.policy,
                        *scenario.profiles(workload.num_sources),
                        workload.num_objects)
                    reads = workload.read_stream(
                        RngRegistry(scenario.seed).stream("read-workload"),
                        read_rate=scenario.read_rate)
                    results[replay] = run_policy(
                        workload, ValueDeviation(), policy,
                        scenario.spec(), reads=reads,
                        read_policy=scenario.read_policy)
            assert results["event"] == results["batched"], scenario

    def test_single_cache_fast_path_matches_store(self):
        """The vectorized single-replica read batch must still match the
        star's CacheStore.read cross-check on every read."""
        workload = fig4_workload()
        reads = workload.read_stream(
            RngRegistry(0).stream("read-workload"), read_rate=1.0)
        spec = RunSpec(**SPEC)
        policy = CooperativePolicy(cache_profile(), source_profiles(),
                                   priority_fn=AreaPriority())
        result = run_policy(workload, ValueDeviation(), policy, spec,
                            reads=reads, read_policy="any")
        assert result.reads.count > 0
        assert result.reads.matches_direct is True


class TestRecordAt:
    """The per-event-times batched record must be bit-identical to the
    equivalent sequence of scalar records, duplicates included: the
    reference is the oracle's :class:`ScalarCollector`, compared after
    the production collector folded its log."""

    @staticmethod
    def batch(rng, num_objects, n_events, t0=0.0):
        times = np.sort(rng.uniform(t0, t0 + 7.0, size=n_events))
        indices = rng.integers(0, num_objects, size=n_events)
        divergences = np.where(rng.random(n_events) < 0.3, 0.0,
                               rng.normal(scale=1e3, size=n_events))
        return times, indices, divergences

    @pytest.mark.parametrize("warmup", [0.0, 3.0])
    def test_matches_sequential_records(self, warmup):
        rng = np.random.default_rng(11)
        weights = SineWeights.random(8, np.random.default_rng(2))
        times, indices, divergences = self.batch(rng, 8, 60)
        scalar = ScalarCollector(8, weights, warmup=warmup)
        batched = DivergenceCollector(8, weights, warmup=warmup)
        # Pre-existing state so first-in-batch pieces are nontrivial.
        for i in range(8):
            scalar.record(i, 0.0, float(i % 3))
            batched.record(i, 0.0, float(i % 3))
        for k in range(len(times)):
            scalar.record(int(indices[k]), float(times[k]),
                          float(divergences[k]))
        batched.record_at(indices, times, divergences)
        batched._flush()
        np.testing.assert_array_equal(scalar._weighted_integral,
                                      batched._weighted_integral)
        np.testing.assert_array_equal(scalar._unweighted_integral,
                                      batched._unweighted_integral)
        np.testing.assert_array_equal(scalar._last_time,
                                      batched._last_time)
        np.testing.assert_array_equal(scalar._divergence,
                                      batched._divergence)
        assert scalar._end == batched._end

    def test_heavy_duplicates_fold_in_batch_order(self):
        """Same object many times in one batch: the integral increments
        must accumulate left to right (float addition order matters at
        these magnitudes)."""
        weights = StaticWeights(np.array([1e-8, 1e8]))
        scalar = ScalarCollector(2, weights)
        batched = DivergenceCollector(2, weights)
        times = np.array([1.0, 1.5, 2.0, 2.25, 3.0, 4.0])
        indices = np.array([0, 0, 1, 0, 1, 0])
        divergences = np.array([1e16, 1.0, -0.0, 1e-8, 3.0, 0.0])
        for k in range(len(times)):
            scalar.record(int(indices[k]), float(times[k]),
                          float(divergences[k]))
        batched.record_at(indices, times, divergences)
        batched._flush()
        np.testing.assert_array_equal(scalar._weighted_integral,
                                      batched._weighted_integral)
        np.testing.assert_array_equal(scalar._unweighted_integral,
                                      batched._unweighted_integral)

    def test_empty_batch_is_a_noop(self):
        collector = DivergenceCollector(2, StaticWeights.uniform(2))
        collector.record_at(np.array([], dtype=np.int64), np.array([]),
                            np.array([]))
        collector._flush()
        assert collector._end == 0.0


class TestReadCollectorBatch:
    def test_matches_sequential_record_read(self):
        rng = np.random.default_rng(3)
        weights = SineWeights.random(6, np.random.default_rng(4))
        n = 50
        times = np.sort(rng.uniform(0.0, 10.0, size=n))
        indices = rng.integers(0, 6, size=n)
        divergences = np.where(rng.random(n) < 0.4, 0.0,
                               rng.normal(scale=100.0, size=n))
        cache_ids = rng.integers(0, 3, size=n)
        scalar = ReadCollector(6, weights, num_replicas=3, warmup=2.5)
        batched = ReadCollector(6, weights, num_replicas=3, warmup=2.5)
        for k in range(n):
            scalar.record_read(int(indices[k]), float(times[k]),
                               float(divergences[k]), int(cache_ids[k]))
        batched.record_many(indices, times, divergences, cache_ids)
        assert scalar.reads == batched.reads
        assert scalar.mean_read_divergence() \
            == batched.mean_read_divergence()
        assert scalar.mean_unweighted_read_divergence() \
            == batched.mean_unweighted_read_divergence()
        assert scalar.stale_reads == batched.stale_reads
        np.testing.assert_array_equal(scalar.replica_reads,
                                      batched.replica_reads)


class TestReplayerMechanics:
    @staticmethod
    def trace(times, num_objects=1):
        times = np.asarray(times, dtype=float)
        return UpdateTrace(num_objects=num_objects, times=times,
                           object_indices=np.zeros(len(times),
                                                   dtype=np.int64),
                           values=np.arange(len(times), dtype=float))

    def test_unknown_mode_rejected(self):
        """Replay has one mode; the retired ``mode=`` keyword is an
        error, not a silently ignored option."""
        sim = Simulator()
        with pytest.raises(TypeError, match="mode"):
            TraceReplayer(sim, self.trace([1.0]), lambda t, i, v: None,
                          mode="event")
        with pytest.raises(TypeError, match="mode"):
            ReadReplayer(sim, ReadTrace(num_objects=1,
                                        times=np.array([1.0]),
                                        object_indices=np.array([0])),
                         lambda t, i: None, mode="event")

    def test_batch_stops_strictly_before_foreign_events(self):
        """Events at a foreign timestamp go back through the heap so the
        (time, phase, seq) order arbitrates, exactly like per-event."""
        sim = Simulator()
        seen = []
        sim.at(2.0, lambda: seen.append("foreign"))
        TraceReplayer(sim, self.trace([1.0, 1.5, 2.0, 2.5]),
                      lambda t, i, v: seen.append(t))
        sim.run_until(10.0)
        # 2.0 fires in the UPDATES phase, before the DEFAULT-phase
        # foreign event at the same timestamp -- but via its own firing.
        assert seen == [1.0, 1.5, 2.0, "foreign", 2.5]

    def test_batch_respects_run_horizon(self):
        """With an empty queue the batch must still stop at run_until's
        end time; later events fire on the next run_until call."""
        sim = Simulator()
        seen = []
        TraceReplayer(sim, self.trace([1.0, 2.0, 3.0, 4.0]),
                      lambda t, i, v: seen.append(t))
        sim.run_until(2.5)
        assert seen == [1.0, 2.0]
        sim.run_until(10.0)
        assert seen == [1.0, 2.0, 3.0, 4.0]

    def test_batched_default_loop_advances_the_clock(self):
        sim = Simulator()
        clocks = []
        TraceReplayer(sim, self.trace([1.0, 1.25, 1.5]),
                      lambda t, i, v: clocks.append(sim.now))
        sim.run_until(5.0)
        assert clocks == [1.0, 1.25, 1.5]

    def test_event_mode_preserved(self):
        """The reference replay fires once per event through the scalar
        applier; the default replay hands both events to one batch call
        (nothing foreign is queued between them)."""
        calls = []

        def replay(until):
            sim = Simulator()
            replayer = TraceReplayer(
                sim, self.trace([1.0, 1.5]),
                lambda t, i, v: calls.append(("event", t)),
                apply_batch=lambda t, i, v: calls.append(
                    ("batch", t.tolist())))
            sim.run_until(until)
            return replayer.remaining

        with per_event_replay():
            assert replay(1.2) == 1
            assert replay(5.0) == 0
        assert calls == [("event", 1.0), ("event", 1.0), ("event", 1.5)]
        calls.clear()
        assert replay(5.0) == 0
        assert calls == [("batch", [1.0, 1.5])]

    def test_read_batch_cannot_leap_pending_updates(self):
        """The update replayer's queued event bounds every read batch, so
        reads observe state with all earlier updates applied."""
        sim = Simulator()
        log = []
        TraceReplayer(sim, self.trace([1.0, 3.0]),
                      lambda t, i, v: log.append(("update", t)))
        ReadReplayer(sim, ReadTrace(num_objects=1,
                                    times=np.array([0.5, 2.0, 2.5, 3.5]),
                                    object_indices=np.zeros(4,
                                                            dtype=np.int64)),
                     lambda t, i: log.append(("read", t)))
        sim.run_until(10.0)
        assert log == [("read", 0.5), ("update", 1.0), ("read", 2.0),
                       ("read", 2.5), ("update", 3.0), ("read", 3.5)]
