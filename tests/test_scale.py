"""Tests for the E9 scale sweep (``repro matrix scale``) at tiny sizes."""

import numpy as np

from repro.experiments import matrix
from repro.experiments.matrix import MATRICES, Scenario, run_matrix
from repro.experiments.parallel import WorkloadSpec, run_cooperative_sharded
from repro.experiments.scale import sparse_workload
from repro.faults.plan import fault_scenario
from repro.faults.retry import RetryPolicy
from repro.network.topology import TopologyConfig
from repro.rebalance import RebalanceConfig

from oracles import reference_schedule

SCALE = MATRICES["scale"]


def scale_rows(settings):
    return run_matrix(SCALE, SCALE.parse(settings.split()))


class TestSparseWorkload:
    def test_one_object_per_source_at_fixed_rate(self):
        rng = np.random.default_rng(0)
        workload = sparse_workload(25, 100.0, rng, update_rate=0.01)
        assert workload.num_sources == 25
        assert workload.objects_per_source == 1
        assert np.allclose(workload.rates, 0.01)

    def test_sparse_means_few_updates(self):
        rng = np.random.default_rng(0)
        workload = sparse_workload(50, 200.0, rng, update_rate=0.002)
        # Expected updates: 50 sources * 0.002/s * 200 s = 20 << ticks * m.
        assert len(workload.trace) < 60


class TestRunScale:
    def test_tick_and_event_points_agree(self):
        """The sweep's rows equal the reference tick-scan schedule's."""
        settings = ("sources=20,60 update-rate=0.05 cache-bandwidth=0.5 "
                    "warmup=10 measure=60")
        rows = scale_rows(settings)
        with reference_schedule():
            reference = scale_rows(settings)
        assert rows == reference
        assert rows[1]["queued"] > 0  # the reference replays a backlog too

    def test_tick_baseline_skipped_above_cap(self):
        """One row per source count, in the order given."""
        rows = scale_rows("sources=30,15 warmup=10 measure=40")
        assert [r["sources"] for r in rows] == [30, 15]

    def test_render_lists_every_point(self):
        params = SCALE.parse("sources=15,25 warmup=10 measure=40".split())
        text = SCALE.render(params, run_matrix(SCALE, params))
        assert "E9 scale sweep" in text and "(lambda = 0.002/s, star)" in text
        assert "queued" in text and "backlog s" in text
        rows = [line.split()[0] for line in text.splitlines()]
        assert "15" in rows and "25" in rows
        assert text.endswith(
            "every refresh sent was delivered or is still queued: yes")

    def test_sharded_rows_run_shard_parallel_and_equal_serial(
            self, monkeypatch):
        """With more workers than cells, ``shard-caches`` rows run their
        shards on the workers (tier 2), and every field of a row equals
        the serial ``run_policy`` row bit for bit, backlog included."""
        settings = ("sources=400 shard-caches=4 update-rate=0.05 "
                    "cache-bandwidth=2 warmup=50 measure=150")
        serial = scale_rows(settings)
        workers = []

        def spy(*args, **kwargs):
            workers.append(kwargs["workers"])
            return run_cooperative_sharded(*args, **kwargs)

        monkeypatch.setattr(matrix, "run_cooperative_sharded", spy)
        parallel = run_matrix(SCALE, SCALE.parse(settings.split()),
                              workers=2)
        assert workers == [2]
        assert parallel == serial
        assert serial[0]["queued"] > 0

    def test_star_rows_and_fewer_workers_stay_cell_parallel(
            self, monkeypatch):
        monkeypatch.setattr(matrix, "run_cooperative_sharded", None)
        for settings, workers in (("sources=30 shard-caches=1", 2),
                                  ("sources=30,40 shard-caches=2", 2)):
            params = SCALE.parse(f"{settings} warmup=10 measure=40".split())
            assert (run_matrix(SCALE, params, workers=workers)
                    == run_matrix(SCALE, params))


class TestShardParallel:
    def scenario(self, **fields):
        base = dict(workload=WorkloadSpec.make(sparse_workload, 0,
                                               num_sources=8, horizon=50.0),
                    policy="cooperative", cache_bandwidth=8.0,
                    source_bandwidth=1.0, warmup=10.0, measure=40.0,
                    topology=TopologyConfig(kind="sharded", num_caches=2))
        return Scenario(**{**base, **fields})

    def test_cooperative_on_independent_shards_only(self):
        assert matrix.shard_parallel(self.scenario())
        assert matrix.shard_parallel(self.scenario(
            faults=fault_scenario("none", 10.0, 40.0)))
        for fields in (
                {"policy": "uniform"},
                {"topology": None},
                {"topology": TopologyConfig(kind="sharded", num_caches=1)},
                {"topology": TopologyConfig(kind="replicated",
                                            num_caches=2)},
                {"faults": fault_scenario("lossy-10", 10.0, 40.0)},
                {"retry": RetryPolicy()},
                {"read_policy": "freshest", "read_rate": 0.1},
                {"policy_kwargs": (("rebalance",
                                    RebalanceConfig(interval=10.0)),)}):
            assert not matrix.shard_parallel(self.scenario(**fields)), fields
