"""Tests for the process-parallel execution layer.

Three properties are pinned here:

* **Tier 1 determinism** -- a sweep fanned over worker processes is
  bit-for-bit identical to the serial loop (the fig4, scale, readmodel
  and multicache matrices), because every cell regenerates its workload
  from a seed instead of receiving pickled state.
* **Tier 2 equivalence** -- a sharded-topology cooperative run executed
  as one star run per shard and worker merges to the exact
  ``RunResult`` the serial interleaved simulation produces, under every
  feature a shard can run and when some cache owns no source; features
  that couple shards, and profile lists of the wrong length, are
  rejected.  The caller generates the trace once, and no task pickles
  a bandwidth profile.
* **Teardown** -- a finished shard (and any closed cooperative run)
  leaves no cyclic garbage, so reference counting frees it.
"""

import dataclasses
import gc
import io
import pickle

import numpy as np
import pytest

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments import parallel
from repro.experiments.matrix import MATRICES, run_matrix
from repro.experiments.parallel import (
    ParallelRunner,
    WorkloadSpec,
    build_workload,
    default_workers,
    rng_probe,
    run_cooperative_sharded,
    shard_sources,
)
from repro.experiments.runner import (
    RunSpec,
    build_result,
    make_context,
    run_policy,
)
from repro.experiments.scale import sparse_workload
from repro.faults import RetryPolicy, fault_scenario
from repro.network.bandwidth import BandwidthProfile, ConstantBandwidth
from repro.network.topology import TopologyConfig
from repro.policies.cooperative import CooperativePolicy
from repro.rebalance import RebalanceConfig
from repro.workloads.bandwidth_traces import scenario_profile
from repro.workloads.hotspot import hotspot_shards
from repro.workloads.synthetic import uniform_random_walk


def shared_probe(payload):
    """Worker-side probe: the payload and the map's shared inputs."""
    return payload, parallel._shared


def counted_sparse_workload(rng, log: str, **kwargs):
    """``sparse_workload`` that appends one line to the file ``log`` per
    build, in whichever process builds it."""
    with open(log, "a") as out:
        out.write("built\n")
    return sparse_workload(rng=rng, **kwargs)


class TestParallelRunner:
    def test_rejects_non_positive_workers(self):
        with pytest.raises(ValueError):
            ParallelRunner(0)

    def test_serial_path_preserves_order(self):
        assert ParallelRunner(1).map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_pool_preserves_payload_order(self):
        # rng_probe is module-level (picklable); results must come back
        # in payload order regardless of completion order.
        seeds = [7, 3, 11, 5]
        results = ParallelRunner(2).map(rng_probe, seeds)
        serial = [rng_probe(s) for s in seeds]
        assert [draws for _, draws in results] == \
               [draws for _, draws in serial]

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_payload_reads_the_shared_inputs(self, workers):
        results = ParallelRunner(workers).map(shared_probe, [3, 1],
                                              shared=("a", 2))
        assert results == [(3, ("a", 2)), (1, ("a", 2))]
        assert parallel._shared is None  # the in-process loop restores it


class TestSeedHandoff:
    def test_workers_receive_seeds_not_generator_state(self):
        # Equal seeds yield equal draws in any process: the pool hands
        # around integers, never shared rng state.  If workers shared a
        # generator, the two probes of seed 13 would disagree.
        results = ParallelRunner(4).map(rng_probe, [13, 13, 29, 13])
        draws = [d for _, d in results]
        assert draws[0] == draws[1] == draws[3]
        assert draws[2] != draws[0]
        assert draws[0] == rng_probe(13)[1]


class TestWorkloadSpec:
    def test_build_is_bit_deterministic(self):
        spec = WorkloadSpec.make(uniform_random_walk, 5, num_sources=4,
                                 objects_per_source=3, horizon=50.0)
        a, b = spec.build(), spec.build()
        assert np.array_equal(a.trace.times, b.trace.times)
        assert np.array_equal(a.trace.values, b.trace.values)
        assert np.array_equal(a.trace.initial_values,
                              b.trace.initial_values)

    def test_memo_returns_same_object_for_equal_specs(self):
        spec = WorkloadSpec.make(uniform_random_walk, 6, num_sources=4,
                                 objects_per_source=2, horizon=50.0)
        assert build_workload(spec) is build_workload(
            WorkloadSpec.make(uniform_random_walk, 6, num_sources=4,
                              objects_per_source=2, horizon=50.0))


def _sharded_fixture(num_caches: int, num_sources: int = 8,
                     **spec_fields):
    """A small hot-shard run: (workload spec, metric, run spec, profiles).

    Every source has its own link rate, so a shard handed another
    shard's profiles cannot match the serial run.
    """
    wspec = WorkloadSpec.make(hotspot_shards, 3, num_sources=num_sources,
                              objects_per_source=4, horizon=250.0)
    spec = dataclasses.replace(
        RunSpec(warmup=50.0, measure=200.0, seed=3,
                topology=TopologyConfig(kind="sharded",
                                        num_caches=num_caches)),
        **spec_fields)
    cache_bw = ConstantBandwidth(16.0)
    source_bws = [ConstantBandwidth(1.0 + 0.5 * j)
                  for j in range(num_sources)]
    return wspec, ValueDeviation(), spec, cache_bw, source_bws


#: Features the shard-parallel path supports, one row each:
#: name -> (RunSpec fields, policy kwargs, aggregate cache bandwidth or
#: None for the fixture's).
FEATURE_ROWS = {
    "retry": ({"retry": RetryPolicy()}, {}, None),
    "feedback-ttl": ({}, {"feedback_ttl": 50.0}, None),
    "batching": ({}, {"batch_size": 4}, None),
    "sampling": ({}, {"monitor": "sampling"}, None),
    "diurnal-cache": ({}, {}, scenario_profile("diurnal", 16.0, 250.0)),
    "empty-fault-plan": ({"faults": fault_scenario("none", 50.0, 200.0)},
                         {}, None),
}

#: Features only a serial run supports: they couple the shards, so the
#: shard-parallel path rejects them.  Rows as in :data:`FEATURE_ROWS`.
SERIAL_ONLY_ROWS = {
    "fault-plan": ({"faults": fault_scenario("lossy-10", 50.0, 200.0,
                                             seed=3)}, {}, None),
    "rebalance": ({}, {"rebalance": RebalanceConfig(interval=10.0)}, None),
    "replicated-rebalance": (
        {"topology": TopologyConfig(kind="replicated", num_caches=2)},
        {"rebalance": RebalanceConfig(interval=10.0)}, None),
}


def _feature_case(row: str, num_caches: int = 2):
    """The fixture under one row of either table (``"plain"``: none),
    plus the row's policy kwargs."""
    spec_fields, policy_kwargs, cache_bw = {
        **FEATURE_ROWS, **SERIAL_ONLY_ROWS}.get(row, ({}, {}, None))
    wspec, metric, spec, default_bw, source_bws = _sharded_fixture(
        num_caches, **spec_fields)
    return (wspec, metric, spec, cache_bw or default_bw, source_bws,
            policy_kwargs)


def _assert_matches_serial(wspec, metric, spec, cache_bw, source_bws,
                           workers, **policy_kwargs):
    merged = run_cooperative_sharded(wspec, metric, spec, cache_bw,
                                     source_bws, workers=workers,
                                     **policy_kwargs)
    serial = run_policy(
        build_workload(wspec), metric,
        CooperativePolicy(cache_bw, list(source_bws),
                          priority_fn=AreaPriority(), **policy_kwargs),
        spec)
    assert serial.refreshes > 0
    assert merged == serial


class TestShardParallelEquivalence:
    @pytest.mark.parametrize("num_caches", [2, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_serial_run(self, num_caches, workers):
        _assert_matches_serial(*_sharded_fixture(num_caches), workers)

    @pytest.mark.parametrize("num_sources", [2, 3])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_serial_run_with_fewer_sources_than_caches(
            self, num_sources, workers):
        """A cache that owns no source runs no shard and adds nothing."""
        _assert_matches_serial(*_sharded_fixture(4, num_sources), workers)

    @pytest.mark.parametrize("row", FEATURE_ROWS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_serial_run_with_feature(self, row, workers):
        *case, policy_kwargs = _feature_case(row)
        _assert_matches_serial(*case, workers, **policy_kwargs)

    @pytest.mark.parametrize("row", FEATURE_ROWS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_serial_run_with_feature_on_four_caches(self, row,
                                                            workers):
        *case, policy_kwargs = _feature_case(row, num_caches=4)
        _assert_matches_serial(*case, workers, **policy_kwargs)

    def test_each_task_carries_only_its_shard(self, monkeypatch):
        """A task carries its cache id and its shard's source ids; the
        profiles reach the workers as the map's shared inputs, so no
        task pickles one."""
        wspec, metric, spec, cache_bw, source_bws = _sharded_fixture(4)
        seen = []
        run_map = ParallelRunner.map

        def record(runner, fn, tasks, shared=None):
            seen.extend(tasks)
            return run_map(runner, fn, tasks, shared)

        monkeypatch.setattr(ParallelRunner, "map", record)
        run_cooperative_sharded(wspec, metric, spec, cache_bw, source_bws)
        assert len(seen) == 4
        owned = shard_sources(spec.topology, len(source_bws))
        for k, task in enumerate(seen):
            assert task.cache_id == k
            assert np.array_equal(task.sources, owned[k])
            pickled = _pickled_types(task)
            assert not [t for t in pickled
                        if issubclass(t, BandwidthProfile)], pickled

    def test_one_trace_generation_per_run(self, tmp_path):
        """The caller builds the workload; the shard workers inherit
        it instead of regenerating it."""
        log = tmp_path / "builds"
        num_sources = 400
        wspec = WorkloadSpec.make(counted_sparse_workload, 0, log=str(log),
                                  num_sources=num_sources, horizon=150.0)
        spec = RunSpec(warmup=50.0, measure=100.0,
                       topology=TopologyConfig(kind="sharded",
                                               num_caches=4))
        result = run_cooperative_sharded(
            wspec, ValueDeviation(), spec, ConstantBandwidth(4.0),
            [ConstantBandwidth(1.0)] * num_sources, workers=2)
        assert result.num_sources == num_sources
        assert log.read_text().splitlines() == ["built"]

    @pytest.mark.parametrize("profiles", [8, 12])
    def test_refuses_a_profile_list_of_the_wrong_length(self, profiles,
                                                        monkeypatch):
        """Refused with run_policy's message before any shard runs."""
        wspec, metric, spec, cache_bw, _ = _sharded_fixture(4, 10)

        def no_shards(*args, **kwargs):
            raise AssertionError("a shard ran")

        monkeypatch.setattr(ParallelRunner, "map", no_shards)
        with pytest.raises(ValueError,
                           match=f"expected 10 source bandwidth profiles, "
                                 f"got {profiles}"):
            run_cooperative_sharded(wspec, metric, spec, cache_bw,
                                    [ConstantBandwidth(1.0)] * profiles,
                                    workers=2)

    def test_requires_sharded_topology(self):
        wspec, metric, spec, cache_bw, source_bws = _sharded_fixture(2)
        star = dataclasses.replace(spec, topology=None)
        with pytest.raises(ValueError):
            run_cooperative_sharded(wspec, metric, star, cache_bw,
                                    source_bws)

    @pytest.mark.parametrize("row", SERIAL_ONLY_ROWS)
    def test_rejects_serial_only_features(self, row, monkeypatch):
        """Rejected with one ValueError before any shard runs."""
        *case, policy_kwargs = _feature_case(row)

        def no_shards(*args):
            raise AssertionError("a shard ran")

        monkeypatch.setattr(ParallelRunner, "map", no_shards)
        with pytest.raises(ValueError, match="shard-parallel"):
            run_cooperative_sharded(*case, workers=2, **policy_kwargs)

    def test_shards_partition_the_sources(self):
        config = TopologyConfig(kind="sharded", num_caches=3)
        shards = shard_sources(config, 10)
        assert len(shards) == 3
        merged = sorted(j for shard in shards for j in shard)
        assert merged == list(range(10))


def _pickled_types(obj) -> set[type]:
    """The type of every object the pickle of ``obj`` reduces, beyond
    the built-in scalars and containers."""
    types: set[type] = set()

    class Recorder(pickle.Pickler):
        def reducer_override(self, value):
            types.add(type(value))
            return NotImplemented

    Recorder(io.BytesIO()).dump(obj)
    return types


def _cyclic_garbage(run) -> int:
    """Objects the cyclic collector finds after ``run()``, which runs
    with the collector off: what reference counting failed to free."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def _closed_run(wspec, metric, spec, cache_bw, source_bws,
                **policy_kwargs) -> None:
    """One serial cooperative run, read and then closed."""
    workload = build_workload(wspec)
    policy = CooperativePolicy(cache_bw, list(source_bws),
                               priority_fn=AreaPriority(), **policy_kwargs)
    ctx = make_context(workload, metric, spec)
    policy.attach(ctx)
    ctx.run(spec.end_time, resample_interval=spec.resample_interval)
    build_result(workload, metric, policy, ctx)
    policy.close()
    ctx.close()


class TestTeardown:
    """A finished run is freed by reference counting alone.

    Closing breaks every callback cycle, so the collector finds nothing
    from the run; a shard worker then never pays a GC pass over it.
    """

    @pytest.mark.parametrize("row", ["plain", *FEATURE_ROWS])
    def test_shard_runs_leave_no_cycles(self, row):
        *case, policy_kwargs = _feature_case(row)
        build_workload(case[0])  # the worker's memo outlives its shards
        assert _cyclic_garbage(lambda: run_cooperative_sharded(
            *case, workers=1, **policy_kwargs)) == 0

    @pytest.mark.parametrize("row",
                             ["plain", *FEATURE_ROWS, *SERIAL_ONLY_ROWS])
    def test_closed_runs_leave_no_cycles(self, row):
        *case, policy_kwargs = _feature_case(row)
        build_workload(case[0])
        assert _cyclic_garbage(
            lambda: _closed_run(*case, **policy_kwargs)) == 0


class TestSweepDeterminism:
    def test_fig4_parallel_matches_serial(self):
        settings = ("sources=1,4 objects=2 cache-bandwidths=10 "
                    "change-rates=0,0.25 metrics=deviation warmup=20 "
                    "measure=80")
        assert (self.matrix_rows("fig4", settings, workers=4)
                == self.matrix_rows("fig4", settings))

    @staticmethod
    def matrix_rows(name, settings, workers=1):
        matrix = MATRICES[name]
        return run_matrix(matrix, matrix.parse(settings.split()),
                          workers=workers)

    def test_readmodel_parallel_matches_serial(self):
        settings = ("num-caches=2 replication=1,2 sources=6 objects=2 "
                    "warmup=50 measure=100")
        assert (self.matrix_rows("readmodel", settings, workers=4)
                == self.matrix_rows("readmodel", settings))

    def test_multicache_parallel_matches_serial(self):
        settings = "num-caches=1,2 sources=8 objects=4 warmup=50 measure=100"
        assert (self.matrix_rows("multicache", settings, workers=2)
                == self.matrix_rows("multicache", settings))

    def test_scale_parallel_matches_serial(self):
        settings = "sources=50,100 warmup=50 measure=150"
        assert (self.matrix_rows("scale", settings, workers=4)
                == self.matrix_rows("scale", settings))
