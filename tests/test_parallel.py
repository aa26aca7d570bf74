"""Tests for the process-parallel execution layer.

Two properties are pinned here:

* **Tier 1 determinism** -- a sweep fanned over worker processes is
  bit-for-bit identical to the serial loop (fig4 grid, E9 scale sweep,
  the readmodel and multicache matrices), because every cell regenerates
  its workload from a seed instead of receiving pickled state.
* **Tier 2 equivalence** -- a sharded-topology cooperative run executed
  as one star run per shard and worker merges to the exact
  ``RunResult`` the serial interleaved simulation produces.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.fig4 import Fig4Config, run_fig4
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
from repro.experiments.runner import RunSpec, run_policy
from repro.experiments.scale import run_scale
from repro.network.bandwidth import ConstantBandwidth
from repro.network.topology import TopologyConfig
from repro.policies.cooperative import CooperativePolicy
from repro.workloads.hotspot import hotspot_shards
from repro.workloads.synthetic import uniform_random_walk


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


def _sharded_fixture(num_caches: int):
    """A small hot-shard run: (workload spec, metric, run spec, profiles)."""
    num_sources = 8
    wspec = WorkloadSpec.make(hotspot_shards, 3, num_sources=num_sources,
                              objects_per_source=4, horizon=250.0)
    spec = RunSpec(warmup=50.0, measure=200.0, seed=3,
                   topology=TopologyConfig(kind="sharded",
                                           num_caches=num_caches))
    cache_bw = ConstantBandwidth(16.0)
    source_bws = [ConstantBandwidth(3.0) for _ in range(num_sources)]
    return wspec, ValueDeviation(), spec, cache_bw, source_bws


class TestShardParallelEquivalence:
    @pytest.mark.parametrize("num_caches", [2, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_serial_run(self, num_caches, workers):
        wspec, metric, spec, cache_bw, source_bws = \
            _sharded_fixture(num_caches)
        merged = run_cooperative_sharded(wspec, metric, spec, cache_bw,
                                         source_bws, workers=workers)
        serial = run_policy(
            build_workload(wspec), metric,
            CooperativePolicy(cache_bw, list(source_bws),
                              priority_fn=AreaPriority()),
            spec)
        assert merged.weighted_divergence == serial.weighted_divergence
        assert merged.unweighted_divergence == serial.unweighted_divergence
        assert merged.duration == serial.duration
        assert merged.refreshes == serial.refreshes
        assert merged.feedback_messages == serial.feedback_messages
        assert merged.messages_total == serial.messages_total
        assert (merged.extras["mean_threshold"]
                == serial.extras["mean_threshold"])
        assert (merged.extras["cache_queue_peak"]
                == serial.extras["cache_queue_peak"])

    def test_requires_sharded_topology(self):
        wspec, metric, spec, cache_bw, source_bws = _sharded_fixture(2)
        star = dataclasses.replace(spec, topology=None)
        with pytest.raises(ValueError):
            run_cooperative_sharded(wspec, metric, star, cache_bw,
                                    source_bws)

    def test_shards_partition_the_sources(self):
        config = TopologyConfig(kind="sharded", num_caches=3)
        shards = [shard_sources(config, 10, k) for k in range(3)]
        merged = sorted(j for shard in shards for j in shard)
        assert merged == list(range(10))


class TestSweepDeterminism:
    def test_fig4_parallel_matches_serial(self):
        config = Fig4Config(sources=(1, 4), objects_per_source=(2,),
                            cache_bandwidths=(10.0,),
                            change_rates=(0.0, 0.25),
                            metrics=("deviation",),
                            warmup=20.0, measure=80.0)
        assert run_fig4(config, workers=4) == run_fig4(config)

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
        kwargs = dict(sources=(50, 100), warmup=50.0, measure=150.0)
        parallel = run_scale(workers=4, **kwargs)
        serial = run_scale(**kwargs)
        strip = lambda p: dataclasses.replace(p, wall_seconds=0.0,
                                              gen_seconds=0.0, workers=1)
        assert [strip(p) for p in parallel] == [strip(p) for p in serial]

    def test_scale_sharded_mode_runs_and_tags_points(self):
        points = run_scale(sources=(60,), warmup=50.0, measure=100.0,
                           shard_caches=2, workers=2)
        assert len(points) == 1
        assert points[0].topology == "sharded-2"
        assert points[0].workers == 2
