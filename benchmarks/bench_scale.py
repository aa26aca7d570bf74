"""E9 at m = 10^6: the shard-parallel path against its 60 s budget.

One sparse workload of 10^6 sources (the E9 shape: update rate 0.002/s,
cache 8/s, sources 1/s, 100 s warm-up, 500 s measured) on a 4-cache
sharded layout, run through
:func:`~repro.experiments.parallel.run_cooperative_sharded` at one
worker and at ``min(4, cpu_count)``.  The two results must be equal, and
the parallel run must fit the 60 s budget; generation happens inside the
shard workers, so it is part of the wall.  The test prints both walls
and writes nothing: the end-to-end walls of the E9 points are
``bench/run.py``'s, gated by CI's perf-regression job.

The budget assert needs a multi-core runner; CI runs this bench as an
advisory step of the parallel-smoke job.  The smaller E9 points are the
rows of ``repro matrix scale``, checked in ``bench_matrix``.
"""

import os
import time

from conftest import run_once

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.parallel import WorkloadSpec, run_cooperative_sharded
from repro.experiments.runner import RunSpec
from repro.experiments.scale import sparse_workload
from repro.network.bandwidth import ConstantBandwidth
from repro.network.topology import TopologyConfig

#: Wall-clock budget for the m = 10^6 shard-parallel run.
MILLION_BUDGET_SECONDS = 60.0

MILLION = 1_000_000
#: Shards, and the most workers the parallel run uses.
MILLION_SHARDS = 4


def _timed_run(workers: int):
    start = time.perf_counter()
    result = run_cooperative_sharded(
        WorkloadSpec.make(sparse_workload, 0, num_sources=MILLION,
                          horizon=600.0, update_rate=0.002),
        ValueDeviation(),
        RunSpec(warmup=100.0, measure=500.0,
                topology=TopologyConfig(kind="sharded",
                                        num_caches=MILLION_SHARDS)),
        ConstantBandwidth(8.0),
        [ConstantBandwidth(1.0) for _ in range(MILLION)],
        priority_fn=AreaPriority(), workers=workers)
    return time.perf_counter() - start, result


def test_scale_1000000_sources_shard_parallel(benchmark):
    """m = 10^6 via 4 shard-parallel caches: equal to one worker's run,
    and under the 60 s budget on a multi-core runner."""
    workers = max(1, min(MILLION_SHARDS, os.cpu_count() or 1))

    def both():
        return _timed_run(1), _timed_run(workers)

    (serial_wall, serial), (parallel_wall, parallel) = run_once(benchmark,
                                                                both)
    print(f"\nm = 10^6 sharded-{MILLION_SHARDS}: {serial_wall:.1f} s at 1 "
          f"worker, {parallel_wall:.1f} s at {workers} workers")
    assert parallel == serial, "shard-parallel execution changed the result"
    assert parallel.refreshes > 0
    assert parallel_wall <= MILLION_BUDGET_SECONDS, (
        f"m = 10^6 shard-parallel run took {parallel_wall:.1f}s "
        f"(budget {MILLION_BUDGET_SECONDS}s, {workers} workers)")
