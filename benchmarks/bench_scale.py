"""E9 at m = 10^6: the shard-parallel path against its 60 s budget.

One sparse workload of 10^6 sources (the E9 shape: update rate 0.002/s,
cache 8/s, sources 1/s, 100 s warm-up, 500 s measured) on a 4-cache
sharded layout, run through
:func:`~repro.experiments.parallel.run_cooperative_sharded` at one
worker and at ``min(4, cpu_count)``.  The two results must be equal, and
the parallel run must fit the 60 s budget.  Each run generates the trace
once, in this process before its shards start (the workload memo is
emptied first, so neither run reuses the other's build), and that
generation is part of its wall.  The test prints both walls,
each with a peak RSS -- the serial run's (this process, ``RUSAGE_SELF``,
read right after it) and the largest pool worker's
(``RUSAGE_CHILDREN``) -- and writes nothing: the end-to-end walls of the
E9 points are ``bench/run.py``'s, gated by CI's perf-regression job.

The budget assert needs a multi-core runner; CI runs this bench as an
advisory step of the parallel-smoke job.  The smaller E9 points are the
rows of ``repro matrix scale``, checked in ``bench_matrix``.
"""

import os
import resource
import time

from conftest import run_once

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.parallel import (
    WorkloadSpec,
    build_workload,
    run_cooperative_sharded,
)
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
    build_workload.cache_clear()
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


def _peak_rss_mb(who: int) -> float:
    """Peak RSS of this process (``RUSAGE_SELF``) or of its largest
    waited-for child (``RUSAGE_CHILDREN``); ru_maxrss is in KiB on
    Linux."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def test_scale_1000000_sources_shard_parallel(benchmark):
    """m = 10^6 via 4 shard-parallel caches: equal to one worker's run,
    and under the 60 s budget on a multi-core runner."""
    workers = max(1, min(MILLION_SHARDS, os.cpu_count() or 1))

    def both():
        serial = _timed_run(1)
        serial_rss = _peak_rss_mb(resource.RUSAGE_SELF)
        parallel = _timed_run(workers)
        return serial, parallel, serial_rss, _peak_rss_mb(
            resource.RUSAGE_CHILDREN)

    ((serial_wall, serial), (parallel_wall, parallel), serial_rss,
     worker_rss) = run_once(benchmark, both)
    print(f"\nm = 10^6 sharded-{MILLION_SHARDS}: {serial_wall:.1f} s at 1 "
          f"worker (peak RSS {serial_rss:.0f} MB), {parallel_wall:.1f} s "
          f"at {workers} workers (largest worker's peak RSS "
          f"{worker_rss:.0f} MB)")
    assert parallel == serial, "shard-parallel execution changed the result"
    assert parallel.refreshes > 0
    assert parallel_wall <= MILLION_BUDGET_SECONDS, (
        f"m = 10^6 shard-parallel run took {parallel_wall:.1f}s "
        f"(budget {MILLION_BUDGET_SECONDS}s, {workers} workers)")
