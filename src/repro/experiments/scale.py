"""Scale sweep (E9): the event-driven simulator on sparse workloads.

The paper's simulator ticks once per second and its seed reproduction
scanned every source and every link each tick, so wall-clock cost was
O(ticks x m) even when nothing changed.  Cooperative-caching studies at
realistic scale (thousands of nodes/objects; see PAPERS.md) live exactly
in the regime that design cannot reach: many sources, each updating
rarely (``lambda << 1/dt``).

This experiment runs the cooperative policy on such a sparse workload --
m sources, one object each, identical low Poisson update rates -- and
times workload generation and the run separately.  Sources, caches and
links wake per entity, so work is proportional to updates, refreshes,
feedback and sampling deadlines, not to m x ticks.  The per-tick scan
survives only as the test-side reference schedule (``tests/oracles.py``),
which ``tests/test_equivalence.py`` pins this path against bit for bit.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.parallel import (
    ParallelRunner,
    WorkloadSpec,
    build_workload,
    run_cooperative_sharded,
)
from repro.experiments.runner import RunSpec, run_policy
from repro.metrics.report import format_table
from repro.network.bandwidth import ConstantBandwidth
from repro.network.topology import TopologyConfig
from repro.policies.cooperative import CooperativePolicy
from repro.workloads.bandwidth_traces import diurnal_trace
from repro.workloads.synthetic import Workload, uniform_random_walk


@dataclass
class ScalePoint:
    """One (num_sources, layout, link profile) measurement."""

    num_sources: int
    wall_seconds: float
    weighted_divergence: float
    refreshes: int
    feedback_messages: int
    gen_seconds: float = 0.0  #: wall clock of workload generation
    workers: int = 1  #: process-pool workers used for this point
    topology: str = "star"  #: cache layout ("star" or "sharded-N")
    bandwidth: str = "steady"  #: link-profile kind ("steady" or a trace
    #: label like "diurnal-1000"; see run_netcond_scale)


def sparse_workload(num_sources: int, horizon: float,
                    rng: np.random.Generator,
                    update_rate: float = 0.002) -> Workload:
    """One object per source, all updating at the same sparse Poisson rate.

    ``update_rate`` defaults to 0.002/s: with dt = 1 s the expected number
    of updates per source per tick is 1/500, i.e. almost every tick is
    idle for almost every source -- the regime the wakeup layer targets.
    """
    return uniform_random_walk(
        num_sources=num_sources, objects_per_source=1, horizon=horizon,
        rng=rng, rate_range=(update_rate, update_rate))


@dataclass(frozen=True)
class ScaleCell:
    """One picklable source-count cell of the E9 sweep."""

    num_sources: int
    update_rate: float
    cache_bandwidth: float
    source_bandwidth: float
    warmup: float
    measure: float
    seed: int
    shard_caches: int | None = None  #: tier-2 shard count (None = star)
    shard_workers: int = 1  #: tier-2 workers inside this cell


def _run_scale_cell(cell: ScaleCell) -> ScalePoint:
    """Worker-side E9 cell: regenerate the workload, run, measure.

    The workload comes from a :class:`WorkloadSpec` (seed + parameters),
    so any process produces the bit-identical trace.
    """
    wspec = WorkloadSpec.make(
        sparse_workload, cell.seed, num_sources=cell.num_sources,
        horizon=cell.warmup + cell.measure, update_rate=cell.update_rate)
    metric = ValueDeviation()
    if cell.shard_caches and cell.shard_caches > 1:
        spec = RunSpec(warmup=cell.warmup, measure=cell.measure,
                       seed=cell.seed,
                       topology=TopologyConfig(kind="sharded",
                                               num_caches=cell.shard_caches))
        start = time.perf_counter()
        result = run_cooperative_sharded(
            wspec, metric, spec,
            ConstantBandwidth(cell.cache_bandwidth),
            [ConstantBandwidth(cell.source_bandwidth)
             for _ in range(cell.num_sources)],
            priority_fn=AreaPriority(),
            workers=cell.shard_workers)
        # Generation happens inside the shard workers (memoized per
        # process) and is therefore part of the measured wall clock.
        wall = time.perf_counter() - start
        gen_seconds = 0.0
        topology = f"sharded-{cell.shard_caches}"
        workers = cell.shard_workers
    else:
        gen_start = time.perf_counter()
        workload = build_workload(wspec)
        gen_seconds = time.perf_counter() - gen_start
        spec = RunSpec(warmup=cell.warmup, measure=cell.measure,
                       seed=cell.seed)
        policy = CooperativePolicy(
            ConstantBandwidth(cell.cache_bandwidth),
            [ConstantBandwidth(cell.source_bandwidth)
             for _ in range(cell.num_sources)],
            priority_fn=AreaPriority())
        start = time.perf_counter()
        result = run_policy(workload, metric, policy, spec)
        wall = time.perf_counter() - start
        topology = "star"
        workers = 1
        # The policy's node graph is cyclic (closures back-ref the
        # policy) and big at m ~ 10^5; drop it and collect *outside* the
        # timed window so neither its memory pressure nor its collection
        # lands in the next point's wall clock.
        del policy
        gc.collect()
    return ScalePoint(
        num_sources=cell.num_sources,
        wall_seconds=wall,
        weighted_divergence=result.weighted_divergence,
        refreshes=result.refreshes,
        feedback_messages=result.feedback_messages,
        gen_seconds=gen_seconds,
        workers=workers,
        topology=topology)


def run_scale(sources: tuple[int, ...] = (100, 1000, 10000),
              update_rate: float = 0.002,
              cache_bandwidth: float = 8.0,
              source_bandwidth: float = 1.0,
              warmup: float = 100.0,
              measure: float = 500.0,
              seed: int = 0,
              workers: int = 1,
              shard_caches: int | None = None) -> list[ScalePoint]:
    """Sweep source counts: one timed cooperative run per count.

    Workload generation is timed separately (``gen_seconds``): at
    m = 10^5 the vectorized pipeline is the difference between seconds
    and minutes of setup, and the benchmark suite tracks both times
    across PRs in ``BENCH_scale.json``.

    ``workers`` > 1 fans the sweep's cells over a process pool
    (:class:`~repro.experiments.parallel.ParallelRunner`); results are
    merged in cell order and bit-for-bit identical to the serial sweep.
    ``shard_caches`` = N switches every point to a sharded N-cache
    topology run shard-parallel (tier 2) with ``workers`` processes *per
    run* -- the two tiers are not nested, so at most one pool exists.
    """
    sharded = shard_caches is not None and shard_caches > 1
    cells = [
        ScaleCell(num_sources=m, update_rate=update_rate,
                  cache_bandwidth=cache_bandwidth,
                  source_bandwidth=source_bandwidth,
                  warmup=warmup, measure=measure, seed=seed,
                  shard_caches=shard_caches if sharded else None,
                  shard_workers=workers if sharded else 1)
        for m in sources
    ]
    return ParallelRunner(1 if sharded else workers).map(_run_scale_cell,
                                                         cells)


def run_netcond_scale(num_sources: int = 100_000,
                      update_rate: float = 0.002,
                      cache_bandwidth: float = 8.0,
                      source_bandwidth: float = 1.0,
                      warmup: float = 100.0,
                      measure: float = 500.0,
                      seed: int = 0,
                      num_breakpoints: int = 1000):
    """E9-style sparse run, trace-driven vs constant bandwidth.

    One m-source sparse workload, two cooperative runs: plain
    ``ConstantBandwidth`` links, then a ``num_breakpoints``-segment
    diurnal :class:`TraceBandwidth` with the same mean on the cache link
    and one *shared* diurnal trace instance across every source link
    (the trace is read-only during a run -- its only mutable state is a
    segment-index lookup cache -- so sharing keeps the m = 10^5 point at
    one cumulative array instead of 10^5).  Returns the two
    :class:`~repro.experiments.scale.ScalePoint`\\ s, labeled via their
    ``bandwidth`` field so the BENCH regression checker keys them apart;
    the trace point's wall clock is the O(log segments) acceptance
    number (must stay within 2x the constant wall).
    """
    duration = warmup + measure
    rng = np.random.default_rng(seed)
    gen_start = time.perf_counter()
    workload = sparse_workload(num_sources, duration, rng,
                               update_rate=update_rate)
    gen_seconds = time.perf_counter() - gen_start
    metric = ValueDeviation()
    spec = RunSpec(warmup=warmup, measure=measure, seed=seed)
    points = []
    for bandwidth in ("steady", f"diurnal-{num_breakpoints}"):
        if bandwidth == "steady":
            cache_bw = ConstantBandwidth(cache_bandwidth)
            source_bws = [ConstantBandwidth(source_bandwidth)
                          for _ in range(num_sources)]
        else:
            cache_bw = diurnal_trace(cache_bandwidth, duration,
                                     num_breakpoints)
            shared = diurnal_trace(source_bandwidth, duration,
                                   num_breakpoints)
            source_bws = [shared] * num_sources
        policy = CooperativePolicy(cache_bw, source_bws,
                                   priority_fn=AreaPriority())
        start = time.perf_counter()
        result = run_policy(workload, metric, policy, spec)
        wall = time.perf_counter() - start
        points.append(ScalePoint(
            num_sources=num_sources,
            wall_seconds=wall,
            weighted_divergence=result.weighted_divergence,
            refreshes=result.refreshes,
            feedback_messages=result.feedback_messages,
            gen_seconds=gen_seconds,
            bandwidth=bandwidth))
        del policy, result
        gc.collect()
    return points


def render_scale(points: list[ScalePoint], title: str) -> str:
    """The sweep as a table, one row per point."""
    rows = [[p.num_sources, round(p.gen_seconds, 4),
             round(p.wall_seconds, 4), p.weighted_divergence, p.refreshes,
             p.feedback_messages]
            for p in points]
    return format_table(
        ["sources", "gen s", "wall s", "divergence", "refreshes",
         "feedback"],
        rows, title=title)
