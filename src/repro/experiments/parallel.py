"""Process-parallel execution: sweep fan-out and shard-parallel runs.

Two independent tiers, both built on ``ProcessPoolExecutor``:

* **Tier 1 -- sweep-level parallelism.**  Experiment grids (fig4 cells,
  E9 scale points, E10 read sweeps, multicache comparisons) are
  embarrassingly parallel: every cell is a pure function of its
  parameters and a seed.  :class:`ParallelRunner` maps a module-level
  cell function over picklable payloads and returns results in payload
  order, so a parallel sweep is *bit-for-bit identical* to the serial
  loop -- only wall clock changes.  Workloads are never pickled (a
  m = 10^6 trace is ~100 MB of arrays); instead each payload carries a
  :class:`WorkloadSpec` and the worker regenerates the trace from the
  seed, memoizing the most recent build per process.

* **Tier 2 -- shard-parallel single runs.**  In a ``"sharded"``
  :class:`~repro.network.topology.TopologyConfig` every source reports
  to exactly one cache, feedback flows cache -> own sources only, and no
  link, rng stream, or controller is shared across shards -- so the
  serial interleaved schedule factors exactly into one independent
  sub-simulation per cache.  :func:`run_cooperative_sharded` slices the
  workload per shard (:meth:`~repro.workloads.synthetic.Workload.shard`),
  runs each shard in a worker process advancing feedback-window by
  feedback-window, and merges integrals/counters back into the exact
  arithmetic the serial run performs (scatter + one ``np.sum``).  The
  merge is pinned bit-for-bit against the serial path in
  ``tests/test_parallel.py``; DESIGN.md Sec 11 gives the argument.

Everything a worker touches must be importable by reference: cell
functions live at module level, payloads are frozen dataclasses of
scalars and small numpy-free values.
"""

from __future__ import annotations

import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.divergence import DivergenceMetric
from repro.core.priority import AreaPriority, PriorityFunction
from repro.experiments.runner import RunSpec, make_context
from repro.metrics.report import RunResult
from repro.network.bandwidth import BandwidthProfile
from repro.network.topology import TopologyConfig
from repro.policies.cooperative import CooperativePolicy
from repro.sim.engine import gc_paused
from repro.workloads.synthetic import Workload


def default_workers() -> int:
    """Worker count matched to the machine (at least 1)."""
    return max(1, os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Workload descriptors: regenerate in the worker, never pickle the trace
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """A picklable recipe for a seeded workload.

    ``builder`` is a ``"module:callable"`` reference resolved in the
    worker; the callable receives a fresh ``np.random.default_rng(seed)``
    plus ``kwargs`` and must return a :class:`Workload`.  Two equal specs
    build bit-identical workloads in any process, which is what makes
    parallel sweeps reproducible: the ~1M-event trace arrays are
    regenerated (fast, vectorized) instead of serialized.
    """

    builder: str
    seed: int
    kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, builder: Callable[..., Workload], seed: int,
             **kwargs: Any) -> "WorkloadSpec":
        return cls(builder=f"{builder.__module__}:{builder.__qualname__}",
                   seed=int(seed),
                   kwargs=tuple(sorted(kwargs.items())))

    def build(self) -> Workload:
        module_name, _, func_name = self.builder.partition(":")
        fn = getattr(importlib.import_module(module_name), func_name)
        rng = np.random.default_rng(self.seed)
        return fn(rng=rng, **dict(self.kwargs))


#: Per-process memo of the most recently built workload.  Consecutive
#: cells in a sweep usually share one workload (several policies/replicas
#: per configuration); keeping exactly one bounds worker memory while
#: still collapsing the common repeat.
_workload_cache: dict[WorkloadSpec, Workload] = {}


def build_workload(spec: WorkloadSpec) -> Workload:
    """Build (or reuse) the workload for ``spec`` in this process."""
    workload = _workload_cache.get(spec)
    if workload is None:
        workload = spec.build()
        _workload_cache.clear()
        _workload_cache[spec] = workload
    return workload


def rng_probe(seed: int) -> tuple[int, list[float]]:
    """Worker-side probe for the seed-handoff tests.

    Returns the worker pid and the first draws of a freshly seeded
    generator: equal seeds must yield equal draws in *any* process
    (workers hand seeds around, never generator state).
    """
    rng = np.random.default_rng(seed)
    return os.getpid(), rng.random(4).tolist()


# ----------------------------------------------------------------------
# Tier 1: order-preserving process-pool map
# ----------------------------------------------------------------------
class ParallelRunner:
    """Order-preserving map of a cell function over payloads.

    ``workers <= 1`` (the default everywhere) degenerates to a plain
    in-process loop -- the exact pre-existing serial path.  With more
    workers, cells run in a ``ProcessPoolExecutor`` and results come back
    in payload order, so callers merge deterministically regardless of
    completion order.  ``fn`` must be picklable by reference (module
    level) and payloads must be picklable values.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list:
        payloads = list(payloads)
        if self.workers <= 1 or len(payloads) <= 1:
            return [fn(payload) for payload in payloads]
        workers = min(self.workers, len(payloads))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, payloads))


# ----------------------------------------------------------------------
# Tier 2: shard-parallel cooperative runs
# ----------------------------------------------------------------------
def shard_sources(config: TopologyConfig, num_sources: int,
                  cache_id: int) -> list[int]:
    """Global source ids owned by ``cache_id``, ascending."""
    assignment = config.assignment_for(num_sources)
    return [j for j in range(num_sources) if cache_id in assignment[j]]


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to run a single shard."""

    workload: WorkloadSpec
    spec: RunSpec  #: the *global* run spec (topology = the sharded config)
    cache_id: int
    metric: DivergenceMetric
    cache_bandwidth: BandwidthProfile  #: aggregate cache-side profile
    source_bandwidths: tuple[BandwidthProfile, ...]  #: full global list
    priority_fn: PriorityFunction
    policy_kwargs: tuple[tuple[str, Any], ...] = ()


@dataclass
class ShardResult:
    """One shard's integrals, counters and telemetry, ready to merge."""

    cache_id: int
    sources: list[int]  #: global source ids, ascending
    objects: np.ndarray  #: global object indices, ascending
    duration: float
    weighted_integral: np.ndarray
    unweighted_integral: np.ndarray
    thresholds: list[float]  #: final T_j per source, global-ascending order
    refreshes_sent: int
    refreshes_applied: int
    feedback_sent: int
    cache_messages: int
    utilization: float
    queued: int
    queued_peak: int
    windows: int  #: feedback windows executed (barrier telemetry)


def _run_shard(task: ShardTask) -> ShardResult:
    """Run one shard as an independent single-cache sub-simulation.

    The sub-run advances feedback-window by feedback-window (successive
    ``run_until`` calls at window boundaries): each boundary is the
    designated exchange point where a future cross-shard rebalancer would
    synchronize.  With today's disjoint shards nothing crosses the
    boundary, so the windowed schedule is provably identical to one
    uninterrupted run (events at or before each boundary fire in the same
    ``(time, phase, seq)`` order either way).
    """
    with gc_paused():
        workload = build_workload(task.workload)
        config = task.spec.topology
        assert config is not None and config.kind == "sharded"
        sources = shard_sources(config, workload.num_sources, task.cache_id)
        sub = workload.shard(np.asarray(sources, dtype=np.int64))
        ops = workload.objects_per_source
        objects = (np.asarray(sources, dtype=np.int64)[:, None] * ops
                   + np.arange(ops, dtype=np.int64)[None, :]).reshape(-1)
        profile = config.cache_profiles(task.cache_bandwidth)[task.cache_id]
        sub_spec = replace(task.spec,
                           topology=TopologyConfig(kind="sharded",
                                                   num_caches=1))
        policy = CooperativePolicy(
            profile,
            [task.source_bandwidths[j] for j in sources],
            priority_fn=task.priority_fn,
            **dict(task.policy_kwargs))
        ctx = make_context(sub, task.metric, sub_spec)
        policy.attach(ctx)
        if task.spec.resample_interval is not None:
            ctx.collector.schedule_resample(ctx.sim,
                                            task.spec.resample_interval)
        end = task.spec.end_time
        window = policy._feedback_period_for(0, ctx)
        windows = 0
        if window is None or window <= 0:
            ctx.sim.run_until(end)
            windows = 1
        else:
            now = 0.0
            while now < end:
                now = min(now + window, end)
                ctx.sim.run_until(now)
                windows += 1
        ctx.collector.finalize(end)
        collector = ctx.collector
        link = policy.topology.cache_links[0]
        return ShardResult(
            cache_id=task.cache_id,
            sources=sources,
            objects=objects,
            duration=collector.duration,
            weighted_integral=collector._weighted_integral,
            unweighted_integral=collector._unweighted_integral,
            thresholds=[s.threshold.value for s in policy.sources],
            refreshes_sent=sum(s.refreshes_sent for s in policy.sources),
            refreshes_applied=policy.refreshes(),
            feedback_sent=policy.feedback_messages(),
            cache_messages=link.total_sent,
            utilization=link.utilization(),
            queued=link.queued,
            queued_peak=link.total_queued_peak,
            windows=windows,
        )


def merge_shard_results(shards: list[ShardResult], num_sources: int,
                        num_objects: int, metric_name: str) -> RunResult:
    """Reassemble per-shard results into the serial run's ``RunResult``.

    Bitwise-faithful to the serial arithmetic: per-object integrals are
    scattered back to their global positions and reduced by the same
    single ``np.sum`` the collector performs; the mean threshold is a
    left-to-right Python-float sum in ascending global source order,
    exactly the order ``CooperativePolicy.extras`` folds; counters are
    integer sums and maxes.
    """
    shards = sorted(shards, key=lambda s: s.cache_id)
    weighted = np.zeros(num_objects)
    unweighted = np.zeros(num_objects)
    thresholds = [0.0] * num_sources
    refreshes_sent = refreshes = feedback = messages = 0
    for shard in shards:
        weighted[shard.objects] = shard.weighted_integral
        unweighted[shard.objects] = shard.unweighted_integral
        for j, value in zip(shard.sources, shard.thresholds):
            thresholds[j] = value
        refreshes_sent += shard.refreshes_sent
        refreshes += shard.refreshes_applied
        feedback += shard.feedback_sent
        messages += shard.cache_messages
    duration = shards[0].duration
    weighted_mean = (float(weighted.sum()) / duration / num_objects
                     if duration > 0 else 0.0)
    unweighted_mean = (float(unweighted.sum()) / duration / num_objects
                       if duration > 0 else 0.0)
    extras: dict = {
        "mean_threshold": (sum(thresholds) / len(thresholds)
                           if thresholds else 0.0),
        "refreshes_sent": refreshes_sent,
        "refreshes_in_flight": refreshes_sent - refreshes,
        "cache_queue_peak": max((s.queued_peak for s in shards), default=0),
        "shard_windows": [s.windows for s in shards],
    }
    if len(shards) > 1:
        extras["topology"] = {
            "num_caches": len(shards),
            "cache_utilization": [s.utilization for s in shards],
            "cache_queued": [s.queued for s in shards],
            "cache_queued_peak": [s.queued_peak for s in shards],
        }
    return RunResult(
        policy="cooperative",
        metric=metric_name,
        num_sources=num_sources,
        num_objects=num_objects,
        duration=duration,
        weighted_divergence=weighted_mean,
        unweighted_divergence=unweighted_mean,
        refreshes=refreshes,
        feedback_messages=feedback,
        poll_messages=0,
        messages_total=messages,
        extras=extras,
    )


def run_cooperative_sharded(workload_spec: WorkloadSpec,
                            metric: DivergenceMetric,
                            spec: RunSpec,
                            cache_bandwidth: BandwidthProfile,
                            source_bandwidths: Sequence[BandwidthProfile],
                            priority_fn: PriorityFunction | None = None,
                            workers: int = 1,
                            **policy_kwargs: Any) -> RunResult:
    """Run one cooperative sharded-topology simulation, shard-parallel.

    ``spec.topology`` must be a ``kind="sharded"`` configuration; each of
    its caches becomes one worker task advancing independently between
    feedback windows.  The merged result is bit-for-bit equal to the
    serial ``run_policy`` on the same workload/spec (pinned in
    ``tests/test_parallel.py``); ``workers=1`` runs the shards serially
    through the identical slicing/merge path.
    """
    config = spec.topology
    if config is None or config.kind != "sharded":
        raise ValueError(
            "shard-parallel execution needs a kind='sharded' topology, "
            f"got {config!r}")
    if priority_fn is None:
        priority_fn = AreaPriority()
    tasks = [
        ShardTask(workload=workload_spec, spec=spec, cache_id=k,
                  metric=metric, cache_bandwidth=cache_bandwidth,
                  source_bandwidths=tuple(source_bandwidths),
                  priority_fn=priority_fn,
                  policy_kwargs=tuple(sorted(policy_kwargs.items())))
        for k in range(config.num_caches)
    ]
    shards = ParallelRunner(workers).map(_run_shard, tasks)
    num_sources = len(source_bandwidths)
    workload_objects = sum(len(s.objects) for s in shards)
    return merge_shard_results(shards, num_sources, workload_objects,
                               metric.name)
