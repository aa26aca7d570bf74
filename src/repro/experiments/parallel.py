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
  sub-simulation per cache.  :func:`run_cooperative_sharded` builds the
  workload once, in the calling process through the same memo, and
  computes the block assignment once; each task carries only its cache
  id and its shard's source ids.  The bandwidth profiles reach each
  worker once, as the map's ``shared`` inputs.  Workers start by fork,
  so they inherit the built trace and the profiles copy-on-write:
  nothing is regenerated and no task pickles a profile.  The worker
  slices the workload (:meth:`~repro.workloads.synthetic.Workload.shard`)
  and runs the shard as one star run; the parent merges
  integrals/counters back into the exact arithmetic the serial run
  performs (scatter + one ``np.sum``).  The merge is pinned bit-for-bit
  against the serial path in ``tests/test_parallel.py``; DESIGN.md
  Sec 11 gives the argument.  Fault plans and rebalancing couple the
  shards and are rejected.

Pool workers of both tiers freeze the heap they inherit by fork, so
their collector passes skip the parent's objects.  A finished shard
closes its policy and context while collection is still paused: that
breaks every callback cycle, so reference counting frees the shard's
~3.2 GC-tracked objects (~730 B) per source at the end of a sparse run
at once, where a GC pass would have had to scan and free them (DESIGN.md
Sec 10 tabulates them).

Everything a worker touches must be importable by reference: cell
functions live at module level, and payloads are frozen dataclasses of
scalars, id arrays and other small values.  What every payload of a map
reads goes to each worker once, through :meth:`ParallelRunner.map`'s
``shared`` argument.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.divergence import DivergenceMetric
from repro.core.priority import AreaPriority, PriorityFunction
from repro.experiments.runner import RunSpec, build_result, make_context
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
# Workload descriptors: build from a seed, never pickle the trace
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


@functools.lru_cache(maxsize=1)
def build_workload(spec: WorkloadSpec) -> Workload:
    """Build (or reuse) the workload for ``spec`` in this process.

    The memo keeps the most recent build only.  Consecutive cells in a
    sweep usually share one workload (several policies/replicas per
    configuration); keeping exactly one bounds worker memory while still
    collapsing the common repeat.  ``build_workload.cache_clear()``
    empties it.
    """
    return spec.build()


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
#: The ``shared`` inputs of the running :meth:`ParallelRunner.map`: set
#: once in each pool worker by its initializer, and around the
#: in-process loop by ``map`` itself.  Nothing else writes it.
_shared: Any = None


def _start_worker(shared: Any) -> None:
    """Pool initializer: freeze the heap inherited by fork, so collector
    passes skip the parent's objects, and keep the map's shared inputs."""
    global _shared
    gc.freeze()
    _shared = shared


class ParallelRunner:
    """Order-preserving map of a cell function over payloads.

    ``workers <= 1`` (the default everywhere) degenerates to a plain
    in-process loop -- the exact pre-existing serial path.  With more
    workers, cells run in a ``ProcessPoolExecutor`` and results come back
    in payload order, so callers merge deterministically regardless of
    completion order.  ``fn`` must be picklable by reference (module
    level) and payloads must be picklable values.

    Each worker freezes the heap it inherits by fork (``gc.freeze``), so
    its collector passes never rescan the parent's objects.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any],
            shared: Any = None) -> list:
        """``fn`` over ``payloads``, results in payload order.

        ``shared`` holds what every payload reads rather than carries.
        Each pool worker receives it once, through the pool initializer:
        a worker started by fork inherits it unpickled, and under spawn
        it is pickled once per worker, never once per payload.  The
        in-process loop sets it for its own duration.
        """
        global _shared
        payloads = list(payloads)
        if self.workers <= 1 or len(payloads) <= 1:
            saved, _shared = _shared, shared
            try:
                return [fn(payload) for payload in payloads]
            finally:
                _shared = saved
        workers = min(self.workers, len(payloads))
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_start_worker,
                                 initargs=(shared,)) as pool:
            return list(pool.map(fn, payloads))


# ----------------------------------------------------------------------
# Tier 2: shard-parallel cooperative runs
# ----------------------------------------------------------------------
def shard_sources(config: TopologyConfig,
                  num_sources: int) -> list[np.ndarray]:
    """Global source ids per cache (those it is primary for), ascending.

    One int64 array per cache: a shard's ids take 8 bytes each, where a
    list of Python ints takes ~40, and they pickle as one buffer.
    """
    primary = np.fromiter(
        (targets[0] for targets in config.assignment_for(num_sources)),
        dtype=np.int64, count=num_sources)
    return [np.flatnonzero(primary == k) for k in range(config.num_caches)]


@dataclass(frozen=True)
class ShardTask:
    """What one worker needs to run a single shard, beyond the inputs
    every shard shares.

    A task carries its cache id and its shard's global source ids,
    ascending, as one int64 array.  The trace comes from the worker's workload memo, which a
    worker started by fork inherits from the caller that built it, and
    the bandwidth profiles from the map's ``shared`` inputs: no task
    pickles the trace or a profile.
    """

    workload: WorkloadSpec
    spec: RunSpec  #: the *global* run spec (topology = the sharded config)
    cache_id: int
    metric: DivergenceMetric
    sources: np.ndarray  #: global source ids of this shard, ascending
    priority_fn: PriorityFunction
    policy_kwargs: tuple[tuple[str, Any], ...] = ()


@dataclass
class ShardResult:
    """One shard's integrals, thresholds and counters, ready to merge."""

    cache_id: int
    sources: np.ndarray  #: global source ids, ascending
    objects: np.ndarray  #: global object indices, ascending
    weighted_integral: np.ndarray
    unweighted_integral: np.ndarray
    thresholds: list[float]  #: final T_j per source, global-ascending order
    result: RunResult  #: the shard's own run: its duration and counters


def _run_shard(task: ShardTask) -> ShardResult:
    """Run one shard as an independent star sub-simulation.

    The shard's sources keep their own bandwidth profiles and share its
    cache's slice of the aggregate cache bandwidth on one cache link; the
    sub-run goes through the same :meth:`SimulationContext.run
    <repro.policies.base.SimulationContext.run>` as ``run_policy``.
    The run is closed and dropped before the collector resumes, so its
    object graph is freed by reference counting, not by a GC pass.
    """
    with gc_paused():
        # The closed run lives only in the helper's frame, which is
        # freed when it returns: before the collector resumes.
        return _simulate_shard(task)


def _simulate_shard(task: ShardTask) -> ShardResult:
    """Build, run, read and close one shard."""
    workload = build_workload(task.workload)
    cache_profiles, source_bandwidths = _shared
    sources = task.sources
    ops = workload.objects_per_source
    objects = (sources[:, None] * ops
               + np.arange(ops, dtype=np.int64)[None, :]).reshape(-1)
    policy = CooperativePolicy(cache_profiles[task.cache_id],
                               [source_bandwidths[j]
                                for j in sources.tolist()],
                               priority_fn=task.priority_fn,
                               **dict(task.policy_kwargs))
    shard = workload.shard(sources)
    ctx = make_context(shard, task.metric, replace(task.spec, topology=None))
    policy.attach(ctx)
    ctx.run(task.spec.end_time,
            resample_interval=task.spec.resample_interval)
    # ctx.run finalized the collector: its record log is folded.
    collector = ctx.collector
    result = ShardResult(
        cache_id=task.cache_id,
        sources=task.sources,
        objects=objects,
        weighted_integral=collector._weighted_integral,
        unweighted_integral=collector._unweighted_integral,
        thresholds=list(policy.sources.thresholds.value),
        result=build_result(shard, task.metric, policy, ctx),
    )
    policy.close()
    ctx.close()
    return result


def merge_shard_results(shards: list[ShardResult], num_sources: int,
                        num_objects: int, metric_name: str) -> RunResult:
    """Reassemble per-shard results into the serial run's ``RunResult``.

    Bitwise-faithful to the serial arithmetic of
    :func:`~repro.experiments.runner.build_result`: per-object integrals
    are scattered back to their global positions and reduced by the same
    single ``np.sum`` the collector performs; the mean threshold is a
    left-to-right Python-float sum in ascending global source order,
    exactly the order ``CooperativePolicy.mean_threshold`` folds; every
    counter is a sum (or, for the backlog peak, a max) over the shards
    in cache order, which is the order the serial run sums its links.
    """
    shards = sorted(shards, key=lambda s: s.cache_id)
    weighted = np.zeros(num_objects)
    unweighted = np.zeros(num_objects)
    thresholds = [0.0] * num_sources
    for shard in shards:
        weighted[shard.objects] = shard.weighted_integral
        unweighted[shard.objects] = shard.unweighted_integral
        for j, value in zip(shard.sources.tolist(), shard.thresholds):
            thresholds[j] = value
    parts = [shard.result for shard in shards]
    duration = parts[0].duration
    weighted_mean = (float(weighted.sum()) / duration / num_objects
                     if duration > 0 else 0.0)
    unweighted_mean = (float(unweighted.sum()) / duration / num_objects
                       if duration > 0 else 0.0)
    return RunResult(
        policy="cooperative",
        metric=metric_name,
        num_sources=num_sources,
        num_objects=num_objects,
        duration=duration,
        weighted_divergence=weighted_mean,
        unweighted_divergence=unweighted_mean,
        refreshes=sum(p.refreshes for p in parts),
        feedback_messages=sum(p.feedback_messages for p in parts),
        poll_messages=sum(p.poll_messages for p in parts),
        messages_total=sum(p.messages_total for p in parts),
        refreshes_sent=sum(p.refreshes_sent for p in parts),
        units=sum(p.units for p in parts),
        queued=sum(p.queued for p in parts),
        queued_peak=max(p.queued_peak for p in parts),
        dropped=sum(p.dropped for p in parts),
        retransmitted=sum(p.retransmitted for p in parts),
        duplicates=sum(p.duplicates for p in parts),
        migrations=sum(p.migrations for p in parts),
        mean_threshold=(sum(thresholds) / len(thresholds)
                        if thresholds else 0.0),
        samples=sum(p.samples for p in parts),
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
    its caches that owns a source becomes one worker task running its
    shard to the end independently.  A cache that owns none has nothing
    to send, so it runs no shard.  The merged result is bit-for-bit
    equal to the serial ``run_policy`` on the same workload/spec (pinned
    in ``tests/test_parallel.py``); ``workers=1`` runs the shards
    serially through the identical slicing/merge path.

    The workload is built here, through :func:`build_workload`'s memo,
    before the pool starts; the per-cache and per-source profiles go to
    each worker once (:meth:`ParallelRunner.map`'s ``shared``).

    A non-empty fault plan or a ``rebalance`` configuration couples the
    shards (fault draws follow global cache ids, migrations move
    sources between caches), and a profile list that does not match the
    workload's sources is wrong, so all three are rejected before any
    shard runs.
    """
    config = spec.topology
    if config is None or config.kind != "sharded":
        raise ValueError(
            "shard-parallel execution needs a kind='sharded' topology, "
            f"got {config!r}")
    if spec.faults is not None and not spec.faults.is_empty():
        raise ValueError("shard-parallel execution cannot inject faults; "
                         "run a fault plan through run_policy")
    if policy_kwargs.get("rebalance") is not None:
        raise ValueError("shard-parallel execution cannot rebalance "
                         "shards; run rebalancing through run_policy")
    workload = build_workload(workload_spec)
    num_sources = workload.num_sources
    if len(source_bandwidths) != num_sources:
        raise ValueError(f"expected {num_sources} source bandwidth "
                         f"profiles, got {len(source_bandwidths)}")
    if priority_fn is None:
        priority_fn = AreaPriority()
    tasks = [
        ShardTask(workload=workload_spec, spec=spec, cache_id=k,
                  metric=metric, sources=sources,
                  priority_fn=priority_fn,
                  policy_kwargs=tuple(sorted(policy_kwargs.items())))
        for k, sources in enumerate(shard_sources(config, num_sources))
        if len(sources)
    ]
    shards = ParallelRunner(workers).map(
        _run_shard, tasks,
        shared=(config.cache_profiles(cache_bandwidth), source_bandwidths))
    return merge_shard_results(shards, num_sources, workload.num_objects,
                               metric.name)
