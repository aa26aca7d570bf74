"""Per-layer spans for the traced repeat, patched in from outside ``src/``.

A :class:`Tracer` replaces the public functions at each layer boundary
of the ``repro`` package with wrappers that count calls and measure
time, and restores the originals on exit.  Each span's *self* time is
its duration minus the durations of the spans it encloses, so self
times never overlap and, with the root intervals (a whole repeat in the
driving process, one shard task in a pool worker), account for all
recorded time; what no span covers is reported as
``trace.unattributed_s``.  Self times and counts are summed over every
process of a repeat: pool workers ship their tables back on the shard
results they return.

The simulator's own events get one span per :class:`Phase`, opened
around every callback scheduled through ``Simulator.at``, ``schedule``
or ``wake_at``.

A tracer with ``spans=False`` installs only the shard plumbing: the
first ``Simulator.run_until`` entry of each process is stamped (the end
of set-up) and worker stamps travel back to the driving process.  That
is the only instrumentation an untraced repeat carries.

Wrappers are installed on classes and modules, so a tracer must be
entered before the simulation objects are built, and worker pools must
start by ``fork`` (the Linux default) to inherit them.
"""

from __future__ import annotations

import functools
import gc
import os
import time

from repro.cache.cache import CacheNode
from repro.cache.feedback import FeedbackController
from repro.core.objects import DataObject
from repro.experiments import parallel
from repro.faults.injector import FaultInjector
from repro.faults.retry import ReliableDelivery
from repro.metrics.collector import DivergenceCollector
from repro.network.link import Link
from repro.network.topology import Topology, TopologyConfig
from repro.policies.base import SimulationContext
from repro.policies.cooperative import CooperativePolicy
from repro.rebalance.controller import Rebalancer
from repro.sim.engine import Simulator
from repro.sim.events import Phase
from repro.source.source import SourceNode
from repro.workloads.synthetic import Workload

#: (owner, attribute, span name) for every wrapped public function.
TARGETS = (
    (parallel.WorkloadSpec, "build", "workloads.generate"),
    (Workload, "shard", "workloads.shard"),
    (parallel.ParallelRunner, "map", "parallel.map"),
    (parallel, "_run_shard", "parallel.run_shard"),
    (parallel, "shard_sources", "parallel.shard_sources"),
    (parallel, "build_workload", "parallel.build_workload"),
    (parallel, "merge_shard_results", "parallel.merge"),
    (TopologyConfig, "assignment_for", "network.assignment"),
    (SimulationContext, "__init__", "policies.context"),
    (CooperativePolicy, "attach", "policies.attach"),
    (SimulationContext, "apply_update_batch", "policies.apply_batch"),
    (SimulationContext, "apply_update", "policies.apply_update"),
    (Simulator, "run_until", "sim.run_until"),
    (DataObject, "apply_update", "core.apply_update"),
    (SourceNode, "on_update", "source.on_update"),
    (SourceNode, "on_wake", "source.on_wake"),
    (SourceNode, "on_message", "source.on_message"),
    (Topology, "send_upstream", "network.send_upstream"),
    (Topology, "send_downstream_batch", "network.send_downstream_batch"),
    (Topology, "on_network_tick", "network.tick"),
    (Link, "drain", "network.drain"),
    (CacheNode, "on_message", "cache.on_message"),
    (CacheNode, "on_tick", "cache.on_tick"),
    (FeedbackController, "on_tick", "cache.feedback_tick"),
    (DivergenceCollector, "record", "metrics.record"),
    (DivergenceCollector, "record_at", "metrics.record_at"),
    (DivergenceCollector, "resample", "metrics.resample"),
    (DivergenceCollector, "finalize", "metrics.finalize"),
    (FaultInjector, "allow_upstream", "faults.allow_upstream"),
    (FaultInjector, "allow_downstream", "faults.allow_downstream"),
    (ReliableDelivery, "on_send", "faults.retry_send"),
    (ReliableDelivery, "on_delivered", "faults.retry_delivered"),
    (Rebalancer, "on_window", "rebalance.on_window"),
)
PHASE_SPANS = {int(phase): f"sim.{phase.name.lower()}" for phase in Phase}
#: Cyclic garbage collector passes, from ``gc.callbacks``.
GC_SPAN = "python.gc"
SPAN_NAMES = (tuple(name for _, _, name in TARGETS)
              + tuple(PHASE_SPANS.values()) + (GC_SPAN,))

#: The workload memo as imported, before any tracer wraps it.
_build_workload = parallel.build_workload


class Tracer:
    """Span recorder for one repeat; a context manager that patches."""

    def __init__(self, spans: bool = True) -> None:
        self.spans = spans
        #: span name -> [calls, total ns, self ns]
        self.stats: dict[str, list[int]] = {name: [0, 0, 0]
                                            for name in SPAN_NAMES}
        #: one frame per open span or root: [ns covered by child spans]
        self.stack: list[list[int]] = []
        self.unattributed_ns = 0
        self._root_start = 0
        #: perf_counter at the earliest ``Simulator.run_until`` entry
        self.first_run_until: float | None = None
        #: trace length of the shard-parallel workload (0 until known)
        self.updates = 0
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self._pid = os.getpid()
        self._patch(parallel, "merge_shard_results", self._fold_shards)
        self._patch(Simulator, "run_until", self._stamp_run_until)
        if self.spans:
            for owner, attr, name in TARGETS:
                self._patch(owner, attr,
                            lambda fn, name=name: self._span(name, fn))
            for attr in ("at", "schedule", "wake_at"):
                self._patch(Simulator, attr, self._span_callbacks)
            gc.callbacks.append(self._on_gc)
        # Outermost, so a pool worker resets its tables before any span.
        self._patch(parallel, "_run_shard", self._probe_shard)
        return self

    def __exit__(self, *exc) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _span(self, name: str, fn):
        stats = self.stats[name]
        stack = self.stack
        clock = time.perf_counter_ns

        # A collection can only start inside a tracked-container
        # allocation; the one below (``frame``) precedes the start stamp,
        # so a pass never lands between a span's stamps and its frame pop.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
        return traced

    def _on_gc(self, phase: str, _info: dict) -> None:
        """``gc.callbacks`` hook: a collector pass is a span of its own."""
        if phase == "start":
            self.stack.append([0, time.perf_counter_ns()])
            return
        end = time.perf_counter_ns()
        frame = self.stack.pop()
        elapsed = end - frame[1]
        stats = self.stats[GC_SPAN]
        stats[0] += 1
        stats[1] += elapsed
        stats[2] += elapsed - frame[0]
        if self.stack:
            self.stack[-1][0] += elapsed

    def _span_callbacks(self, schedule):
        """Wrap a scheduling method so each callback runs in its phase's
        span; the action is the argument just before ``phase``."""
        action_at = 2 if schedule.__name__ == "wake_at" else 1
        spans = {phase: self._span(name, lambda action: action())
                 for phase, name in PHASE_SPANS.items()}

        @functools.wraps(schedule)
        def scheduled(sim, *args, **kwargs):
            args = list(args)
            phase = (args[action_at + 1] if len(args) > action_at + 1
                     else kwargs.get("phase", Phase.DEFAULT))
            action = args[action_at]
            span = spans[int(phase)]
            args[action_at] = lambda: span(action)
            return schedule(sim, *args, **kwargs)
        return scheduled

    def open_root(self) -> None:
        """Start a root interval: time in it outside spans is
        unattributed."""
        self.stack.append([0])
        self._root_start = time.perf_counter_ns()

    def close_root(self) -> None:
        elapsed = time.perf_counter_ns() - self._root_start
        frame = self.stack.pop()
        self.unattributed_ns += elapsed - frame[0]

    # ------------------------------------------------------------------
    # Shard plumbing
    # ------------------------------------------------------------------
    def _stamp_run_until(self, run_until):
        @functools.wraps(run_until)
        def stamped(sim, end_time):
            if self.first_run_until is None:
                self.first_run_until = time.perf_counter()
            return run_until(sim, end_time)
        return stamped

    def _probe_shard(self, run_shard):
        @functools.wraps(run_shard)
        def probed(task):
            if os.getpid() == self._pid:  # workers=1: the in-process loop
                result = run_shard(task)
                self.updates = len(_build_workload(task.workload).trace)
                return result
            # A forked pool worker: its copy of the tables holds the
            # parent's state at fork time and earlier tasks' spans.
            for stats in self.stats.values():
                stats[:] = [0, 0, 0]
            self.stack.clear()
            self.unattributed_ns = 0
            self.first_run_until = None
            self.open_root()
            result = run_shard(task)
            self.close_root()
            result.bench_trace = {
                "stats": {name: stats for name, stats in self.stats.items()
                          if stats[0]},
                "unattributed_ns": self.unattributed_ns,
                "first_run_until": self.first_run_until,
                "updates": len(_build_workload(task.workload).trace),
            }
            return result
        return probed

    def _fold_shards(self, merge):
        @functools.wraps(merge)
        def folded(shards, *args, **kwargs):
            for shard in shards:
                shipped = shard.__dict__.pop("bench_trace", None)
                if shipped is None:
                    continue
                for name, (calls, total, own) in shipped["stats"].items():
                    stats = self.stats[name]
                    stats[0] += calls
                    stats[1] += total
                    stats[2] += own
                self.unattributed_ns += shipped["unattributed_ns"]
                stamp = shipped["first_run_until"]
                if self.first_run_until is None or (
                        stamp is not None and stamp < self.first_run_until):
                    self.first_run_until = stamp
                self.updates = shipped["updates"]
            return merge(shards, *args, **kwargs)
        return folded

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------
    def layer_metrics(self, outputs: dict) -> dict[str, float]:
        """The per-layer table of one traced repeat, by metric name
        (everything but ``trace.overhead``, which needs untraced walls)."""
        metrics: dict[str, float] = {}
        for name in SPAN_NAMES:
            calls, _total, own = self.stats[name]
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = own / 1e9
        sends = self.stats["network.send_upstream"][0]
        metrics.update({
            "network.refreshes": outputs["refreshes"],
            "network.send_yield": (outputs["refreshes"] / sends
                                   if sends else 0.0),
            "network.queued_peak": outputs["queued_peak"],
            "cache.feedback_messages": outputs["feedback_messages"],
            "faults.dropped": outputs["dropped"],
            "faults.retransmitted": outputs["retransmitted"],
            "rebalance.migrations": outputs["migrations"],
            "trace.unattributed_s": self.unattributed_ns / 1e9,
        })
        return metrics
