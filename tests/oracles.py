"""Reference implementations the simulator's one execution path is pinned
against, kept for tests only.

The package runs every policy on one schedule: sources, caches and
steady source links wake per entity, and the replayers apply every trace
or read event up to the next foreign simulator event in one call.  The
paper's literal schedule -- scan everything every ``dt``, fire once per
event -- survives here as an oracle, so a test can run the same
configuration both ways and demand bit-identical results.

:func:`reference_schedule` patches the package for the duration of a
``with`` block:

* **scan** -- every source and every cache is visited each ``dt``: a
  cooperative source does its monitor's per-tick work (re-evaluate every
  object under a time-varying priority, sample every object whose
  deadline has come) and drains; a competitive source also accrues one
  tick of own credit and sends; a uniform source accrues one tick of
  credit and sends; the ideal policy drains every tick.  Every update
  re-prioritizes its object, then drains its cooperative source and
  re-arms it, with no skip rule.  The policies' own wakeup sets are
  armed as usual and never consulted;
* **eager links** -- every source row refills on every network tick
  (:func:`~repro.network.link.refill_credit`, the per-tick rule itself,
  after an accrual through ``profile.capacity``) instead of replaying
  the refills it skipped when touched;
* **per event** -- each replayer firing hands its applier a one-event
  slice (one trace update or one read), rescheduling through the
  simulator heap in between.

A new feature is checked against the literal schedule by running it
twice, once plainly and once inside ``with reference_schedule():``, and
comparing every output field (see ``tests/test_equivalence.py``).

:func:`each_event` adapts a per-event callback into a replayer's batch
applier, for tests that drive a :class:`TraceReplayer` by hand.

Two probes read out quantities the package computes inline on its hot
path: :func:`belief_priority` (a priority function evaluated on an
object's exact belief view, as a trigger monitor does) and
:func:`flood_factor` (the ``gamma`` a refresh multiplies the threshold
by on top of ``alpha``).

The module also holds the per-object scalar sampling loops the batched
samplers of :mod:`repro.workloads` were derived from; tests compare the
two bit for bit where their rng consumption coincides and statistically
where it does not.  And it holds :class:`ScalarCollector`, the divergence
collector that closes each object's piece the moment a record arrives,
which the logged collector's one fold must reproduce bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.threshold import ThresholdTable
from repro.core.tracking import PriorityTable
from repro.core.weights import StaticWeights
from repro.metrics.collector import DivergenceCollector
from repro.network.link import refill_credit
from repro.network.topology import Topology
from repro.policies.competitive import CompetitivePolicy
from repro.policies.cooperative import CooperativePolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.policies.uniform import UniformAllocationPolicy
from repro.source.monitor import SamplingMonitor, TriggerMonitor
from repro.source.source import SourceNode
from repro.workloads.read_process import ReadTrace
from repro.workloads.trace import TraceReplayer, UpdateTrace


# ----------------------------------------------------------------------
# The reference schedule
# ----------------------------------------------------------------------
def _cooperative_scan_sources(self, now: float) -> None:
    """Every source does its monitor's per-tick work and drains (a
    batching source's drain sends at most one batch)."""
    sources = self.sources
    tracker = sources.tracker
    objects = sources.objects
    for j in range(sources.num_sources):
        monitor = sources.monitors[j]
        if isinstance(monitor, SamplingMonitor):
            # Read each deadline where the wakeups keep it, never popping.
            deadlines = monitor._deadlines
            for index in sources.indices(j):
                if now + 1e-12 >= deadlines.wake_time(index):
                    monitor.sample(tracker, j, objects[index], now)
        elif monitor.priority_fn.time_varying:
            for index in sources.indices(j):
                monitor.on_update(tracker, j, objects[index], now)
        sources.drain(j, now)


def recompute_then_drain(sources, obj, now: float) -> bool:
    """The paper's literal per-update decision for ``obj``'s source:
    re-prioritize the object, then always drain."""
    j = obj.source_id
    sources.monitors[j].on_update(sources.tracker, j, obj, now)
    return sources.drain(j, now)


def _always_rearm(self, obj, now: float) -> None:
    """Every update re-arms its source."""
    self._rearm_source(obj.source_id, now, self.sources.on_update(obj, now))


def _competitive_scan_own_sends(self, now: float) -> None:
    """Every source accrues one tick of own credit, then sends."""
    dt = self._ctx.dt
    for j in range(self.sources.num_sources):
        if self.option in ("equal", "proportional"):
            rate_dt = self._own_rate[j] * dt
            self._own_credit[j] = min(self._own_credit[j] + rate_dt,
                                      max(1.0, rate_dt) + rate_dt)
        self._own_send_while_credit(j, now)


def _uniform_scan_sources(self, now: float) -> None:
    """Every source accrues one tick of credit and sends while it lasts."""
    dt = self._ctx.dt
    for j in range(self._ctx.workload.num_sources):
        # Bank capped at one tick's worth plus one message, mirroring the
        # links' burst cap.
        earned = self._rates[j] * dt
        self._credit[j] = min(self._credit[j] + earned,
                              max(1.0, earned) + earned)
        self._send_while_credit(j, now)


def _scan_caches(self, now: float) -> None:
    for cache in self.caches:
        cache.on_tick(now)


def _refill_source_rows(network_tick):
    """A network tick that also refills every source row by the per-tick
    rule and marks it synced, so no row ever replays a skipped refill."""
    def on_network_tick(self, now: float) -> None:
        network_tick(self, now)
        for j, profile in enumerate(self.source_profiles):
            credit = self._credit[j]
            earned = self._tick_added[j]
            last = self._last_accrue[j]
            if now > last:
                added = profile.capacity(last, now)
                self._last_accrue[j] = now
                credit += added
                earned += added
            self._credit[j] = refill_credit(credit, earned)[0]
            self._tick_added[j] = 0.0
            self._synced[j] = self._tick_no
    return on_network_tick


def _fire_one_event(self) -> None:
    """Hand the replayer's applier a one-event slice."""
    self._apply_through(self._cursor + 1)


def each_event(apply):
    """A replayer batch applier that hands ``apply`` one event at a time,
    as ``apply(time, index)`` or ``apply(time, index, value)``."""
    def apply_batch(*columns):
        for event in zip(*(column.tolist() for column in columns)):
            apply(*event)
    return apply_batch


@contextmanager
def reference_schedule(scan: bool = True, eager_links: bool = True,
                       per_event: bool = True):
    """Run every policy built and run inside the block on the literal
    schedule; each flag switches one of its three parts."""
    patches: list[tuple[type, str, object]] = []
    if scan:
        ideal_tick = IdealCooperativePolicy._on_tick

        def drain_every_tick(self, now: float) -> None:
            if self.priority_fn.time_varying:
                ideal_tick(self, now)
            else:
                self._drain(now)

        patches += [
            (SourceNode, "on_update", recompute_then_drain),
            (CooperativePolicy, "_on_update", _always_rearm),
            (CooperativePolicy, "_sources_tick", _cooperative_scan_sources),
            (CooperativePolicy, "_caches_tick", _scan_caches),
            (CompetitivePolicy, "_own_sends_tick",
             _competitive_scan_own_sends),
            (UniformAllocationPolicy, "_sources_tick", _uniform_scan_sources),
            (UniformAllocationPolicy, "_caches_tick", _scan_caches),
            (IdealCooperativePolicy, "_on_tick", drain_every_tick),
        ]
    if eager_links:
        patches.append((Topology, "on_network_tick", _refill_source_rows(
            Topology.__dict__["on_network_tick"])))
    if per_event:
        patches.append((TraceReplayer, "_fire", _fire_one_event))
    saved = [(owner, name, owner.__dict__[name])
             for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def belief_priority(priority_fn, obj, now: float,
                    weight: float = 1.0) -> float:
    """``priority_fn``'s weighted priority of ``obj`` at ``now``, from its
    exact belief view: what a trigger monitor evaluates on an update."""
    weights = StaticWeights(np.full(obj.index + 1, float(weight)))
    monitor = TriggerMonitor(priority_fn, weights)
    return monitor.on_update(PriorityTable(), 0, obj, now)


def flood_factor(thresholds, now: float, row: int = 0) -> float:
    """The ``gamma`` a refresh of ``row`` at ``now`` would apply on top
    of ``alpha`` (below ``THRESHOLD_CEIL``), read off a one-row probe
    copying that row (``thresholds`` is left untouched)."""
    probe = ThresholdTable(1, initial=1.0, alpha=1.0,
                           feedback_period=thresholds.period[row],
                           feedback_ttl=thresholds.feedback_ttl)
    probe.last_feedback[0] = thresholds.last_feedback[row]
    probe.on_refresh(0, now)
    return probe.value[0]


# ----------------------------------------------------------------------
# The scalar divergence collector
# ----------------------------------------------------------------------
class ScalarCollector(DivergenceCollector):
    """:class:`DivergenceCollector` with every record integrated at once.

    Each record closes its object's current piece in scalar arithmetic;
    the batched entry point is a loop of records.  Nothing is ever
    logged, so the inherited :meth:`resample` and readers see the same
    state the logged collector reaches after a fold.
    """

    def record(self, index: int, now: float, divergence: float) -> None:
        last = self._last_time[index]
        lo = last if last > self.warmup else self.warmup
        hi = now if now > self.warmup else self.warmup
        if hi > lo:
            d = self._divergence[index]
            if d != 0.0:
                span = hi - lo
                self._unweighted_integral[index] += d * span
                self._weighted_integral[index] += (
                    d * self.weights.weight(index, lo) * span)
        self._last_time[index] = now
        self._divergence[index] = divergence
        if now > self._end:
            self._end = now

    def record_at(self, indices, times, divergences) -> None:
        for index, now, divergence in zip(indices, times, divergences):
            self.record(int(index), float(now), float(divergence))


# ----------------------------------------------------------------------
# Per-object scalar samplers
# ----------------------------------------------------------------------
def poisson_times(rate: float, horizon: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Event times of a Poisson process with intensity ``rate`` on
    ``[0, horizon)``: ``K ~ Poisson(rate * horizon)`` uniform points,
    sorted."""
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if rate == 0 or horizon == 0:
        return np.empty(0, dtype=float)
    count = rng.poisson(rate * horizon)
    times = rng.uniform(0.0, horizon, size=count)
    times.sort()
    return times


def bernoulli_tick_times(prob: float, horizon: float,
                         rng: np.random.Generator,
                         dt: float = 1.0) -> np.ndarray:
    """Ticks in ``(0, horizon]`` at which a Bernoulli(prob) trial succeeds
    (``prob = 1`` updates at every tick without drawing)."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {prob}")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    ticks = int(np.floor(horizon / dt))
    if ticks <= 0:
        return np.empty(0, dtype=float)
    tick_times = (np.arange(ticks, dtype=float) + 1.0) * dt
    if prob >= 1.0:
        return tick_times
    hits = rng.random(ticks) < prob
    return tick_times[hits]


def merge_event_streams(times_per_object: list[np.ndarray]
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-object event-time arrays into one time-sorted stream of
    ``(times, object_indices)``, ties broken by object index."""
    if not times_per_object:
        return np.empty(0, dtype=float), np.empty(0, dtype=np.int64)
    times = np.concatenate(times_per_object)
    indices = np.concatenate([
        np.full(len(t), i, dtype=np.int64)
        for i, t in enumerate(times_per_object)
    ])
    order = np.lexsort((indices, times))
    return times[order], indices[order]


def random_walk_values(num_updates: int, rng: np.random.Generator,
                       initial: float = 0.0,
                       step: float = 1.0) -> np.ndarray:
    """Values after each of ``num_updates`` +-``step`` moves from
    ``initial`` (the initial value itself is not included)."""
    if num_updates < 0:
        raise ValueError(f"num_updates must be >= 0, got {num_updates}")
    if num_updates == 0:
        return np.empty(0, dtype=float)
    steps = rng.choice((-step, step), size=num_updates)
    return initial + np.cumsum(steps)


def random_walk_rates(num_breakpoints: int, rng: np.random.Generator,
                      mean_rate: float, step_frac: float = 0.1,
                      lo_frac: float = 0.25,
                      hi_frac: float = 2.0) -> np.ndarray:
    """Bounded random-walk rates, one ``rng.uniform`` draw per breakpoint."""
    if num_breakpoints < 1:
        raise ValueError(
            f"num_breakpoints must be >= 1, got {num_breakpoints}")
    if mean_rate <= 0:
        raise ValueError(f"mean_rate must be > 0, got {mean_rate}")
    if step_frac <= 0:
        raise ValueError(f"step_frac must be > 0, got {step_frac}")
    if not 0.0 <= lo_frac < hi_frac:
        raise ValueError(
            f"need 0 <= lo_frac < hi_frac, got [{lo_frac}, {hi_frac}]")
    lo, hi = lo_frac * mean_rate, hi_frac * mean_rate
    step = step_frac * mean_rate
    rates = np.empty(num_breakpoints, dtype=float)
    rate = float(mean_rate)
    for k in range(num_breakpoints):
        rates[k] = rate
        rate = min(max(rate + rng.uniform(-step, step), lo), hi)
    return rates


def per_object_trace(times_per_object: list[np.ndarray],
                     rng: np.random.Generator,
                     num_objects: int) -> UpdateTrace:
    """A random-walk trace from per-object update times: one walk draw per
    object, then a merge into trace order."""
    values_per_object = [random_walk_values(len(times), rng)
                         for times in times_per_object]
    times, indices = merge_event_streams(times_per_object)
    cursor = np.zeros(num_objects, dtype=np.int64)
    values = np.empty(len(times))
    for k in range(len(times)):
        obj = indices[k]
        values[k] = values_per_object[obj][cursor[obj]]
        cursor[obj] += 1
    return UpdateTrace(num_objects=num_objects, times=times,
                       object_indices=indices, values=values)


def per_object_reads(num_objects: int, horizon: float,
                     rng: np.random.Generator,
                     read_rate: float = 1.0) -> ReadTrace:
    """Poisson read streams drawn one object at a time."""
    times, indices = merge_event_streams([
        poisson_times(read_rate, horizon, rng) for _ in range(num_objects)])
    return ReadTrace(num_objects=num_objects, times=times,
                     object_indices=indices)
