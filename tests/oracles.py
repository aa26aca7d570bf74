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

* **scan** -- every source and every cache is visited each ``dt``.  The
  cooperative and competitive policies are forced onto the per-tick
  fallback they keep for time-varying priorities; the uniform policy's
  per-tick credit accrual loop and the ideal policy's every-tick drain
  live here;
* **eager links** -- every source link refills on every network tick
  instead of replaying skipped refills on first touch;
* **per event** -- each replayer firing applies one trace event or serves
  one read, rescheduling through the simulator heap in between.

A new feature is checked against the literal schedule by running it
twice, once plainly and once inside ``with reference_schedule():``, and
comparing every output field (see ``tests/test_equivalence.py``).

The module also holds the per-object scalar sampling loops the batched
samplers of :mod:`repro.workloads` were derived from; tests compare the
two bit for bit where their rng consumption coincides and statistically
where it does not.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.network.topology import Topology
from repro.policies.ideal import IdealCooperativePolicy
from repro.policies.uniform import UniformAllocationPolicy
from repro.source.monitor import PriorityMonitor
from repro.workloads.read_process import ReadReplayer, ReadTrace
from repro.workloads.trace import TraceReplayer, UpdateTrace


# ----------------------------------------------------------------------
# The reference schedule
# ----------------------------------------------------------------------
def _monitor_classes(cls=PriorityMonitor):
    yield cls
    for sub in cls.__subclasses__():
        yield from _monitor_classes(sub)


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


def _all_links_eager(self) -> None:
    for link in self.source_links:
        link.lazy = False
    self._eager_source_links = list(self.source_links)


def _fire_one_update(self) -> None:
    trace = self._trace
    k = self._cursor
    self._apply(float(trace.times[k]), int(trace.object_indices[k]),
                float(trace.values[k]))
    self._cursor += 1
    self._schedule_next()


def _fire_one_read(self) -> None:
    trace = self._trace
    k = self._cursor
    self._on_read(float(trace.times[k]), int(trace.object_indices[k]))
    self._cursor += 1
    self._schedule_next()


@contextmanager
def reference_schedule(scan: bool = True, eager_links: bool = True,
                       per_event: bool = True):
    """Run every policy built and run inside the block on the literal
    schedule; each flag switches one of its three parts."""
    patches: list[tuple[type, str, object]] = []
    if scan:
        tick = property(lambda self: True)
        patches += [(cls, "wants_tick", tick) for cls in _monitor_classes()
                    if "wants_tick" in cls.__dict__]
        ideal_tick = IdealCooperativePolicy._on_tick

        def drain_every_tick(self, now: float) -> None:
            if self.priority_fn.time_varying:
                ideal_tick(self, now)
            else:
                self._drain(now)

        patches += [
            (UniformAllocationPolicy, "_sources_tick", _uniform_scan_sources),
            (UniformAllocationPolicy, "_caches_tick", _scan_caches),
            (IdealCooperativePolicy, "_on_tick", drain_every_tick),
        ]
    if eager_links:
        patches.append((Topology, "_classify_links", _all_links_eager))
    if per_event:
        patches += [(TraceReplayer, "_fire", _fire_one_update),
                    (ReadReplayer, "_fire", _fire_one_read)]
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
