"""Priority monitoring at the sources (paper Sec 8).

A monitor tells its policy when to wake its source
(:meth:`PriorityMonitor.next_wake_time`) and does the woken source's
monitoring work (:meth:`PriorityMonitor.on_wake`); the policy's wakeup
dispatcher is the only schedule.  Two implementations:

* :class:`TriggerMonitor` -- exact: priority is recomputed whenever an
  update occurs (Sec 8.2 shows priority can only change on updates for
  non-time-varying priority functions), so it asks for no wakeup; under
  a time-varying priority (Sec 9's bound) it asks for every dispatcher
  fire and re-evaluates every object.  Requires triggers or equivalent
  change capture at the source.
* :class:`SamplingMonitor` -- approximate (Sec 8.2.1): the source samples
  each object's divergence periodically (woken at the earliest per-object
  deadline), estimates the divergence integral
  by the midpoint rule ("each sampled value can be assumed to have been
  active during the period beginning and ending halfway between successive
  samples"), and hands the sampled divergence, that integral and the time
  since the last refresh to the priority function.  Under the area
  priority it can optionally schedule the *next* sample predictively at
  the time the priority is projected to reach the refresh threshold:

      t_future = t_last + sqrt((t_now - t_last)^2
                               + 2 (T - P(O, t_now)) / (rho_i W(O, t_now)))

  with ``rho_i`` the estimated divergence rate.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.core.divergence import DivergenceMetric
from repro.core.objects import DataObject
from repro.core.priority import PriorityFunction
from repro.core.tracking import PriorityTracker
from repro.core.weights import WeightModel
from repro.sim.events import WakeupSet

#: Shortest delay a predictive sampling monitor schedules, in seconds.
MIN_SAMPLING_INTERVAL = 1.0


class PriorityMonitor(ABC):
    """Keeps a source's :class:`PriorityTracker` up to date.

    The owning policy wakes the source through its wakeup dispatcher:
    after every interaction it arms the source at :meth:`next_wake_time`,
    and a woken source calls :meth:`on_wake` before it drains.  A monitor
    never calls back into the engine itself.
    """

    __slots__ = ("tracker", "priority_fn", "weights")

    def __init__(self, tracker: PriorityTracker,
                 priority_fn: PriorityFunction,
                 weights: WeightModel) -> None:
        self.tracker = tracker
        self.priority_fn = priority_fn
        self.weights = weights

    @abstractmethod
    def on_update(self, obj: DataObject, now: float) -> float:
        """An update was applied to ``obj``; returns ``obj``'s priority as
        this monitor now tracks it (0.0 when it does not see updates)."""

    def prime(self, obj_list: list[DataObject]) -> None:
        """Install the initial wakeup state for the source's objects."""

    def next_wake_time(self) -> float | None:
        """Earliest time this monitor needs its source woken (or ``None``)."""
        return None

    def on_wake(self, source, now: float) -> None:
        """Re-evaluate the objects that are due at this dispatcher fire."""

    def on_refresh_sent(self, obj: DataObject, now: float) -> None:
        """``obj`` was refreshed; drop it from the queue."""
        self.tracker.remove(obj.index)


class TriggerMonitor(PriorityMonitor):
    """Exact monitoring via update triggers (the paper's default).

    Priorities move only on updates (Sec 8.2), so the monitor never asks
    for a wakeup -- except under a time-varying priority function (the
    Sec 9 bound), which grows every object's priority every tick, even a
    synchronized one's: the monitor then asks to be woken at every
    dispatcher fire and re-evaluates all of its objects.
    """

    __slots__ = ()

    def on_update(self, obj: DataObject, now: float) -> float:
        """Re-evaluate ``obj`` from its exact belief view at ``now``.

        The operands are the belief's divergence, its integral since the
        last refresh (the accrued part plus the current piece) and the
        time since the last refresh.
        """
        view = obj.belief
        divergence = view.divergence
        priority = self.priority_fn.priority(
            obj, divergence,
            view.integral_acc + divergence * (now - view.last_change_time),
            now - view.last_refresh_time,
            self.weights.weight(obj.index, now))
        self.tracker.update(obj.index, priority)
        return priority

    def next_wake_time(self) -> float | None:
        return 0.0 if self.priority_fn.time_varying else None

    def on_wake(self, source, now: float) -> None:
        if self.priority_fn.time_varying:
            for obj in source.objects:
                self.on_update(obj, now)


class SamplingMonitor(PriorityMonitor):
    """Sampling-based monitoring for sources without update triggers.

    Parameters
    ----------
    metric:
        Divergence metric to evaluate on each sample.
    interval:
        Regular sampling interval per object.
    predictive:
        When True and a threshold getter is provided, the next sample of an
        object is scheduled at the projected threshold-crossing time
        (clamped to ``[MIN_SAMPLING_INTERVAL, interval]``).  The
        projection solves the area priority's formula, so the owning
        policy pairs it with :class:`~repro.core.priority.AreaPriority`
        only.
    threshold:
        Zero-argument callable returning the source's current refresh
        threshold (used only for predictive scheduling).
    """

    __slots__ = ("metric", "interval", "predictive",
                 "threshold", "samples_taken", "_last_sample_time",
                 "_last_sample_div", "_est_integral", "_deadlines")

    def __init__(self, tracker: PriorityTracker,
                 priority_fn: PriorityFunction, weights: WeightModel,
                 metric: DivergenceMetric, interval: float,
                 predictive: bool = False,
                 threshold=None) -> None:
        super().__init__(tracker, priority_fn, weights)
        if interval <= 0:
            raise ValueError(f"sampling interval must be > 0, got {interval}")
        self.metric = metric
        self.interval = interval
        self.predictive = predictive
        self.threshold = threshold
        self.samples_taken = 0
        # Per-object estimator state, keyed by object index.
        self._last_sample_time: dict[int, float] = {}
        self._last_sample_div: dict[int, float] = {}
        self._est_integral: dict[int, float] = {}
        # Each object's next sample time, on a heap, so a woken source
        # touches only the objects that are due.
        self._deadlines = WakeupSet()

    # ------------------------------------------------------------------
    # Monitor interface
    # ------------------------------------------------------------------
    def on_update(self, obj: DataObject, now: float) -> float:
        # A sampling source does not see individual updates.
        return 0.0

    def on_refresh_sent(self, obj: DataObject, now: float) -> None:
        super().on_refresh_sent(obj, now)
        index = obj.index
        self._last_sample_time[index] = now
        self._last_sample_div[index] = 0.0
        self._est_integral[index] = 0.0
        self._deadlines.reschedule(index, now + self.interval)

    def prime(self, obj_list: list[DataObject]) -> None:
        """Arm every object's first sample at time 0 (due at once)."""
        for obj in obj_list:
            self._deadlines.reschedule(obj.index, 0.0)

    def next_wake_time(self) -> float | None:
        return self._deadlines.peek_time()

    def on_wake(self, source, now: float) -> None:
        """Sample exactly the objects whose deadline has arrived.

        ``pop_due`` returns indices ascending, the order a scan of every
        object visits the due ones, with a ``1e-12`` slack on the
        deadline comparison.
        """
        objects = source.objects
        first = source.first_index
        for index in self._deadlines.pop_due(now, eps=1e-12):
            self.sample(objects[index - first], now)

    # ------------------------------------------------------------------
    # Sampling machinery
    # ------------------------------------------------------------------
    def sample(self, obj: DataObject, now: float) -> None:
        """Take one divergence sample of ``obj`` and update its priority."""
        index = obj.index
        view = obj.belief
        divergence = self.metric.compute(
            obj.value, view.reference_value,
            obj.update_count - view.reference_count)
        last_t = self._last_sample_time.get(index, view.last_refresh_time)
        last_d = self._last_sample_div.get(index, 0.0)
        integral = self._est_integral.get(index, 0.0)
        # Midpoint attribution: each sample's value is active from halfway
        # since the previous sample to halfway until the next; telescoping
        # over samples this equals the trapezoid rule used here.
        integral += 0.5 * (last_d + divergence) * (now - last_t)
        self._last_sample_time[index] = now
        self._last_sample_div[index] = divergence
        self._est_integral[index] = integral
        self.samples_taken += 1

        weight = self.weights.weight(index, now)
        priority = self.priority_fn.priority(
            obj, divergence, integral, now - view.last_refresh_time, weight)
        self.tracker.update(index, priority)
        self._deadlines.reschedule(index, now + self._next_delay(
            obj, priority, divergence, last_t, last_d, now, weight))

    def _next_delay(self, obj: DataObject, priority: float,
                    divergence: float, last_t: float, last_d: float,
                    now: float, weight: float) -> float:
        if not self.predictive or self.threshold is None:
            return self.interval
        threshold = self.threshold()
        if priority >= threshold:
            return MIN_SAMPLING_INTERVAL
        elapsed_since_last = now - last_t
        if elapsed_since_last <= 0:
            return self.interval
        rho = (divergence - last_d) / elapsed_since_last
        if rho <= 0 or weight <= 0:
            return self.interval
        t_last = obj.belief.last_refresh_time
        radicand = ((now - t_last) ** 2
                    + 2.0 * (threshold - priority) / (rho * weight))
        if radicand < 0:
            return MIN_SAMPLING_INTERVAL
        t_future = t_last + math.sqrt(radicand)
        return min(max(t_future - now, MIN_SAMPLING_INTERVAL),
                   self.interval)
