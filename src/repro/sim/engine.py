"""The discrete-event simulation engine.

:class:`Simulator` owns the clock and the event queue.  Components schedule
one-shot callbacks (:meth:`Simulator.schedule` / :meth:`Simulator.at`) or
recurring per-tick work (:meth:`Simulator.every`).  Time is continuous; the
conventional experiment setup registers tickers with ``interval=dt`` so the
simulation behaves like the paper's one-second-granularity simulator while
still allowing updates at exact (non-integer) event times.
"""

from __future__ import annotations

import contextlib
import gc
import math
from typing import Callable, Iterator

from repro.sim.events import Event, EventQueue, Phase


class SimulationError(RuntimeError):
    """Raised for scheduling mistakes, e.g. scheduling into the past."""


#: Nesting depth of :func:`gc_paused` blocks and the GC state observed by
#: the outermost one.  Parallel workers wrap whole cell functions in
#: ``gc_paused()`` while ``run_policy`` wraps the run inside them, so the
#: context manager must be reentrant: only the outermost exit may restore
#: collection (per process; worker processes each carry their own state).
_gc_pause_depth = 0
_gc_was_enabled = False


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a bounded stretch of work.

    Building and running a simulation allocates millions of small,
    mostly-acyclic objects (events, messages, data objects); the
    generational collector re-scans that entire live graph every few
    thousand allocations, which at m ~ 10^5 costs more wall clock than
    the simulation itself.  Pausing collection (not reference counting --
    plain garbage is still freed instantly) trades a bounded amount of
    memory headroom for that scan time; the previous GC state is restored
    even on exceptions, and any cycles created meanwhile are collected on
    the first automatic pass after the block exits.

    Reentrant: nested blocks are counted, and collection is re-enabled
    only when the block that actually disabled it exits -- an inner block
    exiting must not resume GC underneath a still-running outer block.
    """
    global _gc_pause_depth, _gc_was_enabled
    if _gc_pause_depth == 0:
        _gc_was_enabled = gc.isenabled()
        gc.disable()
    _gc_pause_depth += 1
    try:
        yield
    finally:
        _gc_pause_depth -= 1
        if _gc_pause_depth == 0 and _gc_was_enabled:
            gc.enable()


class Ticker:
    """A recurring task created by :meth:`Simulator.every`.

    The callback receives the current simulation time.  A ticker fires
    until its simulator is closed.
    """

    __slots__ = ("interval", "phase", "action", "_sim")

    def __init__(self, sim: "Simulator", interval: float, phase: int,
                 action: Callable[[float], None], start: float):
        # Negated comparisons here and below, so a NaN fails them too.
        if not interval > 0:
            raise SimulationError(f"ticker interval must be > 0, got {interval}")
        self.interval = interval
        self.phase = phase
        self.action = action
        self._sim = sim
        sim.at(start, self._fire, phase=phase)

    def _fire(self) -> None:
        self.action(self._sim.now)
        self._sim.at(self._sim.now + self.interval, self._fire,
                     phase=self.phase)


class Simulator:
    """Discrete-event simulator with phased intra-tick ordering.

    Example::

        sim = Simulator()
        sim.every(1.0, lambda t: print("tick", t), phase=Phase.METRICS)
        sim.schedule(0.5, lambda: print("one-shot at t=0.5"))
        sim.run_until(3.0)
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._queue = EventQueue()
        self._wakeups: dict[tuple[int, object], Event] = {}
        self._wakeup_actions: dict[tuple[int, object],
                                   Callable[[], None]] = {}
        #: end time of the innermost :meth:`run_until` in progress
        #: (``inf`` outside one).  Batched replayers use it to avoid
        #: applying trace events the per-event schedule would never reach.
        self.run_horizon: float = math.inf

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, action: Callable[[], None],
                 phase: int = Phase.DEFAULT) -> Event:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if not delay >= 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self.now + delay, phase, action)

    def at(self, time: float, action: Callable[[], None],
           phase: int = Phase.DEFAULT) -> Event:
        """Schedule ``action`` at an absolute simulation time."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at t={time} < now={self.now}")
        return self._queue.push(time, phase, action)

    def every(self, interval: float, action: Callable[[float], None],
              phase: int = Phase.DEFAULT, start: float | None = None) -> Ticker:
        """Schedule ``action(now)`` every ``interval``, starting at ``start``.

        ``start`` defaults to ``now + interval`` (first firing one interval
        in), which is the right default for per-tick bookkeeping that should
        observe a full tick's worth of activity.
        """
        if start is None:
            start = self.now + interval
        return Ticker(self, interval, phase, action, start)

    def wake_at(self, key, time: float, action: Callable[[], None],
                phase: int = Phase.DEFAULT) -> Event:
        """Schedule or *reschedule* a per-entity timer.

        At most one pending wakeup exists per ``(phase, key)``: calling
        ``wake_at`` again moves the timer (the previous event is
        cancelled), which is the natural API for entities whose next
        deadline keeps changing -- a source's projected threshold
        crossing, an object's next predictive sample.  The timer fires as
        an ordinary event, so the ``(time, phase, seq)`` ordering
        guarantees apply; entities that must preserve a relative order
        *within* one phase and timestamp should share a dispatcher built
        on :class:`repro.sim.events.WakeupSet` instead.

        Rescheduling at the timer's *current* deadline replaces the
        callback but keeps the already-queued event (and hence its
        position in the same-timestamp FIFO order): the action is looked
        up at fire time, never captured at scheduling time.
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot wake at t={time} < now={self.now}")
        handle = (int(phase), key)
        self._wakeup_actions[handle] = action
        existing = self._wakeups.get(handle)
        if existing is not None and not existing.cancelled:
            if existing.time == time:
                return existing
            existing.cancel()

        def fire() -> None:
            if self._wakeups.get(handle) is event:
                del self._wakeups[handle]
                self._wakeup_actions.pop(handle)()
            # A replaced timer never runs a stale action: the handle now
            # maps to the replacement event, which owns the action.

        event = self._queue.push(time, phase, fire)
        self._wakeups[handle] = event
        return event

    def cancel_wake(self, key, phase: int = Phase.DEFAULT) -> None:
        """Cancel a pending :meth:`wake_at` timer (no-op if none)."""
        handle = (int(phase), key)
        event = self._wakeups.pop(handle, None)
        if event is not None:
            event.cancel()
        self._wakeup_actions.pop(handle, None)

    @property
    def pending_wakeups(self) -> int:
        """Number of live :meth:`wake_at` timers."""
        return sum(1 for event in self._wakeups.values()
                   if not event.cancelled)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def next_event_time(self) -> float | None:
        """Time of the next queued live event (``None`` when idle).

        Inside an event's action this is the *foreign-event boundary*: the
        running event is already off the heap, so a batched replayer sees
        exactly the earliest timestamp anyone else is scheduled for.
        """
        return self._queue.peek_time()

    def step(self) -> bool:
        """Execute the single next event.  Returns ``False`` when idle."""
        event = self._queue.pop()
        if event is None:
            return False
        self.now = event.time
        event.action()
        return True

    def run_until(self, end_time: float) -> None:
        """Run all events with ``time <= end_time``; leave ``now = end_time``.

        Events scheduled exactly at ``end_time`` *do* execute, so a ticker
        with interval 1 run until ``t=100`` fires 100 times.  While the
        loop runs, :attr:`run_horizon` holds ``end_time`` so batched
        replayers never apply trace events past the cut-off the per-event
        schedule would respect.
        """
        pop = self._queue.pop
        previous_horizon = self.run_horizon
        self.run_horizon = end_time
        try:
            while (event := pop(end_time)) is not None:
                self.now = event.time
                event.action()
        finally:
            self.run_horizon = previous_horizon
        self.now = max(self.now, end_time)

    def close(self) -> None:
        """Drop every scheduled callback; the simulator cannot run again.

        Queued events and wakeups are what tie a finished run's object
        graph into cycles (an event's action reaches back to its owner,
        which holds the event; a ticker lives in its next queued event).
        Dropping them lets the graph be freed by reference counting
        instead of by a cyclic GC pass.
        """
        self._queue.clear()
        self._wakeups.clear()
        self._wakeup_actions.clear()

    @property
    def pending_events(self) -> int:
        """Number of live (not-yet-cancelled) events in the queue."""
        return len(self._queue)
