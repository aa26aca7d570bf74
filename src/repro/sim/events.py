"""Event primitives for the discrete-event simulation kernel.

The kernel is deliberately small: a binary-heap priority queue of
:class:`Event` objects ordered by ``(time, phase, seq)``.  The *phase*
component gives deterministic intra-tick ordering (data updates happen
before network transmission, which happens before source decisions, and so
on -- see :class:`Phase`), and ``seq`` is a monotonically increasing
sequence number that breaks remaining ties in FIFO order so that runs are
fully reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import math
from enum import IntEnum
from typing import Callable


class Phase(IntEnum):
    """Intra-tick execution phases, ordered by when they run within a tick.

    The paper's simulation loop (Sec 6) has a natural causal order inside
    each one-second tick.  Encoding it as an explicit phase keeps results
    deterministic regardless of the order in which components were wired up.
    """

    UPDATES = 0  #: source data objects receive updates
    NETWORK = 1  #: links refill credit and drain their FIFO queues
    SOURCES = 2  #: sources make refresh decisions and send messages
    CACHE = 3  #: the cache measures utilization, sends feedback / polls
    METRICS = 4  #: metric accumulators take their per-tick samples
    DEFAULT = 5  #: anything that does not care about intra-tick ordering


class Event:
    """A scheduled callback: the handle :class:`EventQueue` returns.

    Events are created through :meth:`repro.sim.engine.Simulator.schedule`
    (not directly) and support O(1) cancellation: cancelled events stay in
    the heap but are skipped when popped.  The queue orders its entries;
    events themselves have no ordering.
    """

    __slots__ = ("time", "action", "cancelled", "_queue")

    def __init__(self, time: float, action: Callable[[], None],
                 queue: "EventQueue") -> None:
        self.time = time
        self.action = action
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Prevent this event from firing.  Safe to call more than once,
        also after the event left its queue."""
        if not self.cancelled and self._queue is not None:
            self._queue._live -= 1
        self.cancelled = True


class EventQueue:
    """A min-heap of :class:`Event` handles with lazy cancellation.

    Heap entries are ``(time, phase, seq, event)`` tuples; ``seq`` is
    unique, so heapq compares them in C and never reaches the event.

    Cancelled events are normally evicted only when they surface at the top
    of the heap.  Cancel/reschedule-heavy users (predictive sampling, the
    wakeup layer) can bury arbitrarily many dead events deep in the heap,
    so :meth:`push` compacts the heap -- filtering dead entries and
    re-heapifying -- whenever cancelled entries outnumber live ones.  That
    keeps memory proportional to the number of *live* events while staying
    amortized O(log n) per operation.
    """

    #: below this heap size compaction is not worth the bookkeeping
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    @property
    def heap_size(self) -> int:
        """Physical heap length, including not-yet-evicted cancelled events."""
        return len(self._heap)

    def push(self, time: float, phase: int,
             action: Callable[[], None]) -> Event:
        event = Event(time, action, self)
        heapq.heappush(self._heap,
                       (time, phase, next(self._counter), event))
        self._live += 1
        if (len(self._heap) >= self.COMPACT_MIN_SIZE
                and self._live * 2 < len(self._heap)):
            self._compact()
        return event

    def clear(self) -> None:
        """Drop every queued event and detach its action, so no event
        keeps its owner (or a cycle through it) alive."""
        for _, _, _, event in self._heap:
            event.action = None
            event._queue = None
        self._heap.clear()
        self._live = 0

    def _compact(self) -> None:
        """Evict every cancelled event and restore the heap invariant."""
        self._heap = [entry for entry in self._heap
                      if not entry[3].cancelled]
        heapq.heapify(self._heap)

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` when empty."""
        heap = self._heap
        # Cancelled events already decremented the live counter in
        # Event.cancel(); here we only evict them from the heap.
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def pop(self, until: float = math.inf) -> Event | None:
        """Remove and return the next live event due by ``until`` (or
        ``None``), detached: a late cancel cannot miscount it."""
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heapq.heappop(heap)
            elif entry[0] > until:
                return None
            else:
                heapq.heappop(heap)
                self._live -= 1
                event._queue = None
                return event
        return None


class WakeupSet:
    """Pending per-entity wakeup times, popped in deterministic order.

    The event-driven scheduling layer replaces "scan every entity every
    tick" loops with "wake exactly the entities that asked for it".  A
    ``WakeupSet`` holds at most one pending wakeup time per key (an entity
    id -- a source index, an object index, a cache id) on a lazy min-heap:

    * :meth:`arm` requests a wakeup no later than ``time`` (earliest wins,
      the right semantics for "several events each need me next tick");
    * :meth:`reschedule` unconditionally replaces the key's wakeup time
      (the right semantics for "my next sample moved later");
    * :meth:`pop_due` drains every key due by ``now`` and returns them in
      ascending key order -- exactly the order a full scan visits
      entities, which is what keeps event-driven runs bit-for-bit
      identical to the per-tick scan schedule.

    The host (usually a per-tick dispatcher ticker) decides *when* to call
    :meth:`pop_due`; the set itself never touches the event queue, so the
    simulator's ``(time, phase, seq)`` ordering is unaffected.
    """

    __slots__ = ("_times", "_heap")

    def __init__(self) -> None:
        self._times: dict = {}
        self._heap: list = []

    def __len__(self) -> int:
        return len(self._times)

    def __contains__(self, key) -> bool:
        return key in self._times

    def wake_time(self, key):
        """Pending wakeup time for ``key`` (``None`` when unarmed)."""
        return self._times.get(key)

    def arm(self, key, time) -> None:
        """Request a wakeup for ``key`` at ``time`` at the latest."""
        current = self._times.get(key)
        if current is not None and current <= time:
            return
        self._times[key] = time
        heapq.heappush(self._heap, (time, key))

    def reschedule(self, key, time) -> None:
        """Set ``key``'s wakeup to exactly ``time``, replacing any pending."""
        self._times[key] = time
        heapq.heappush(self._heap, (time, key))

    def peek_time(self):
        """Earliest pending wakeup time, or ``None`` when empty."""
        self._prune()
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now, eps: float = 0.0) -> list:
        """Remove and return all keys due by ``now + eps``, key-ascending."""
        due = []
        heap = self._heap
        limit = now + eps
        while heap:
            self._prune()
            if not heap or heap[0][0] > limit:
                break
            time, key = heapq.heappop(heap)
            del self._times[key]
            due.append(key)
        due.sort()
        return due

    def _prune(self) -> None:
        heap = self._heap
        while heap and self._times.get(heap[0][1]) != heap[0][0]:
            heapq.heappop(heap)
