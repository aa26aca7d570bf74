"""Lazy max-heap priority tracking (paper Sec 8).

"Sources can maintain a priority queue so that the highest-priority updated
object can be located quickly whenever spare bandwidth becomes available."

Priorities (for the non-time-varying functions) change only when an object
is updated, so a *lazy* heap is exact: every priority change pushes a new
entry stamped with a per-object version number, and stale entries are
discarded on pop.  Objects whose priority is zero (freshly refreshed, or
fresh under the staleness metric) are kept out of the heap entirely.

One :class:`PriorityTable` holds every queue of a policy, one *row* per
queue: a cooperative policy has a row per source, the ideal scheduler one
row for its global queue.  A row's heap list is allocated on its first
push and released when it empties, so a row with nothing queued costs
two list slots, whether or not it ever saw an update: at the end of
``sparse-star-100k`` 312 of its 10^5 rows hold a list.

The versions live in one store indexed by global object index that every
row shares (an object belongs to one row): a list of ``num_objects``
zeros costs 8 B per object, however many objects a row has seen.  A
stored version ``v > 0`` means the object is tracked and its one live
heap entry carries ``v``; ``v <= 0`` means it is untracked and ``-v`` was
its last version.  So an entry is live exactly when its version matches
the store, and the table needs no priority map: the live entry holds the
priority.

A stale entry leaves a heap only once it reaches the top, so a heap fed
one entry per update would grow with the updates, not with the tracked
objects (on ``dense-star-2k``, to 112k entries for 777 live ones).  So a
row's heap is rebuilt from its live entries alone once it has taken as
many pushes as it had live entries after the last rebuild, plus a slack
(the row's countdown column): it never holds more than about twice its
live entries, and each rebuild is paid for by the pushes before it.  A
rebuild keeps exactly the entries a pop could return, and entries are
unique ``(-priority, version, index)`` tuples popped in their total
order, so every peek and pop is unchanged by when stale entries leave.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heapify, heappop, heappush

#: Pushes a heap takes beyond its live entries before a rebuild (keeps
#: tiny queues from rebuilding all the time).
_SLACK = 64


class PriorityTable:
    """``rows`` queues of ``index -> priority``, O(log n) max extraction.

    ``versions`` is the shared version store (see the module docstring),
    e.g. ``[0] * num_objects``; a table built without one keeps a sparse
    store of its own, for any non-negative index.
    """

    __slots__ = ("_heaps", "_room", "_versions")

    def __init__(self, rows: int = 1,
                 versions: list[int] | None = None) -> None:
        #: per row: its heap of (-priority, version, index), or None
        #: until the row's first push
        self._heaps: list[list[tuple[float, int, int]] | None] = \
            [None] * rows
        #: per row: pushes left before the next rebuild
        self._room = [_SLACK] * rows
        self._versions = defaultdict(int) if versions is None else versions

    def __contains__(self, index: int) -> bool:
        return self._versions[index] > 0

    def get(self, row: int, index: int) -> float:
        """Current priority of ``index`` in ``row`` (0 when untracked);
        scans the row's heap for its live entry."""
        version = self._versions[index]
        for neg_priority, entry_version, entry_index in self._heaps[row] or ():
            if entry_index == index and entry_version == version:
                return -neg_priority
        return 0.0

    def update(self, row: int, index: int, priority: float) -> None:
        """Set the priority of ``index`` in ``row``; zero/negative
        removes it."""
        versions = self._versions
        stored = versions[index]
        version = (stored if stored > 0 else -stored) + 1
        if priority <= 0.0:
            versions[index] = -version
            return
        versions[index] = version
        heap = self._heaps[row]
        if heap is None:
            heap = self._heaps[row] = []
        heappush(heap, (-priority, version, index))
        room = self._room[row] - 1
        if room:
            self._room[row] = room
        else:
            self._rebuild(row)

    def _rebuild(self, row: int) -> None:
        """Keep only the row's live entries (see the module docstring)."""
        versions = self._versions
        heap = [entry for entry in self._heaps[row]
                if versions[entry[2]] == entry[1]]
        heapify(heap)
        self._heaps[row] = heap
        self._room[row] = len(heap) + _SLACK

    def remove(self, index: int) -> None:
        """Drop ``index`` from its queue (e.g. after refreshing it)."""
        stored = self._versions[index]
        if stored > 0:
            stored = -stored
        self._versions[index] = stored - 1

    def peek(self, row: int) -> tuple[int, float] | None:
        """Highest-priority ``(index, priority)`` of ``row`` without
        removing it.

        Stale heap entries (superseded versions, removed indices) met at
        the top are discarded on the way.
        """
        heap = self._heaps[row]
        if heap:
            versions = self._versions
            while heap:
                neg_priority, version, index = heap[0]
                if versions[index] == version:
                    return index, -neg_priority
                heappop(heap)
            self._heaps[row] = None
            self._room[row] = _SLACK
        return None

    def pop(self, row: int) -> tuple[int, float] | None:
        """Remove and return the highest-priority ``(index, priority)``."""
        top = self.peek(row)
        if top is not None:
            heap = self._heaps[row]
            heappop(heap)
            if not heap:
                self._heaps[row] = None
                self._room[row] = _SLACK
            self.remove(top[0])
        return top

    def items(self, row: int) -> list[tuple[int, float]]:
        """All tracked ``(index, priority)`` pairs of ``row`` (unsorted)."""
        versions = self._versions
        return [(index, -neg_priority)
                for neg_priority, version, index in self._heaps[row] or ()
                if versions[index] == version]
