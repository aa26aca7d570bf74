"""Lazy max-heap priority tracking (paper Sec 8).

"Sources can maintain a priority queue so that the highest-priority updated
object can be located quickly whenever spare bandwidth becomes available."

Priorities (for the non-time-varying functions) change only when an object
is updated, so a *lazy* heap is exact: every priority change pushes a new
entry stamped with a per-object version number, and stale entries are
discarded on pop.  Objects whose priority is zero (freshly refreshed, or
fresh under the staleness metric) are kept out of the heap entirely.

The versions live outside the tracker, in one store indexed by global
object index that every tracker of a policy shares (an object belongs to
one of them): a list of ``num_objects`` zeros costs 8 B per object and
nothing per tracker, however many objects it has seen.  A stored version ``v > 0`` means the object is tracked and its one live
heap entry carries ``v``; ``v <= 0`` means it is untracked and ``-v`` was
its last version.  So an entry is live exactly when its version matches
the store, and the tracker needs no priority map: the live entry holds
the priority.

A stale entry leaves the heap only once it reaches the top, so a heap fed
one entry per update would grow with the updates, not with the tracked
objects (on ``dense-star-2k``, to 112k entries for 777 live ones).  So
the heap is rebuilt from the live entries alone once it has taken as many
pushes as it had live entries after the last rebuild, plus a slack: it
never holds more than about twice its live entries, and each rebuild is
paid for by the pushes before it.  A rebuild keeps exactly the entries a
pop could return, so every peek and pop is unchanged.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

#: Pushes a heap takes beyond its live entries before a rebuild (keeps
#: tiny queues from rebuilding all the time).
_SLACK = 64


class PriorityTracker:
    """Tracks ``index -> priority`` with O(log n) max extraction.

    ``versions`` is the shared version store (see the module docstring),
    e.g. ``[0] * num_objects``; a tracker built without one keeps a
    sparse store of its own, for any non-negative index.
    """

    __slots__ = ("_heap", "_versions", "_room", "_live")

    def __init__(self, versions: list[int] | None = None) -> None:
        self._heap: list[tuple[float, int, int]] = []  # (-priority, ver, idx)
        self._versions = defaultdict(int) if versions is None else versions
        self._room = _SLACK  #: pushes left before the next rebuild
        self._live = 0  #: tracked objects

    def __len__(self) -> int:
        return self._live

    def __contains__(self, index: int) -> bool:
        return self._versions[index] > 0

    def get(self, index: int) -> float:
        """Current priority of ``index`` (0 when untracked); scans the
        heap for its live entry."""
        version = self._versions[index]
        for neg_priority, entry_version, entry_index in self._heap:
            if entry_index == index and entry_version == version:
                return -neg_priority
        return 0.0

    def update(self, index: int, priority: float) -> None:
        """Set the priority of ``index``; zero/negative removes it."""
        versions = self._versions
        stored = versions[index]
        tracked = stored > 0
        version = (stored if tracked else -stored) + 1
        if priority <= 0.0:
            versions[index] = -version
            self._live -= tracked
            return
        versions[index] = version
        self._live += not tracked
        heapq.heappush(self._heap, (-priority, version, index))
        self._room -= 1
        if not self._room:
            self._rebuild()

    def _rebuild(self) -> None:
        """Keep only the live entries (see the module docstring)."""
        versions = self._versions
        heap = [entry for entry in self._heap
                if versions[entry[2]] == entry[1]]
        heapq.heapify(heap)
        self._heap = heap
        self._room = len(heap) + _SLACK

    def remove(self, index: int) -> None:
        """Drop ``index`` from the queue (e.g. after refreshing it)."""
        stored = self._versions[index]
        if stored > 0:
            self._live -= 1
            stored = -stored
        self._versions[index] = stored - 1

    def peek(self) -> tuple[int, float] | None:
        """Highest-priority ``(index, priority)`` without removing it.

        Stale heap entries (superseded versions, removed indices) met at
        the top are discarded on the way.
        """
        heap = self._heap
        versions = self._versions
        while heap:
            neg_priority, version, index = heap[0]
            if versions[index] == version:
                return index, -neg_priority
            heapq.heappop(heap)
        return None

    def pop(self) -> tuple[int, float] | None:
        """Remove and return the highest-priority ``(index, priority)``."""
        top = self.peek()
        if top is not None:
            heapq.heappop(self._heap)
            self.remove(top[0])
        return top

    def items(self) -> list[tuple[int, float]]:
        """All tracked ``(index, priority)`` pairs (unsorted)."""
        versions = self._versions
        return [(index, -neg_priority)
                for neg_priority, version, index in self._heap
                if versions[index] == version]
