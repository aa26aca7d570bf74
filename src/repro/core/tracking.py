"""Lazy max-heap priority tracking (paper Sec 8).

"Sources can maintain a priority queue so that the highest-priority updated
object can be located quickly whenever spare bandwidth becomes available."

Priorities (for the non-time-varying functions) change only when an object
is updated, so a *lazy* heap is exact: every priority change pushes a new
entry stamped with a per-object version number, and stale entries are
discarded on pop.  Objects whose priority is zero (freshly refreshed, or
fresh under the staleness metric) are kept out of the heap entirely.

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

#: Pushes a heap takes beyond its live entries before a rebuild (keeps
#: tiny queues from rebuilding all the time).
_SLACK = 64


class PriorityTracker:
    """Tracks ``index -> priority`` with O(log n) max extraction."""

    __slots__ = ("_heap", "_priority", "_version", "_room")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int]] = []  # (-priority, ver, idx)
        self._priority: dict[int, float] = {}
        self._version: dict[int, int] = {}
        self._room = _SLACK  #: pushes left before the next rebuild

    def __len__(self) -> int:
        return len(self._priority)

    def __contains__(self, index: int) -> bool:
        return index in self._priority

    def get(self, index: int) -> float:
        """Current priority of ``index`` (0 when untracked)."""
        return self._priority.get(index, 0.0)

    def update(self, index: int, priority: float) -> None:
        """Set the priority of ``index``; zero/negative removes it."""
        version = self._version.get(index, 0) + 1
        self._version[index] = version
        if priority <= 0.0:
            self._priority.pop(index, None)
            return
        self._priority[index] = priority
        heapq.heappush(self._heap, (-priority, version, index))
        self._room -= 1
        if not self._room:
            self._rebuild()

    def _rebuild(self) -> None:
        """Keep only the live entries (see the module docstring)."""
        versions = self._version
        heap = [(-priority, versions[index], index)
                for index, priority in self._priority.items()]
        heapq.heapify(heap)
        self._heap = heap
        self._room = len(heap) + _SLACK

    def remove(self, index: int) -> None:
        """Drop ``index`` from the queue (e.g. after refreshing it)."""
        self._version[index] = self._version.get(index, 0) + 1
        self._priority.pop(index, None)

    def peek(self) -> tuple[int, float] | None:
        """Highest-priority ``(index, priority)`` without removing it.

        Stale heap entries (superseded versions, removed indices) met at
        the top are discarded on the way.
        """
        heap = self._heap
        versions = self._version
        while heap:
            neg_priority, version, index = heap[0]
            if versions[index] == version and index in self._priority:
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
        return list(self._priority.items())
