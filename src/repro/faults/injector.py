"""The runtime half of fault injection: deterministic delivery drops.

A :class:`FaultInjector` is installed on a topology (see
:meth:`repro.network.topology.Topology.install_faults`) and consulted at
every *delivery* point -- after link credit has been consumed and the
send counters bumped, exactly where a message addressed to an unwired
receiver would silently disappear.  That placement is the fault model:
a dropped message cost real bandwidth, like a packet lost on the wire,
so loss degrades goodput rather than magically refunding capacity.

Determinism: each (direction, cache) delivery stream keeps its own
attempt counter, and every drop decision is ``hash01(seed, direction,
cache, counter) < p``.  The per-stream delivery sequences are pinned
bit-for-bit identical to the reference schedule of the tests (per-tick
scan, per-event replay), so the drop pattern -- and therefore the whole
faulty run -- is too.  The counter advances on *every* delivery, matched or not, so
adding a loss window later in the run cannot shift earlier draws.
"""

from __future__ import annotations

from typing import Callable

from repro.faults.plan import FaultPlan, hash01
from repro.network.messages import Message

#: Direction codes keying the per-stream counters and hash draws.
_UPSTREAM = 0
_DOWNSTREAM = 1


class FaultInjector:
    """Applies one :class:`FaultPlan` to a topology's delivery paths."""

    __slots__ = ("plan", "clock", "dropped_upstream", "dropped_downstream",
                 "dropped_crash", "_counts", "_up_rules", "_down_rules")

    def __init__(self, plan: FaultPlan,
                 clock: Callable[[], float]) -> None:
        self.plan = plan
        self.clock = clock
        self.dropped_upstream = 0
        self.dropped_downstream = 0
        #: in-flight messages lost when a crash cleared a cache FIFO
        self.dropped_crash = 0
        self._counts: dict[tuple[int, int], int] = {}
        self._up_rules = tuple(r for r in plan.loss
                               if r.direction in ("upstream", "both"))
        self._down_rules = tuple(r for r in plan.loss
                                 if r.direction in ("downstream", "both"))

    @property
    def dropped(self) -> int:
        """All deliveries suppressed by this injector."""
        return (self.dropped_upstream + self.dropped_downstream
                + self.dropped_crash)

    def _next_count(self, direction: int, cache_id: int) -> int:
        key = (direction, cache_id)
        count = self._counts.get(key, 0)
        self._counts[key] = count + 1
        return count

    def _drop(self, rules, direction: int, cache_id: int,
              source_id: int, now: float, count: int) -> bool:
        # Combine overlapping windows as independent loss processes:
        # survival is the product of per-rule keep probabilities.
        keep = 1.0
        for rule in rules:
            if rule.matches(now, cache_id, source_id):
                keep *= 1.0 - rule.probability
        if keep >= 1.0:
            return False
        return hash01(self.plan.seed, direction, cache_id, count) >= keep

    def allow_upstream(self, message: Message, cache_id: int) -> bool:
        """Fate of one source -> cache delivery (False = dropped)."""
        count = self._next_count(_UPSTREAM, cache_id)
        if self._drop(self._up_rules, _UPSTREAM, cache_id,
                      message.source_id, self.clock(), count):
            self.dropped_upstream += 1
            return False
        return True

    def allow_downstream(self, cache_id: int, source_id: int) -> bool:
        """Fate of one cache -> source delivery (False = dropped)."""
        count = self._next_count(_DOWNSTREAM, cache_id)
        if self._drop(self._down_rules, _DOWNSTREAM, cache_id, source_id,
                      self.clock(), count):
            self.dropped_downstream += 1
            return False
        return True
