"""Optional reliable delivery: ack / timeout / retransmit for refreshes.

The paper's protocol is best-effort by design; this layer is the
engineering counterpoint the E12 experiment measures against it.  When a
:class:`RetryPolicy` is set on a run, every refresh (plain or batch)
that wins source-side credit is registered as *pending* with a fresh
per-source sequence number.  Delivery to the cache acts as the ack
(acks are modeled as free control traffic -- they are tiny compared to
the unit-size data messages the links account); a pending refresh whose
timeout fires is retransmitted through the ordinary
``Topology.send_upstream`` path, so retransmits consume real source and
cache link credit and can themselves queue, be dropped, or time out
again, with exponential backoff up to ``max_attempts`` total sends.

Duplicates (a retransmit racing an original that was merely queued, not
lost) are suppressed at delivery by per-``(source, seq)`` bookkeeping
before the cache ever sees them, making delivery effectively idempotent.

Retransmits carry the object's *current* value, not the stale wire
payload: the protocol synchronizes state, not a byte stream, and a real
source would never re-send data it has since overwritten.  (Without the
object table the layer falls back to re-sending the original snapshot.)

Determinism: timeout timers are ordinary simulator events scheduled at
send time, and sends happen at identical times in tick and event mode,
so the whole retransmit schedule is pinned alongside the rest of the
run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.network.messages import (
    BatchRefreshMessage,
    Message,
    RefreshMessage,
)
from repro.sim.events import Phase


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs for the reliable-delivery option.

    ``timeout`` is the wait before the first retransmit; each further
    attempt waits ``backoff`` times longer.  ``max_attempts`` bounds the
    *total* number of sends (original included), after which the refresh
    is abandoned -- best-effort again, just with more tries.
    """

    timeout: float = 4.0
    backoff: float = 2.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        # Negated comparisons, so a NaN fails them too.
        if not self.timeout > 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if not self.backoff >= 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if not self.max_attempts >= 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")


class _Pending:
    """In-flight state for one (source, seq) refresh."""

    __slots__ = ("snapshot", "targets", "delivered", "outstanding",
                 "attempts", "done", "timer")

    def __init__(self, snapshot: Message,
                 targets: tuple[int, ...]) -> None:
        self.snapshot = snapshot
        self.targets = targets
        self.delivered: set[int] = set()
        #: copies currently in flight (sent, neither delivered nor lost)
        self.outstanding = len(targets)
        self.attempts = 1  # sends so far, the original included
        self.done = False  # acked everywhere, or attempts exhausted
        self.timer = None


class ReliableDelivery:
    """Tracks pending refreshes and drives retransmissions.

    Bound to one topology via
    :meth:`~repro.network.topology.Topology.install_faults`; the
    topology calls :meth:`on_send` after a refresh wins source credit,
    and :meth:`on_delivered` / :meth:`on_lost` from its delivery guard.
    """

    def __init__(self, policy: RetryPolicy, sim, objects=None) -> None:
        self.policy = policy
        self.sim = sim
        #: global object table for fresh-value retransmits (may be None)
        self.objects = objects
        self.topology = None
        self.retransmitted = 0
        self.duplicate_suppressed = 0
        self.abandoned = 0
        self._pending: dict[tuple[int, int], _Pending] = {}
        #: each source's next sequence number, a column by source id
        self._next_seq: list[int] = []
        #: the sending policy's sources, when it registered them
        self._sources = None

    def bind(self, topology) -> None:
        self.topology = topology
        self._next_seq = [0] * topology.num_sources

    def register_sources(self, sources) -> None:
        """Let retransmits run the senders' full send bookkeeping.

        A policy whose :class:`~repro.source.source.SourceNode` runs its
        sources registers it here so a fresh-value retransmit also drops
        the object from its source's priority queue
        (``on_refresh_sent``) -- otherwise the stale queue entry would
        trigger a near-immediate duplicate refresh through the normal
        path, double-spending the source's credit on one object.
        """
        self._sources = sources

    @property
    def pending(self) -> int:
        """Refreshes currently awaiting ack or retransmit (telemetry)."""
        return sum(1 for entry in self._pending.values()
                   if not entry.done)

    # ------------------------------------------------------------------
    # Topology hooks
    # ------------------------------------------------------------------
    def on_send(self, message: Message) -> None:
        """A message consumed source credit and is entering cache links.

        Only refresh-family messages carry a ``seq`` slot; everything
        else (poll responses) stays best-effort.  ``seq == -1`` marks a
        fresh send: register it and arm the first timeout.  A non-
        negative seq is one of our own retransmits re-entering the
        network: just account the extra copies in flight.
        """
        seq = getattr(message, "seq", None)
        if seq is None:
            return
        targets = self.topology.caches_of(message.source_id)
        if seq >= 0:
            entry = self._pending.get((message.source_id, seq))
            if entry is not None:
                entry.outstanding += len(targets)
            return
        source_id = message.source_id
        seq = self._next_seq[source_id]
        self._next_seq[source_id] = seq + 1
        message.seq = seq
        entry = _Pending(message, targets)
        key = (source_id, seq)
        self._pending[key] = entry
        entry.timer = self.sim.at(
            message.sent_at + self.policy.timeout,
            lambda: self._on_timeout(key), phase=Phase.SOURCES)

    def on_delivered(self, message: Message, cache_id: int) -> bool:
        """A copy reached cache ``cache_id``; False suppresses it."""
        seq = getattr(message, "seq", None)
        if seq is None or seq < 0:
            return True
        key = (message.source_id, seq)
        entry = self._pending.get(key)
        if entry is None:
            return True
        entry.outstanding -= 1
        if cache_id in entry.delivered:
            self.duplicate_suppressed += 1
            self._maybe_forget(key, entry)
            return False
        entry.delivered.add(cache_id)
        if not entry.done and len(entry.delivered) == len(entry.targets):
            entry.done = True  # acked on every target link
            if entry.timer is not None:
                entry.timer.cancel()
                entry.timer = None
        self._maybe_forget(key, entry)
        return True

    def on_lost(self, message: Message, cache_id: int) -> None:
        """A copy died in flight (injector drop or crash-cleared FIFO)."""
        seq = getattr(message, "seq", None)
        if seq is None or seq < 0:
            return
        key = (message.source_id, seq)
        entry = self._pending.get(key)
        if entry is not None:
            entry.outstanding -= 1
            self._maybe_forget(key, entry)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _maybe_forget(self, key, entry: _Pending) -> None:
        # Dedup state must outlive the ack: a duplicate copy can still be
        # queued behind the one that completed the delivery set.  Forget
        # the entry only once every sent copy is accounted for.
        if entry.done and entry.outstanding <= 0:
            del self._pending[key]

    def _rebuild(self, snapshot: Message,
                 now: float) -> tuple[Message, list]:
        """The retransmit payload: the object's current state.

        Re-reads the object table so the wire carries what the source
        holds *now*.  Returns the rebuilt message plus the objects whose
        belief must be reset via ``mark_sent`` *if* the send wins credit
        -- exactly the bookkeeping the original send did.
        """
        objects = self.objects
        if objects is None:
            return replace(snapshot, sent_at=now), []
        if isinstance(snapshot, RefreshMessage):
            obj = objects[snapshot.object_index]
            return replace(snapshot, sent_at=now, value=obj.value,
                           update_count=obj.update_count), [obj]
        if isinstance(snapshot, BatchRefreshMessage):
            marks = [objects[object_index]
                     for object_index, _value, _count in snapshot.items]
            items = [(obj.index, obj.value, obj.update_count)
                     for obj in marks]
            return replace(snapshot, sent_at=now, items=items), marks
        return replace(snapshot, sent_at=now), []

    def _on_timeout(self, key) -> None:
        entry = self._pending.get(key)
        if entry is None or entry.done:
            return
        entry.timer = None
        if entry.attempts >= self.policy.max_attempts:
            entry.done = True
            self.abandoned += 1
            self._maybe_forget(key, entry)
            return
        now = self.sim.now
        # Re-enter the ordinary upstream path: the retransmit pays source
        # credit like any refresh (a credit-starved attempt is simply
        # forfeited -- the attempt budget is about pacing, not fairness).
        message, marks = self._rebuild(entry.snapshot, now)
        entry.attempts += 1
        if self.topology.send_upstream(message):
            self.retransmitted += 1
            sources = self._sources
            for obj in marks:
                obj.mark_sent(now)
                if sources is not None:
                    sources.monitors[message.source_id].on_refresh_sent(
                        sources.tracker, obj, now)
        delay = self.policy.timeout * (
            self.policy.backoff ** (entry.attempts - 1))
        entry.timer = self.sim.at(now + delay,
                                  lambda: self._on_timeout(key),
                                  phase=Phase.SOURCES)
