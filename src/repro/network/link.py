"""Capacity-constrained links with FIFO overflow queues.

The paper assumes "a standard underlying network model where any messages
for which there is not enough capacity become enqueued for later
transmission."  A :class:`Link` implements that as a continuous token
bucket for the cache and peer links:

* capacity accrues continuously (``accrue``), so a message sent mid-tick
  can use the capacity earned since the last tick boundary -- the paper
  neglects propagation latency, and making senders wait for the next tick
  boundary would add artificial delay precisely at high load;
* once per tick (:meth:`Link.refill`, the NETWORK phase) the bucket's
  carry-over is capped at roughly one tick's capacity
  (:func:`refill_credit`), so idle links cannot bank unbounded bursts,
  and the tick's utilization telemetry resets;
* :meth:`Link.drain` pops queued messages FIFO while credit remains;
* :meth:`Link.transmit_or_queue` delivers now if possible, else joins the
  FIFO queue -- the shared cache link, where congestion is supposed to
  happen.

A source link is not a :class:`Link`: it is a row of credit columns in
its :class:`~repro.network.topology.Topology`, which refuses a send
without credit (sources self-pace, their priority queue is the send queue
per paper Sec 8) and replays the refills a row skipped when it is
touched.  The rows call this module's :func:`refill_credit` and
:func:`trace_jump`, so a row and a link follow one refill rule.

Utilization over the last tick is tracked so the cache's feedback
controller can detect surplus bandwidth (Sec 5).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Callable

import numpy as np

from repro.network.bandwidth import (
    BandwidthProfile,
    ConstantBandwidth,
    TraceBandwidth,
)
from repro.network.messages import Message

DeliveryCallback = Callable[[Message], None]

#: Cap on how many trace segments one sync jump check scans, bounding
#: the vectorized prefix pass; longer gaps just take another jump.
_JUMP_SPAN = 512

#: The FIFO of a link that has never queued: empty and immutable, so
#: ``len``, truthiness and iteration work, and sharing it costs nothing;
#: only :meth:`Link.enqueue` allocates.
_NO_QUEUE: tuple[()] = ()


def refill_credit(credit: float, earned: float) -> tuple[float, bool]:
    """The per-tick refill rule: the credit a link carries into the next
    tick, having earned ``earned`` in the tick just ended, and whether
    the cap bound.

    Carry over at most ~one tick of unused credit; this permits
    fractional capacities (0.5 msgs/tick sends one message every other
    tick) without allowing unbounded bursts after idle spells.  The
    cache and peer links apply it every tick (:meth:`Link.refill`), and a
    source row replays it for each tick it skipped.
    """
    cap = max(1.0, earned) + earned
    if credit >= cap:
        return cap, True
    return credit, False


def trace_jump(trace: TraceBandwidth, boundaries: list[float], tick: int,
               last: int, pinned: bool) -> int:
    """The tick a trace link's replay may resume from after tick ``tick``
    clipped (``pinned``) or earned nothing; ``tick`` itself when no span
    can be skipped.

    The caller moves its last accrual to ``boundaries[resume]`` and, when
    pinned, sets its credit to infinity: the resumed tick's refill then
    lands exactly on the cap float.  ``last`` is the final tick, which
    always replays normally.

    The per-tick capacity drifts with the rate curve, so the steady
    jump does not apply; two other exactness arguments do:

    * **Cap-pinned chain.**  A saturated refill leaves the credit
      exactly at its cap ``g(tc) = max(1, tc) + tc``, a pure
      function of that tick's capacity ``tc``.  Saturation persists
      into the next tick iff ``g(tc_prev) >= max(1, tc_next)``;
      since ``g`` is increasing, it persists across a whole span
      whenever ``max(1, lo) + lo >= max(1, hi)`` for conservative
      per-tick capacity bounds ``lo``/``hi`` (segment-rate extrema
      times ``dt``, padded for the ulp jitter between tick spans).
      Every skipped tick's state is then ``credit = cap_k`` -- so
      the jump lands one tick before the span's end with infinite
      credit, and that tick's refill lands exactly on the cap float.
    * **Zero-rate run.**  While every spanned segment has rate 0,
      each skipped tick accrues exactly 0.0 and its cap of 1.0 binds
      nothing (the credit is below it), so the jump just moves the
      clock to the run's end.

    Both bounds are *monotone in span length* (extrema only widen as
    the span grows), so a prefix min/max accumulation over the
    spanned rate segments locates the furthest provably-saturated
    tick in one vectorized pass -- a *partial* jump to just before
    the first "barrier" segment (one where the earned-per-tick
    capacity more than doubles, e.g. an outage ending into a fat
    link).  The barrier tick itself replays explicitly and the
    chain resumes past it, so cost is bounded by segments actually
    spanned, never by ticks.
    """
    rates = trace.rates
    i0 = trace._segment(boundaries[tick])
    # `safe` = furthest segment the chain provably reaches; below i0
    # means the adjacent segment breaks it.  Both lookups depend only
    # on the trace and the starting segment -- never on the link's
    # credit -- so they memoize on the (often shared) trace: at most
    # one vectorized prefix pass per segment per run.
    if pinned:
        # Start the window at the current tick's *first* spanned
        # segment: its rate extrema then bound tick_capacity too,
        # keeping the memo link-independent.
        start = trace._segment(boundaries[tick - 1])
        dt = boundaries[1]
        if trace._jump_memo_dt != dt:
            trace._jump_memo.clear()
            trace._jump_memo_dt = dt
        safe = trace._jump_memo.get(start)
        if safe is None:
            end = min(start + _JUMP_SPAN, len(rates) - 1)
            window = rates[start:end + 1] * dt
            lo = np.minimum.accumulate(window)
            lo *= 1.0 - 1e-6
            hi = np.maximum.accumulate(window)
            hi *= 1.0 + 1e-6
            ok = np.maximum(1.0, lo) + lo >= np.maximum(1.0, hi)
            k = int(np.argmin(ok))  # first False, 0 if none
            safe = trace._jump_memo[start] = \
                end if ok[k] else start + k - 1
    else:
        safe = trace._zero_memo.get(i0)
        if safe is None:
            end = min(i0 + _JUMP_SPAN, len(rates) - 1)
            ok = rates[i0:end + 1] == 0.0
            k = int(np.argmin(ok))
            safe = trace._zero_memo[i0] = end if ok[k] else i0 + k - 1
    if safe < i0:
        return tick  # barrier right here: replay the next tick
    if safe >= trace._segment(boundaries[last]):
        j = last
    else:
        # Last tick still inside the provably-safe segments.
        j = bisect_right(boundaries, trace._times_list[safe + 1],
                         lo=tick, hi=last + 1) - 1
    if not pinned:
        return j if j > tick else tick
    return j - 1 if j - 1 > tick else tick


class Link:
    """A continuous-token-bucket message pipe with a FIFO overflow queue.

    One credit bucket is shared by both directions, matching the paper's
    buoy experiment where "the maximum total number of messages transmitted
    per minute over the satellite link" is constrained regardless of
    direction.
    """

    __slots__ = ("name", "profile", "deliver", "credit", "queue",
                 "_last_accrue", "_tick_added", "_const_rate", "on_queue",
                 "tick_capacity", "tick_used", "total_sent",
                 "total_delivered", "total_units", "total_queued_peak",
                 "_window_queued_peak")

    def __init__(self, name: str, profile: BandwidthProfile,
                 deliver: DeliveryCallback | None = None) -> None:
        self.name = name
        self.profile = profile
        self.deliver = deliver
        self.credit = 0.0
        self.queue: deque[Message] | tuple[()] = _NO_QUEUE
        self._last_accrue = 0.0
        self._tick_added = 0.0
        # Constant profiles take accrue's closed-form fast path; the
        # expression below is ConstantBandwidth.capacity verbatim, so the
        # shortcut is bit-identical to the method call it skips.
        self._const_rate = profile._rate \
            if type(profile) is ConstantBandwidth else None
        #: optional callback invoked when a message joins the FIFO queue
        #: (lets a policy arm the owning cache's drain wakeup)
        self.on_queue: DeliveryCallback | None = None
        # Telemetry for the current tick and cumulative counters.
        self.tick_capacity = 0.0
        self.tick_used = 0.0
        self.total_sent = 0
        self.total_delivered = 0
        #: cumulative credit actually spent (bandwidth units); message
        #: counters count envelopes, this counts cost -- a multicast
        #: sibling copy is one more message but zero more units
        self.total_units = 0.0
        self.total_queued_peak = 0
        self._window_queued_peak = 0

    # ------------------------------------------------------------------
    # Credit management
    # ------------------------------------------------------------------
    def accrue(self, now: float) -> None:
        """Fold in capacity earned since the last accrual."""
        last = self._last_accrue
        if now <= last:
            return
        rate = self._const_rate
        if rate is not None:
            added = rate * (now - last)
        else:
            added = self.profile.capacity(last, now)
        self._last_accrue = now
        self.credit += added
        self._tick_added += added

    def refill(self, now: float) -> None:
        """Per-tick boundary: cap banked credit (:func:`refill_credit`),
        reset tick telemetry."""
        self.accrue(now)
        tick_capacity = self._tick_added
        self.credit = refill_credit(self.credit, tick_capacity)[0]
        self.tick_capacity = tick_capacity
        self.tick_used = 0.0
        self._tick_added = 0.0

    def has_credit(self, size: float = 1.0) -> bool:
        return self.credit >= size

    def try_consume(self, size: float = 1.0) -> bool:
        """Spend ``size`` credit if available; leave the bucket untouched
        otherwise.  The public credit-spending entry point for topologies
        that do their own routing and bookkeeping."""
        if self.credit < size:
            return False
        self.credit -= size
        self.tick_used += size
        self.total_units += size
        return True

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message: Message,
             receiver: DeliveryCallback | None = None) -> bool:
        """Spend credit and deliver to ``receiver``, bypassing the queue.

        The downstream path of a shared cache link: feedback and poll
        requests share the link's *credit* with the upstream flow but not
        its FIFO queue, so a refresh backlog does not block them.  When
        ``receiver`` is ``None`` the credit is still spent and counted (a
        message to an unwired endpoint disappears at delivery, not before).
        """
        self.accrue(message.sent_at)
        if not self.try_consume(message.size):
            return False
        self.total_sent += 1
        self.total_delivered += 1
        if receiver is not None:
            receiver(message)
        return True

    def enqueue(self, message: Message) -> None:
        """Accept a message unconditionally; it transmits as credit allows."""
        queue = self.queue
        if queue is _NO_QUEUE:
            queue = self.queue = deque()
        queue.append(message)
        self.total_sent += 1
        depth = len(queue)
        if depth > self.total_queued_peak:
            self.total_queued_peak = depth
        if depth > self._window_queued_peak:
            self._window_queued_peak = depth
        if self.on_queue is not None:
            self.on_queue(message)

    def transmit_or_queue(self, message: Message) -> bool:
        """Deliver immediately if capacity allows, otherwise queue.

        The paper neglects propagation latency, so an uncongested link
        delivers in-tick; only messages "for which there is not enough
        capacity become enqueued for later transmission".  Returns True
        when the message was delivered immediately.
        """
        self.accrue(message.sent_at)
        queue = self.queue
        if queue:
            # Only drain when the head could actually go out: a failed
            # head try_consume mutates nothing, so skipping it is exact --
            # and overloaded runs hit this branch once per queued message.
            if self.credit >= queue[0].size:
                self.drain()
            if queue:
                self.enqueue(message)
                return False
        size = message.size
        if self.credit >= size:
            self.credit -= size
            self.tick_used += size
            self.total_units += size
            self.total_sent += 1
            self.total_delivered += 1
            deliver = self.deliver
            if deliver is not None:
                deliver(message)
            return True
        self.enqueue(message)
        return False

    def drain(self) -> int:
        """Transmit queued messages FIFO while credit lasts; return count."""
        delivered = 0
        while self.queue and self.try_consume(self.queue[0].size):
            message = self.queue.popleft()
            delivered += 1
            self.total_delivered += 1
            if self.deliver is not None:
                self.deliver(message)
        return delivered

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Number of messages currently waiting for capacity."""
        return len(self.queue)

    def surplus(self, now: float | None = None) -> float:
        """Leftover credit after this tick's drain (0 when backlogged).

        The cache's feedback controller treats a positive surplus with an
        empty queue as "bandwidth underutilized" (Sec 5).  Pass ``now`` to
        fold in capacity earned since the link was last touched --
        without it a mid-tick reading under-counts, since credit accrues
        continuously but only sends and refills used to call
        :meth:`accrue`.  Tick-aligned readers (the feedback controller
        runs right after the NETWORK-phase refill) see identical values
        either way.  Only cache links are read, and the tick loop refills
        them.
        """
        if now is not None:
            self.accrue(now)
        if self.queue:
            return 0.0
        return self.credit

    def queued_peak_since(self) -> int:
        """Worst FIFO depth since the last :meth:`reset_queued_peak`.

        ``total_queued_peak`` latches its lifetime max, so a controller
        reading it sees a cache as saturated forever after one burst; the
        windowed peak answers "was this link congested *recently*" and is
        what the rebalancer's decision rule consumes.  The current
        backlog counts toward the window even if nothing new was
        enqueued since the reset (a standing queue is still congestion).
        """
        depth = len(self.queue)
        if depth > self._window_queued_peak:
            return depth
        return self._window_queued_peak

    def reset_queued_peak(self) -> None:
        """Start a fresh observation window for :meth:`queued_peak_since`.

        The window restarts at the *current* backlog, not zero: messages
        already waiting will be the first peak of the new window.  The
        lifetime ``total_queued_peak`` is untouched.
        """
        self._window_queued_peak = len(self.queue)

    def utilization(self) -> float:
        """Fraction of this tick's capacity actually used (0 when idle)."""
        if self.tick_capacity <= 0:
            return 0.0
        return min(1.0, self.tick_used / self.tick_capacity)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Link {self.name} credit={self.credit:.2f} "
                f"queued={len(self.queue)}>")
