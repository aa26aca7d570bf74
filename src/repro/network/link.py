"""Capacity-constrained links with FIFO overflow queues.

The paper assumes "a standard underlying network model where any messages
for which there is not enough capacity become enqueued for later
transmission."  A :class:`Link` implements that as a continuous token
bucket:

* capacity accrues continuously (``accrue``), so a message sent mid-tick
  can use the capacity earned since the last tick boundary -- the paper
  neglects propagation latency, and making senders wait for the next tick
  boundary would add artificial delay precisely at high load;
* once per tick (:meth:`refill`, driven by the NETWORK phase) the bucket's
  carry-over is capped at roughly one tick's capacity, so idle links cannot
  bank unbounded bursts, and the tick's utilization telemetry resets;
* :meth:`drain` pops queued messages FIFO while credit remains;
* senders either :meth:`try_send` (refuse when no credit -- sources
  self-pace, their priority queue is the send queue per paper Sec 8) or
  :meth:`transmit_or_queue` (deliver now if possible, else join the FIFO
  queue -- the shared cache link, where congestion is supposed to happen).

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

#: Cap on how many trace segments one lazy-sync jump check scans, bounding
#: the vectorized prefix pass; longer gaps just take another jump.
_JUMP_SPAN = 512

#: The FIFO of a link that has never queued: empty and immutable, so
#: ``len``, truthiness and iteration work, and sharing it costs nothing.
#: Source links never queue, so only :meth:`Link.enqueue` allocates.
_NO_QUEUE: tuple[()] = ()


class Link:
    """A continuous-token-bucket message pipe with a FIFO overflow queue.

    One credit bucket is shared by both directions, matching the paper's
    buoy experiment where "the maximum total number of messages transmitted
    per minute over the satellite link" is constrained regardless of
    direction.
    """

    __slots__ = ("name", "profile", "deliver", "credit", "queue",
                 "_last_accrue", "_tick_added", "_const_rate", "_trace",
                 "_lazy", "_synced_tick", "_synced_boundary", "on_queue",
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
        # Non-steady trace profiles get sync_to_tick's segment-walk
        # replay; steady ones (including flat traces) keep the cheaper
        # steady saturation jump, so this is only set when it matters.
        self._trace = profile \
            if (isinstance(profile, TraceBandwidth)
                and profile.steady_rate is None) else None
        # Lazy-refill state: a link marked lazy by its topology skips the
        # per-tick refill loop and is brought up to date on first touch.
        self._lazy = False
        self._synced_tick = 0
        self._synced_boundary = 0.0
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
    @property
    def lazy(self) -> bool:
        """True when this link skips eager per-tick refills."""
        return self._lazy

    @lazy.setter
    def lazy(self, value: bool) -> None:
        # sync_to_tick replays skipped refills exactly for steady
        # profiles (closed-form saturation jump) and piecewise traces
        # (segment-walk replay over the cumulative array); any other
        # fluctuating profile replayed from the wrong boundary would
        # fabricate credit.  Refuse early instead of silently diverging.
        if value and self.profile.steady_rate is None \
                and self._trace is None:
            raise ValueError(
                f"link {self.name!r} cannot refill lazily: profile "
                f"{self.profile!r} is not steady or piecewise (lazy sync "
                f"replays per-tick refills, which is only exact when the "
                f"capacity earned per tick is reconstructible)")
        self._lazy = value

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
        """Per-tick boundary: cap banked credit, reset tick telemetry."""
        self.accrue(now)
        tick_capacity = self._tick_added
        # Carry over at most ~one tick of unused credit; this permits
        # fractional capacities (0.5 msgs/tick sends one message every
        # other tick) without allowing unbounded bursts after idle spells.
        self.credit = min(self.credit, max(1.0, tick_capacity) + tick_capacity)
        self.tick_capacity = tick_capacity
        self.tick_used = 0.0
        self._tick_added = 0.0

    def sync_to_tick(self, tick_no: int, tick_time: float,
                     prev_tick_time: float, dt: float,
                     boundaries: list[float] | None = None) -> None:
        """Replay the per-tick refills a lazy link skipped, bit for bit.

        Reconstructs every skipped tick boundary by the same repeated
        ``boundary + dt`` float accumulation the network ticker performs
        (the chains share their starting float, so they are identical),
        and executes :meth:`refill`'s accrue/cap/reset sequence at each
        one -- the identical float operations in the identical order, so
        a lazily-synced link is indistinguishable from an eagerly
        refilled one.  Closed forms are *not* safe here: summing
        ``rate * dt`` per tick and multiplying ``rate * k * dt`` once
        differ in the last ulp for non-dyadic rates, which is enough to
        flip a ``has_credit`` decision.

        Cost stays O(1) amortized: once the credit saturates at the
        refill cap (or the profile adds nothing), every further tick
        provably reproduces the same state, so the replay jumps straight
        to the final boundary (``prev_tick_time``/``tick_time``, the
        ticker's own floats).  A link therefore replays at most the ticks
        between its last consumption and saturation, never a whole idle
        span.

        Links on a non-steady :class:`TraceBandwidth` take the
        segment-walk variant instead (:meth:`_sync_trace`), which needs
        the topology's recorded ``boundaries`` (tick index -> tick-time
        float) to jump over saturated in-segment spans; without them it
        replays tick by tick, still exactly.
        """
        pending = tick_no - self._synced_tick
        if pending <= 0:
            return
        if self._trace is not None:
            self._sync_trace(tick_no, tick_time, dt, boundaries)
            return
        boundary = self._synced_boundary
        while pending > 0:
            boundary = boundary + dt
            self.accrue(boundary)
            tick_capacity = self._tick_added
            cap = max(1.0, tick_capacity) + tick_capacity
            saturated = self.credit >= cap or tick_capacity == 0.0
            self.credit = min(self.credit, cap)
            self.tick_capacity = tick_capacity
            self.tick_used = 0.0
            self._tick_added = 0.0
            pending -= 1
            if pending > 0 and saturated:
                # Saturated: each remaining tick would leave the credit
                # pinned at that tick's cap, so only the final boundary's
                # refill is observable.  Replay it directly.
                self._last_accrue = prev_tick_time
                self.accrue(tick_time)
                tick_capacity = self._tick_added
                self.credit = min(self.credit,
                                  max(1.0, tick_capacity) + tick_capacity)
                self.tick_capacity = tick_capacity
                self.tick_used = 0.0
                self._tick_added = 0.0
                break
        self._synced_tick = tick_no
        self._synced_boundary = tick_time

    def _sync_trace(self, tick_no: int, tick_time: float, dt: float,
                    boundaries: list[float] | None) -> None:
        """Per-tick refill replay for piecewise (trace) profiles.

        The steady path's closed-form jump assumes every tick earns the
        same capacity; on a trace the per-tick capacity drifts with the
        rate curve.  The replay runs :meth:`refill`'s exact per-tick
        sequence until the credit saturates, then fast-forwards on one
        of two exactness arguments:

        * **Cap-pinned chain.**  A saturated refill leaves the credit
          exactly at its cap ``g(tc) = max(1, tc) + tc``, a pure
          function of that tick's capacity ``tc``.  Saturation persists
          into the next tick iff ``g(tc_prev) >= max(1, tc_next)``;
          since ``g`` is increasing, it persists across a whole span
          whenever ``max(1, lo) + lo >= max(1, hi)`` for conservative
          per-tick capacity bounds ``lo``/``hi`` (segment-rate extrema
          times ``dt``, padded for the ulp jitter between tick spans).
          Every skipped tick's state is then ``credit = cap_k`` -- so
          the jump replays only the *last* skipped tick, seeded with
          infinite credit so its ``min`` lands exactly on the eager
          chain's cap float, and the final tick runs normally from it.
        * **Zero-rate run.**  While every spanned segment has rate 0,
          each skipped tick accrues exactly 0.0 and caps at
          ``min(credit, 1.0)``: the first application is the fixpoint,
          so the jump applies it once and skips to the run's end.

        Both bounds are *monotone in span length* (extrema only widen as
        the span grows), so a prefix min/max accumulation over the
        spanned rate segments locates the furthest provably-saturated
        tick in one vectorized pass -- a *partial* jump to just before
        the first "barrier" segment (one where the earned-per-tick
        capacity more than doubles, e.g. an outage ending into a fat
        link).  The barrier tick itself replays explicitly and the
        chain resumes past it, so cost is bounded by segments actually
        spanned, never by ticks.

        ``boundaries[i]`` must be the network ticker's time float at tick
        ``i`` (the topology records them); when absent the loop replays
        every tick, which is exact but O(pending).
        """
        trace = self._trace
        rates = trace.rates
        times = trace._times_list
        tick = self._synced_tick
        boundary = self._synced_boundary
        while tick < tick_no:
            tick += 1
            boundary = boundaries[tick] if boundaries is not None \
                else boundary + dt
            self.accrue(boundary)
            tick_capacity = self._tick_added
            cap = max(1.0, tick_capacity) + tick_capacity
            pinned = self.credit >= cap
            self.credit = min(self.credit, cap)
            self.tick_capacity = tick_capacity
            self.tick_used = 0.0
            self._tick_added = 0.0
            if boundaries is None or tick >= tick_no - 1 \
                    or not (pinned or tick_capacity == 0.0):
                continue
            last = tick_no - 1  # the final tick always replays normally
            i0 = trace._segment(boundary)
            i1 = trace._segment(boundaries[last])
            # `safe` = furthest segment the saturation chain provably
            # reaches; below i0 means the adjacent segment breaks it.
            # Both lookups depend only on the trace and the starting
            # segment -- never on this link's credit -- so they memoize
            # on the (often shared) trace: at most one vectorized prefix
            # pass per segment per run, a dict hit thereafter.
            if pinned:
                # Start the window at the current tick's *first* spanned
                # segment: its rate extrema then bound tick_capacity
                # too, keeping the memo link-independent.
                start = trace._segment(boundaries[tick - 1])
                if trace._jump_memo_dt != dt:
                    trace._jump_memo.clear()
                    trace._jump_memo_dt = dt
                safe = trace._jump_memo.get(start)
                if safe is None:
                    end = min(start + _JUMP_SPAN, len(rates) - 1)
                    if end == start:
                        r = trace._rates_list[start] * dt
                        lo = r * (1.0 - 1e-6)
                        safe = end if max(1.0, lo) + lo >= \
                            max(1.0, r * (1.0 + 1e-6)) else start - 1
                    else:
                        window = rates[start:end + 1] * dt
                        lo = np.minimum.accumulate(window)
                        lo *= 1.0 - 1e-6
                        hi = np.maximum.accumulate(window)
                        hi *= 1.0 + 1e-6
                        ok = np.maximum(1.0, lo) + lo \
                            >= np.maximum(1.0, hi)
                        k = int(np.argmin(ok))  # first False, 0 if none
                        safe = end if ok[k] else start + k - 1
                    trace._jump_memo[start] = safe
            else:  # tick_capacity == 0.0 with credit below the cap:
                # skipped ticks are no-ops only while the rate stays 0.
                safe = trace._zero_memo.get(i0)
                if safe is None:
                    end = min(i0 + _JUMP_SPAN, len(rates) - 1)
                    if end == i0:
                        safe = end if trace._rates_list[i0] == 0.0 \
                            else i0 - 1
                    else:
                        ok = rates[i0:end + 1] == 0.0
                        k = int(np.argmin(ok))
                        safe = end if ok[k] else i0 + k - 1
                    trace._zero_memo[i0] = safe
            if safe < i0:
                continue  # barrier right here: replay the next tick
            if safe >= i1:
                j = last
            else:
                # Last tick still inside the provably-safe segments.
                j = bisect_right(boundaries, times[safe + 1],
                                 lo=tick, hi=last + 1) - 1
            if not pinned:
                if j > tick:
                    # Zero-rate run through boundaries[j]: apply the
                    # one-time cap fixpoint and skip the no-op ticks.
                    self.credit = min(self.credit, 1.0)
                    self.tick_capacity = 0.0
                    tick = j
                    boundary = boundaries[j]
                    self._last_accrue = boundary
            elif j - 1 > tick:
                # Cap-pinned through `j`: skip to its previous boundary
                # and let the loop replay it from infinite credit --
                # the min lands exactly on its cap.
                tick = j - 1
                boundary = boundaries[tick]
                self._last_accrue = boundary
                self.credit = float("inf")
        self._synced_tick = tick_no
        self._synced_boundary = tick_time

    def has_credit(self, size: float = 1.0) -> bool:
        return self.credit >= size

    def try_consume(self, size: float = 1.0) -> bool:
        """Spend ``size`` credit if available; leave the bucket untouched
        otherwise.  The public credit-spending entry point for topologies
        that do their own routing and bookkeeping."""
        if self.credit < size:
            return False
        self._consume(size)
        return True

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def try_send(self, message: Message) -> bool:
        """Consume credit and deliver immediately; False if no credit.

        Used by self-pacing senders (sources).  Delivery is synchronous
        because the paper neglects propagation latency; the *queueing*
        latency of the shared cache link is modelled by
        :meth:`transmit_or_queue`.
        """
        self.accrue(message.sent_at)
        if self.queue or not self.try_consume(message.size):
            return False
        self.total_sent += 1
        self.total_delivered += 1
        if self.deliver is not None:
            self.deliver(message)
        return True

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
        if self.try_consume(message.size):
            self.total_sent += 1
            self.total_delivered += 1
            if self.deliver is not None:
                self.deliver(message)
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

    def _consume(self, size: float) -> None:
        self.credit -= size
        self.tick_used += size
        self.total_units += size

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
        either way.

        On a *lazy* link the accrual is skipped: a raw ``accrue`` across
        un-synced tick boundaries would fold a multi-tick span into one
        uncapped refill and corrupt :meth:`sync_to_tick`'s replay.  Lazy
        links must be brought up to date through their topology's sync
        (which all senders do) before their surplus means anything.
        """
        if now is not None and not self._lazy:
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
