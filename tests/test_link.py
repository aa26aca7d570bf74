"""Tests for the credit-bucket link with FIFO overflow queue."""

from collections import deque

import numpy as np
import pytest

from repro.network.bandwidth import (
    ConstantBandwidth,
    SineBandwidth,
    TraceBandwidth,
)
from repro.network.link import Link
from repro.network.messages import FeedbackMessage


def make_link(rate=5.0, sink=None):
    delivered = [] if sink is None else sink
    link = Link("test", ConstantBandwidth(rate), deliver=delivered.append)
    return link, delivered


def msg(source_id=0):
    return FeedbackMessage(source_id=source_id)


class TestTrySend:
    def test_try_send_without_credit_fails(self):
        link, delivered = make_link()
        assert not link.try_send(msg())
        assert delivered == []

    def test_try_send_with_credit_delivers_immediately(self):
        link, delivered = make_link()
        link.refill(1.0)
        assert link.try_send(msg())
        assert len(delivered) == 1

    def test_try_send_consumes_credit(self):
        link, _ = make_link(rate=2.0)
        link.refill(1.0)  # 2 units
        assert link.try_send(msg())
        assert link.try_send(msg())
        assert not link.try_send(msg())

    def test_try_send_refuses_while_queue_nonempty(self):
        """FIFO fairness: direct sends must not overtake queued messages."""
        link, _ = make_link(rate=0.0)
        link.enqueue(msg())
        link.credit = 5.0
        assert not link.try_send(msg())


class TestQueueing:
    def test_enqueue_then_drain_fifo(self):
        link, delivered = make_link(rate=10.0)
        first, second = msg(1), msg(2)
        link.enqueue(first)
        link.enqueue(second)
        link.refill(1.0)
        assert link.drain() == 2
        assert delivered == [first, second]

    def test_drain_limited_by_credit(self):
        link, delivered = make_link(rate=2.0)
        for i in range(5):
            link.enqueue(msg(i))
        link.refill(1.0)
        assert link.drain() == 2
        assert link.queued == 3

    def test_messages_never_lost(self):
        link, delivered = make_link(rate=1.0)
        total = 17
        for i in range(total):
            link.enqueue(msg(i))
        now = 0.0
        for _ in range(40):
            now += 1.0
            link.refill(now)
            link.drain()
        assert len(delivered) + link.queued == total
        assert len(delivered) == total  # 40 ticks at 1/tick is enough

    def test_queued_peak_tracked(self):
        link, _ = make_link(rate=0.0)
        for i in range(4):
            link.enqueue(msg(i))
        assert link.total_queued_peak == 4


class TestQueueOnFirstUse:
    """A link holds the shared empty stand-in until its first enqueue."""

    def test_never_queued_link_reads_empty(self):
        link, delivered = make_link()
        assert link.queued == 0 and not link.queue and list(link.queue) == []
        assert link.queued_peak_since() == 0 and link.total_queued_peak == 0
        link.reset_queued_peak()
        assert link.queued_peak_since() == 0
        link.refill(1.0)
        assert link.drain() == 0 and delivered == []
        assert link.surplus() == 5.0

    def test_sends_share_the_stand_in(self):
        link, delivered = make_link(rate=3.0)
        other, _ = make_link()
        link.refill(1.0)
        assert link.try_send(msg(0))
        assert link.transmit_or_queue(msg(1))
        assert link.send(msg(2), delivered.append)
        assert link.queue is other.queue
        assert len(delivered) == 3

    def test_first_enqueue_allocates_and_keeps_fifo_order(self):
        link, delivered = make_link(rate=0.0)
        other, _ = make_link()
        messages = [msg(i) for i in range(4)]
        link.enqueue(messages[0])
        assert isinstance(link.queue, deque)
        assert not other.queue  # the stand-in stays empty
        for message in messages[1:]:
            link.enqueue(message)
        assert [m.source_id for m in link.queue] == [0, 1, 2, 3]
        link.credit = 2.0
        assert link.drain() == 2
        assert link.transmit_or_queue(msg(9)) is False  # behind the FIFO
        link.credit = 3.0
        assert link.drain() == 3
        assert [m.source_id for m in delivered] == [0, 1, 2, 3, 9]
        assert link.queued == 0 and link.total_queued_peak == 4


class TestCredit:
    def test_refill_accrues_profile_capacity(self):
        link, _ = make_link(rate=3.0)
        link.refill(2.0)
        assert link.credit == pytest.approx(6.0)

    def test_carryover_capped_at_one_tick(self):
        link, _ = make_link(rate=5.0)
        link.refill(1.0)  # 5 credits, unused
        link.refill(2.0)  # carry capped at 5, plus 5 new
        assert link.credit == pytest.approx(10.0)
        link.refill(3.0)
        assert link.credit == pytest.approx(10.0)  # still capped

    def test_fractional_capacity_accumulates(self):
        """0.5 msgs/tick must deliver one message every two ticks."""
        link, delivered = make_link(rate=0.5)
        link.enqueue(msg())
        link.refill(1.0)
        assert link.drain() == 0
        link.refill(2.0)
        assert link.drain() == 1

    def test_utilization_and_surplus(self):
        link, _ = make_link(rate=4.0)
        link.enqueue(msg())
        link.refill(1.0)
        link.drain()
        assert link.utilization() == pytest.approx(0.25)
        assert link.surplus() == pytest.approx(3.0)

    def test_surplus_zero_when_backlogged(self):
        link, _ = make_link(rate=1.0)
        link.enqueue(msg(0))
        link.enqueue(msg(1))
        link.refill(1.0)
        link.drain()
        assert link.queued == 1
        assert link.surplus() == 0.0

    def test_surplus_accrues_mid_tick_credit(self):
        """Regression: a mid-tick surplus reading must include capacity
        earned since the link was last touched, not a stale balance."""
        link, _ = make_link(rate=4.0)
        link.refill(1.0)
        assert link.surplus() == pytest.approx(4.0)
        # Half a tick later the bucket has earned 2 more units; without
        # the accrual the reading under-counts at exactly 4.0.
        assert link.surplus(1.5) == pytest.approx(6.0)

    def test_surplus_without_now_matches_tick_aligned_reading(self):
        """At the refill boundary the accrual is a no-op, so readers that
        pass ``now`` and readers that do not agree bit for bit."""
        link, _ = make_link(rate=4.0)
        link.refill(1.0)
        assert link.surplus(1.0) == link.surplus()

    def test_surplus_never_accrues_on_a_lazy_link(self):
        """A raw accrual across un-synced tick boundaries would bypass
        sync_to_tick's per-tick credit caps; lazy links report their
        last-synced balance instead."""
        link, _ = make_link(rate=4.0)
        link.lazy = True
        link.refill(1.0)
        before = (link.credit, link._last_accrue, link._tick_added)
        assert link.surplus(7.0) == link.surplus()
        assert (link.credit, link._last_accrue,
                link._tick_added) == before

    def test_utilization_zero_with_no_capacity(self):
        link, _ = make_link(rate=0.0)
        link.refill(1.0)
        assert link.utilization() == 0.0


class TestPublicCreditApi:
    def test_try_consume_spends_credit(self):
        link, _ = make_link(rate=2.0)
        link.refill(1.0)
        assert link.try_consume(1.0)
        assert link.credit == pytest.approx(1.0)

    def test_try_consume_refuses_without_credit(self):
        link, _ = make_link(rate=0.0)
        link.refill(1.0)
        assert not link.try_consume(1.0)
        assert link.credit == pytest.approx(0.0)

    def test_try_consume_counts_toward_utilization(self):
        link, _ = make_link(rate=4.0)
        link.refill(1.0)
        link.try_consume(2.0)
        assert link.utilization() == pytest.approx(0.5)

    def test_send_bypasses_queue(self):
        """Downstream sends share credit with, but not the queue of, the
        upstream flow."""
        link, delivered = make_link(rate=2.0)
        link.enqueue(msg(0))
        link.refill(1.0)
        got = []
        assert link.send(msg(1), got.append)
        assert len(got) == 1
        assert link.queued == 1  # the queued message was not overtaken...
        assert delivered == []  # ...nor delivered by the send

    def test_send_without_credit_fails(self):
        link, _ = make_link(rate=0.0)
        got = []
        assert not link.send(msg(), got.append)
        assert got == []

    def test_send_without_receiver_still_spends(self):
        link, _ = make_link(rate=2.0)
        link.refill(1.0)
        assert link.send(msg())
        assert link.credit == pytest.approx(1.0)
        assert link.total_sent == 1


class TestLazyRequiresSteadyProfile:
    """Lazy refill replay is only exact for steady profiles; marking any
    other link lazy must fail loudly instead of silently diverging."""

    def test_non_steady_profile_refuses_lazy(self):
        link = Link("sine", SineBandwidth(4.0, 0.25))
        with pytest.raises(ValueError, match="not steady"):
            link.lazy = True
        assert not link.lazy

    def test_steady_profile_accepts_lazy(self):
        link = Link("flat", ConstantBandwidth(4.0))
        link.lazy = True
        assert link.lazy
        link.lazy = False
        assert not link.lazy

    def test_non_steady_may_be_marked_eager(self):
        link = Link("sine", SineBandwidth(4.0, 0.25))
        link.lazy = False  # the classify loop always assigns
        assert not link.lazy


class TestLazySync:
    """sync_to_tick must replay skipped refills bit-for-bit: the same
    accrue/cap float operations at the same tick boundaries the eager
    schedule performed, including non-dyadic rates whose per-tick sums
    differ from any closed form in the last ulp."""

    @staticmethod
    def eager_lazy_pair(rate):
        return (Link("eager", ConstantBandwidth(rate)),
                Link("lazy", ConstantBandwidth(rate)))

    def test_sync_matches_eager_refills_when_idle(self):
        eager, lazy = self.eager_lazy_pair(2.5)
        for tick in range(1, 8):
            eager.refill(float(tick))
        lazy.sync_to_tick(7, 7.0, 6.0, 1.0)
        assert lazy.credit == eager.credit
        assert lazy.tick_capacity == eager.tick_capacity

    def test_sync_matches_eager_after_mid_tick_sends(self):
        eager, lazy = self.eager_lazy_pair(1.5)
        for link in (eager, lazy):
            link.refill(1.0)
            link.accrue(1.4)       # a send mid-tick accrues to its time
            link.try_consume(1.0)
        lazy._synced_tick, lazy._synced_boundary = 1, 1.0
        for tick in range(2, 6):
            eager.refill(float(tick))
        lazy.sync_to_tick(5, 5.0, 4.0, 1.0)
        assert lazy.credit == eager.credit

    def test_sync_is_idempotent_per_tick(self):
        link = Link("lazy", ConstantBandwidth(2.0))
        link.sync_to_tick(3, 3.0, 2.0, 1.0)
        credit = link.credit
        link.sync_to_tick(3, 3.0, 2.0, 1.0)  # same tick: no double refill
        assert link.credit == credit

    @pytest.mark.parametrize("rate", [0.25, 0.1, 0.3, 1.0 / 3.0, 0.7])
    def test_fractional_rate_sync_is_bit_exact(self, rate):
        """Credit accumulates across skipped ticks exactly as the eager
        schedule banked it.  The non-dyadic rates are the regression
        case: summing rate*dt per tick differs from rate*k*dt in the
        last ulp (e.g. ten 0.1-steps give 0.9999999999999999, not 1.0),
        which is enough to flip a has_credit decision."""
        eager, lazy = self.eager_lazy_pair(rate)
        for tick in range(1, 11):
            eager.refill(float(tick))
        lazy.sync_to_tick(10, 10.0, 9.0, 1.0)
        assert lazy.credit == eager.credit
        assert lazy.has_credit() == eager.has_credit()

    @pytest.mark.parametrize("rate", [0.1, 0.3, 2.5])
    def test_long_idle_span_saturation_jump(self, rate):
        """A long idle span saturates the bucket; the replay's jump to
        the final boundary must land on the eager schedule's floats."""
        eager, lazy = self.eager_lazy_pair(rate)
        boundary = 0.0
        for _ in range(500):
            boundary = boundary + 1.0
            eager.refill(boundary)
        lazy.sync_to_tick(500, boundary, boundary - 1.0, 1.0)
        assert lazy.credit == eager.credit
        assert lazy.tick_capacity == eager.tick_capacity

    def test_consume_between_syncs_stays_exact(self):
        """Interleave sends and idle spans: the replayed chain must track
        the eager chain through every consume/refill alternation."""
        eager, lazy = self.eager_lazy_pair(0.3)
        tick = 0
        boundary = 0.0
        for span in (4, 7, 1, 13, 2):
            prev = boundary
            for _ in range(span):
                prev = boundary
                boundary = boundary + 1.0
                eager.refill(boundary)
            tick += span
            lazy.sync_to_tick(tick, boundary, prev, 1.0)
            assert lazy.credit == eager.credit
            send_at = boundary + 0.4
            for link in (eager, lazy):
                link.accrue(send_at)
                link.try_consume(1.0)
            assert lazy.credit == eager.credit

    def test_on_queue_hook_fires(self):
        link = Link("hooked", ConstantBandwidth(0.0))
        queued = []
        link.on_queue = queued.append
        message = FeedbackMessage(source_id=0, sent_at=1.0)
        link.enqueue(message)
        assert queued == [message]


def _diurnal(mean, duration, segments, amplitude=0.6):
    times = np.linspace(0.0, duration, segments, endpoint=False)
    rates = mean * (1.0 + amplitude * np.sin(2 * np.pi * times / duration))
    return TraceBandwidth(times=times, rates=rates)


class TestLazyTraceSync:
    """Trace-profile lazy replay: the segment-indexed fast path must be
    bit-for-bit against the eager per-tick chain through saturation
    jumps, partial jumps at barrier segments (rate more than doubling),
    and zero-rate outage runs."""

    TRACES = {
        # Segments (0.6 ticks) shorter than dt: every tick straddles a
        # breakpoint, so only the cross-segment jump can skip anything.
        "diurnal-dense": lambda: _diurnal(1.0, 120.0, 200),
        "diurnal-coarse": lambda: _diurnal(2.5, 120.0, 12),
        # Sharp alternations: every transition is a barrier (the earned
        # capacity more than doubles), forcing explicit replay there.
        "sawtooth": lambda: TraceBandwidth(
            times=[0.0, 17.0, 31.0, 54.0, 80.0],
            rates=[0.2, 5.0, 0.1, 8.0, 0.3]),
        # A mid-run blackout: the zero-rate run fixpoint jump.
        "outage": lambda: TraceBandwidth.with_outage(3.0, 40.0, 85.0),
        # Trickle rates saturate the one-message floor cap immediately.
        "trickle": lambda: _diurnal(0.05, 120.0, 60),
    }

    @staticmethod
    def boundaries(ticks, dt=1.0):
        """The ticker's float-accumulation chain, index = tick number."""
        chain = [0.0]
        for _ in range(ticks):
            chain.append(chain[-1] + dt)
        return chain

    def run_pair(self, make_trace, checkpoints, consume_at=(),
                 pass_boundaries=True):
        eager = Link("eager", make_trace())
        lazy = Link("lazy", make_trace())
        ticks = max(checkpoints)
        chain = self.boundaries(ticks)
        consume_at = set(consume_at)
        checkpoint_set = set(checkpoints)
        synced = 0
        for tick in range(1, ticks + 1):
            eager.refill(chain[tick])
            if tick in checkpoint_set:
                lazy.sync_to_tick(tick, chain[tick], chain[tick - 1], 1.0,
                                  chain if pass_boundaries else None)
                synced = tick
                assert lazy.credit == eager.credit, f"tick {tick}"
                assert lazy.tick_capacity == eager.tick_capacity
                assert lazy._synced_tick == synced
            if tick in consume_at:
                send_at = chain[tick] + 0.37
                for link in (eager, lazy):
                    link.accrue(send_at)
                    link.try_consume(1.0)
                assert lazy.credit == eager.credit
        return eager, lazy

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_sparse_sync_matches_eager(self, name):
        """Long idle gaps between syncs: jumps must land on the eager
        floats at every checkpoint."""
        self.run_pair(self.TRACES[name],
                      checkpoints=[3, 40, 41, 95, 150, 151, 290])

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_every_tick_sync_matches_eager(self, name):
        """Degenerate case: syncing every tick is the eager chain."""
        self.run_pair(self.TRACES[name], checkpoints=range(1, 60))

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_consumes_between_syncs_stay_exact(self, name):
        """Sends drain credit below the cap mid-gap; the next replay must
        track the eager chain from that exact float."""
        self.run_pair(self.TRACES[name],
                      checkpoints=[5, 30, 31, 70, 130, 200],
                      consume_at=[5, 30, 70, 130])

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_without_boundaries_replays_exactly(self, name):
        """No recorded boundary chain: per-tick replay, still exact
        because the synthesized chain is the same float accumulation."""
        self.run_pair(self.TRACES[name], checkpoints=[7, 50, 120],
                      pass_boundaries=False)

    def test_random_checkpoints_fuzz(self):
        rng = np.random.default_rng(5)
        for name, make_trace in sorted(self.TRACES.items()):
            ticks = 400
            checkpoints = sorted(set(
                rng.integers(1, ticks, size=25).tolist()) | {ticks})
            consume_at = set(
                rng.choice(checkpoints, size=8, replace=False).tolist())
            self.run_pair(make_trace, checkpoints, consume_at)

    def test_shared_trace_instance_across_links(self):
        """Many links sharing one trace (the m = 10^5 layout) must not
        interfere through the shared segment cache and jump memos."""
        trace = _diurnal(1.0, 120.0, 200)
        eagers = [Link(f"e{i}", _diurnal(1.0, 120.0, 200))
                  for i in range(3)]
        lazies = [Link(f"l{i}", trace) for i in range(3)]
        chain = self.boundaries(300)
        schedules = [[50, 170, 300], [51, 290, 300], [120, 121, 300]]
        for tick in range(1, 301):
            for eager in eagers:
                eager.refill(chain[tick])
            for lazy, schedule in zip(lazies, schedules):
                if tick in schedule:
                    lazy.sync_to_tick(tick, chain[tick], chain[tick - 1],
                                      1.0, chain)
        for eager, lazy in zip(eagers, lazies):
            assert lazy.credit == eager.credit
            assert lazy.tick_capacity == eager.tick_capacity

    def test_trace_profile_accepts_lazy(self):
        link = Link("trace", _diurnal(1.0, 60.0, 20))
        link.lazy = True
        assert link.lazy

    def test_flat_trace_takes_steady_path(self):
        """An all-equal-rate trace reports a steady rate and uses the
        constant closed-form jump, bit-identical to ConstantBandwidth."""
        flat = TraceBandwidth(times=[0.0, 30.0], rates=[2.5, 2.5])
        eager = Link("eager", ConstantBandwidth(2.5))
        lazy = Link("lazy", flat)
        assert lazy._trace is None  # routed to the steady sync
        chain = self.boundaries(200)
        for tick in range(1, 201):
            eager.refill(chain[tick])
        lazy.sync_to_tick(200, chain[200], chain[199], 1.0, chain)
        assert lazy.credit == eager.credit
        assert lazy.tick_capacity == eager.tick_capacity
