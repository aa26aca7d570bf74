"""Tests for the credit-bucket link with FIFO overflow queue."""

from collections import deque

import numpy as np
import pytest

from repro.network.bandwidth import (
    ConstantBandwidth,
    ScaledBandwidth,
    SineBandwidth,
    TraceBandwidth,
)
from repro.network.link import Link, Pacer
from repro.network.messages import FeedbackMessage, RefreshMessage
from repro.network.topology import Topology


def make_link(rate=5.0, sink=None):
    delivered = [] if sink is None else sink
    link = Link("test", ConstantBandwidth(rate), deliver=delivered.append)
    return link, delivered


def msg(source_id=0):
    return FeedbackMessage(source_id=source_id)


def boundaries(ticks, dt=1.0):
    """The network ticker's float-accumulation chain, index = tick
    number, as a topology records it."""
    chain = [0.0]
    for _ in range(ticks):
        chain.append(chain[-1] + dt)
    return chain


class Row:
    """The lazy twin: source row 0 of a one-source topology, told of each
    tick boundary by its network tick and synced only when asked."""

    def __init__(self, profile):
        self.topology = Topology([ConstantBandwidth(1e9)], [profile])

    def tick(self, now):
        self.topology.on_network_tick(now)

    def sync(self):
        self.topology._sync_source(0)

    def send(self, now):
        """A one-unit send at ``now``: accrue, then consume if it can."""
        self.topology.send_upstream(RefreshMessage(source_id=0, sent_at=now))

    @property
    def credit(self):
        return self.topology._credit[0]

    @property
    def synced(self):
        return self.topology._synced[0]


def sync_pair(make_profile, checkpoints, consume_at=()):
    """Refill one link every tick and sync a source row only at
    ``checkpoints``, with a send on both after each tick in
    ``consume_at``; the row must match bit for bit at every checkpoint
    and after every send.  Returns the synced row."""
    eager = Link("eager", make_profile())
    lazy = Row(make_profile())
    ticks = max(checkpoints)
    chain = boundaries(ticks)
    consume_at = set(consume_at)
    checkpoint_set = set(checkpoints)
    for tick in range(1, ticks + 1):
        eager.refill(chain[tick])
        lazy.tick(chain[tick])
        if tick in checkpoint_set:
            lazy.sync()
            assert lazy.credit == eager.credit, f"tick {tick}"
            assert lazy.synced == tick
        if tick in consume_at:
            send_at = chain[tick] + 0.37
            eager.accrue(send_at)
            eager.try_consume(1.0)
            lazy.send(send_at)
            assert lazy.credit == eager.credit
    return lazy


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
        assert link.send(msg(0), delivered.append)
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


class TestLazySync:
    """A source row's sync must replay skipped refills bit-for-bit: the
    same accrue/cap float operations at the same tick boundaries a
    per-tick refill performs, including non-dyadic rates whose per-tick
    sums differ from any closed form in the last ulp."""

    @staticmethod
    def eager_lazy_pair(rate):
        return (Link("eager", ConstantBandwidth(rate)),
                Row(ConstantBandwidth(rate)))

    @staticmethod
    def run_ticks(eager, lazy, chain, ticks):
        for tick in ticks:
            eager.refill(chain[tick])
            lazy.tick(chain[tick])

    def test_sync_matches_eager_refills_when_idle(self):
        eager, lazy = self.eager_lazy_pair(2.5)
        self.run_ticks(eager, lazy, boundaries(7), range(1, 8))
        lazy.sync()
        assert lazy.credit == eager.credit

    def test_sync_matches_eager_after_mid_tick_sends(self):
        eager, lazy = self.eager_lazy_pair(1.5)
        chain = boundaries(5)
        self.run_ticks(eager, lazy, chain, [1])
        eager.accrue(1.4)       # a send mid-tick accrues to its time
        eager.try_consume(1.0)
        lazy.send(1.4)
        assert lazy.synced == 1
        self.run_ticks(eager, lazy, chain, range(2, 6))
        lazy.sync()
        assert lazy.credit == eager.credit

    def test_sync_is_idempotent_per_tick(self):
        lazy = Row(ConstantBandwidth(2.0))
        for now in boundaries(3)[1:]:
            lazy.tick(now)
        lazy.sync()
        credit = lazy.credit
        lazy.sync()  # same tick: no double refill
        assert lazy.credit == credit

    @pytest.mark.parametrize("rate", [0.25, 0.1, 0.3, 1.0 / 3.0, 0.7])
    def test_fractional_rate_sync_is_bit_exact(self, rate):
        """Credit accumulates across skipped ticks exactly as the eager
        schedule banked it.  The non-dyadic rates are the regression
        case: summing rate*dt per tick differs from rate*k*dt in the
        last ulp (e.g. ten 0.1-steps give 0.9999999999999999, not 1.0),
        which is enough to flip a credit check."""
        eager, lazy = self.eager_lazy_pair(rate)
        self.run_ticks(eager, lazy, boundaries(10), range(1, 11))
        lazy.sync()
        assert lazy.credit == eager.credit
        assert lazy.topology.source_at_capacity(0) == (eager.credit < 1.0)

    @pytest.mark.parametrize("rate", [0.1, 0.3, 2.5])
    def test_long_idle_span_saturation_jump(self, rate):
        """A long idle span saturates the bucket; the replay's jump to
        the final boundary must land on the eager schedule's floats."""
        eager, lazy = self.eager_lazy_pair(rate)
        self.run_ticks(eager, lazy, boundaries(500), range(1, 501))
        lazy.sync()
        assert lazy.credit == eager.credit

    def test_consume_between_syncs_stays_exact(self):
        """Interleave sends and idle spans: the replayed chain must track
        the eager chain through every consume/refill alternation."""
        eager, lazy = self.eager_lazy_pair(0.3)
        chain = boundaries(27)
        tick = 0
        for span in (4, 7, 1, 13, 2):
            self.run_ticks(eager, lazy, chain, range(tick + 1,
                                                     tick + span + 1))
            tick += span
            lazy.sync()
            assert lazy.credit == eager.credit
            send_at = chain[tick] + 0.4
            eager.accrue(send_at)
            eager.try_consume(1.0)
            lazy.send(send_at)
            assert lazy.credit == eager.credit

    PROFILES = {
        # Per-tick capacity swings 0.3..5.7: a credit clipped in a trough
        # is no longer at the cap a few ticks later.
        "sine": lambda: SineBandwidth(3.0, 0.25, amplitude=0.9),
        "sine-trickle": lambda: SineBandwidth(0.15, 0.5, amplitude=0.9),
        # Barrier segments, then an outage from t = 200 on.
        "scaled-trace": lambda: ScaledBandwidth(TraceBandwidth(
            times=[0.0, 17.0, 31.0, 54.0, 80.0, 140.0, 200.0],
            rates=[0.2, 5.0, 0.1, 8.0, 0.3, 6.0, 0.0]), 0.5),
    }

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_other_profiles_replay_every_tick_exactly(self, name):
        """A sine or scaled-trace source link takes no fast-forward:
        synced at sparse checkpoints, with a send after each, it replays
        every skipped refill and lands on the per-tick chain's floats."""
        checkpoints = [3, 4, 40, 97, 150, 151, 233, 300]
        profile = self.PROFILES[name]()
        assert profile.steady_rate is None
        assert not isinstance(profile, TraceBandwidth)
        sync_pair(self.PROFILES[name], checkpoints, consume_at=checkpoints)

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

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_sparse_sync_matches_eager(self, name):
        """Long idle gaps between syncs: jumps must land on the eager
        floats at every checkpoint."""
        sync_pair(self.TRACES[name],
                      checkpoints=[3, 40, 41, 95, 150, 151, 290])

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_every_tick_sync_matches_eager(self, name):
        """Degenerate case: syncing every tick is the eager chain."""
        sync_pair(self.TRACES[name], checkpoints=range(1, 60))

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_consumes_between_syncs_stay_exact(self, name):
        """Sends drain credit below the cap mid-gap; the next replay must
        track the eager chain from that exact float."""
        sync_pair(self.TRACES[name],
                      checkpoints=[5, 30, 31, 70, 130, 200],
                      consume_at=[5, 30, 70, 130])

    def test_random_checkpoints_fuzz(self):
        rng = np.random.default_rng(5)
        for name, make_trace in sorted(self.TRACES.items()):
            ticks = 400
            checkpoints = sorted(set(
                rng.integers(1, ticks, size=25).tolist()) | {ticks})
            consume_at = set(
                rng.choice(checkpoints, size=8, replace=False).tolist())
            sync_pair(make_trace, checkpoints, consume_at)

    def test_shared_trace_instance_across_links(self):
        """Many rows sharing one trace (the m = 10^5 layout) must not
        interfere through the shared segment cache and jump memos."""
        trace = _diurnal(1.0, 120.0, 200)
        eagers = [Link(f"e{i}", _diurnal(1.0, 120.0, 200))
                  for i in range(3)]
        lazy = Topology([ConstantBandwidth(1e9)], [trace] * 3)
        chain = boundaries(300)
        schedules = [[50, 170, 300], [51, 290, 300], [120, 121, 300]]
        for tick in range(1, 301):
            lazy.on_network_tick(chain[tick])
            for eager in eagers:
                eager.refill(chain[tick])
            for j, schedule in enumerate(schedules):
                if tick in schedule:
                    lazy._sync_source(j)
        for j, eager in enumerate(eagers):
            assert lazy._credit[j] == eager.credit

    def test_flat_trace_takes_steady_path(self):
        """An all-equal-rate trace reports a steady rate and uses the
        constant closed-form jump, bit-identical to ConstantBandwidth."""
        flat = TraceBandwidth(times=[0.0, 30.0], rates=[2.5, 2.5])
        assert flat.steady_rate is not None  # routed to the steady sync
        eager = Link("eager", ConstantBandwidth(2.5))
        lazy = Row(flat)
        chain = boundaries(200)
        for tick in range(1, 201):
            eager.refill(chain[tick])
            lazy.tick(chain[tick])
        lazy.sync()
        assert lazy.credit == eager.credit


class PacedRow:
    """Row 0 of a one-row :class:`Pacer` on a topology whose source link
    never refuses, dispatched every tick.  Each dispatch records the tick
    and the credit the row was caught up to, then spends whole messages
    while its credit lasts (``spend=False``: spends nothing)."""

    def __init__(self, earned, spend=True):
        self.topology = Topology([ConstantBandwidth(1e9)],
                                 [ConstantBandwidth(1e9)])
        self.pacer = Pacer(self.topology, [earned], 1.0)
        self.spend = spend
        self.seen = []  # (tick, credit) at every send call

    def send(self, row, now):
        credit = self.pacer.credit
        self.seen.append((self.topology.tick_no, credit[row]))
        while self.spend and credit[row] >= 1.0:
            credit[row] -= 1.0
        return False

    def run(self, ticks, wake_at=(), pending=True):
        """Tick ``ticks`` times, waking the row before each tick in
        ``wake_at``; the row re-arms itself while ``pending``."""
        chain = boundaries(ticks)
        for tick in range(1, ticks + 1):
            if tick in wake_at:
                self.pacer.wake(0)
            self.topology.on_network_tick(chain[tick])
            self.pacer.dispatch(chain[tick], self.send,
                                lambda row: pending)
        return self.seen


def literal_refill(credit, earned):
    """One tick of a per-tick scan, written out."""
    return min(credit + earned, max(1.0, earned) + earned)


class TestPacer:
    """A pacer row is a per-tick scan of its budget with the idle ticks
    skipped: the same credit floats on the same ticks."""

    EARNINGS = [0.1, 0.3, 2.0 / 3.0, 1.5, 0.003]

    @pytest.mark.parametrize("earned", EARNINGS)
    def test_skipped_ticks_replay_bit_for_bit(self, earned):
        """Woken after k idle ticks, a row holds the credit of k literal
        per-tick refills, for gaps from 1 to a few hundred ticks."""
        wakes = [1, 2, 4, 9, 25, 26, 90, 300, 301, 420]
        seen = PacedRow(earned).run(420, wakes, pending=False)
        assert [tick for tick, _ in seen] == wakes
        credit = 0.0
        expected = []
        for tick in range(1, 421):
            credit = literal_refill(credit, earned)
            if tick in wakes:
                expected.append(credit.hex())
                while credit >= 1.0:
                    credit -= 1.0
        assert [credit.hex() for _, credit in seen] == expected

    @pytest.mark.parametrize("earned", EARNINGS)
    def test_wakes_on_the_first_funded_tick(self, earned):
        """An armed row sends on exactly the ticks a per-tick scan first
        sees one message of credit."""
        row = PacedRow(earned)
        row.pacer.arm(0)
        seen = row.run(400)
        credit = 0.0
        expected = []
        for tick in range(1, 401):
            credit = literal_refill(credit, earned)
            if credit >= 1.0:
                expected.append(tick)
                while credit >= 1.0:
                    credit -= 1.0
        assert expected and [tick for tick, _ in seen] == expected

    @pytest.mark.parametrize("earned, credit", [(0.0, 0.0), (0.0, 0.75),
                                                (1e-17, 0.5)])
    def test_parks_at_a_fixpoint_below_one_message(self, earned, credit):
        """Earning nothing, or too little to move the float, the row's
        credit never reaches a message: arming it schedules nothing."""
        row = PacedRow(earned)
        row.pacer.credit[0] = credit
        row.pacer.arm(0)
        assert row.run(50) == []
        assert row.pacer.credit[0] == credit

    def test_a_row_earning_nothing_keeps_its_deposit(self):
        """A deposit above the refill cap (1.0 at zero earnings) survives
        any number of skipped ticks: only earned credit is capped."""
        row = PacedRow(0.0, spend=False)
        row.pacer.credit[0] = 3.5
        assert row.run(40, wake_at=(40,)) == [(40, 3.5)]

    def test_a_refused_row_retries_next_tick(self):
        """A row whose source link refused a send retries on the next
        tick of a steady link, funded or not."""
        row = PacedRow(0.25)
        calls = []

        def refuse_once(j, now):
            calls.append(row.topology.tick_no)
            return len(calls) == 1

        chain = boundaries(12)
        row.pacer.arm(0)
        for tick in range(1, 13):
            row.topology.on_network_tick(chain[tick])
            row.pacer.dispatch(chain[tick], refuse_once)
        assert calls[:2] == [4, 5]
