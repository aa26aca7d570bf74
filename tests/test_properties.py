"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm.allocation import solve_refresh_frequencies
from repro.cgm.freshness import phi, phi_inverse
from repro.core.divergence import Lag, Staleness, ValueDeviation
from repro.core.objects import DataObject
from repro.core.priority import AreaPriority
from repro.core.threshold import (
    THRESHOLD_CEIL,
    THRESHOLD_FLOOR,
    ThresholdTable,
)
from repro.core.tracking import PriorityTable
from repro.network.bandwidth import SineBandwidth

from oracles import belief_priority

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
update_times = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    min_size=1, max_size=30).map(sorted)

values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=30)


class TestSyncViewProperties:
    @given(times=update_times, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_integral_matches_brute_force(self, times, data):
        """Incremental integral accumulation must equal direct piecewise
        integration for arbitrary update sequences."""
        divs = data.draw(st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=len(times), max_size=len(times)))
        # Under value deviation from a reference of 0, an update to value
        # d sets the divergence to d.
        obj = DataObject(index=0, source_id=0)
        metric = ValueDeviation()
        for t, d in zip(times, divs):
            obj.apply_update(t, d, metric)
        end = times[-1] + 5.0
        # One more update at the end folds the last piece into the
        # accrued integral.
        obj.apply_update(end, 0.0, metric)
        # Brute force: piecewise-constant integral from 0 to end.
        brute = 0.0
        boundaries = [0.0] + list(times) + [end]
        current = 0.0
        div_iter = iter(divs)
        for lo, hi in zip(boundaries[:-1], boundaries[1:]):
            brute += current * (hi - lo)
            if hi != end:
                current = next(div_iter)
        assert abs(obj.belief_integral - brute) <= 1e-6 * max(1.0, brute)

    @given(times=update_times)
    @settings(max_examples=60, deadline=None)
    def test_lag_priority_nonnegative_and_nondecreasing(self, times):
        """Under the lag metric (nondecreasing divergence) the area
        priority is nonnegative and nondecreasing across updates."""
        obj = DataObject(index=0, source_id=0)
        metric = Lag()
        priority = AreaPriority()
        last = 0.0
        for k, t in enumerate(times):
            obj.apply_update(t, float(k), metric)
            current = belief_priority(priority, obj, t)
            assert current >= -1e-9
            assert current >= last - 1e-6
            last = current

    @given(times=update_times, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_priority_zero_after_refresh(self, times, data):
        obj = DataObject(index=0, source_id=0)
        metric = ValueDeviation()
        for k, t in enumerate(times):
            obj.apply_update(t, float(k + 1), metric)
        refresh_time = times[-1] + data.draw(
            st.floats(min_value=0.0, max_value=10.0))
        obj.mark_sent(refresh_time)
        assert belief_priority(AreaPriority(), obj, refresh_time + 1.0) == 0.0


class TestDivergenceProperties:
    @given(v1=st.floats(-1e9, 1e9), v2=st.floats(-1e9, 1e9),
           lag=st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_metrics_nonnegative(self, v1, v2, lag):
        for metric in (Staleness(), Lag(), ValueDeviation()):
            assert metric.compute(v1, v2, lag) >= 0.0

    @given(v=st.floats(-1e9, 1e9))
    @settings(max_examples=50, deadline=None)
    def test_equal_values_zero_staleness_and_deviation(self, v):
        assert Staleness().compute(v, v, 0) == 0.0
        assert ValueDeviation().compute(v, v, 0) == 0.0


class TestTrackerProperties:
    @given(ops=st.lists(st.tuples(st.integers(0, 10),
                                  st.floats(0.0, 100.0)),
                        min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_peek_always_maximum(self, ops):
        tracker = PriorityTable()
        oracle = {}
        for index, priority in ops:
            tracker.update(0, index, priority)
            if priority <= 0:
                oracle.pop(index, None)
            else:
                oracle[index] = priority
            top = tracker.peek(0)
            if not oracle:
                assert top is None
            else:
                assert top is not None
                assert top[1] == max(oracle.values())

    @given(ops=st.lists(st.tuples(st.integers(0, 5),
                                  st.floats(0.01, 10.0)),
                        min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_drain_is_sorted(self, ops):
        tracker = PriorityTable()
        for index, priority in ops:
            tracker.update(0, index, priority)
        drained = []
        while (top := tracker.pop(0)) is not None:
            drained.append(top[1])
        assert drained == sorted(drained, reverse=True)


class TestThresholdProperties:
    @given(events=st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_threshold_stays_in_bounds(self, events):
        # alpha = 2 and omega = 10 reach both clamps within 60 events.
        ctl = ThresholdTable(initial=1.0, alpha=2.0)
        t = 0.0
        for is_refresh in events:
            t += 1.0
            if is_refresh:
                ctl.on_refresh(0, t)
            else:
                ctl.on_feedback(0, t)
            assert THRESHOLD_FLOOR <= ctl.value[0] <= THRESHOLD_CEIL

    @given(n_refresh=st.integers(0, 50), n_feedback=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_threshold_order_independence_without_gamma(self, n_refresh,
                                                        n_feedback):
        """Without gamma, the threshold is a pure product of factors, so
        interleaving order must not matter."""
        a = ThresholdTable(initial=1.0)
        for _ in range(n_refresh):
            a.on_refresh(0, 0.0)
        for _ in range(n_feedback):
            a.on_feedback(0, 0.0)
        b = ThresholdTable(initial=1.0)
        for _ in range(n_feedback):
            b.on_feedback(0, 0.0)
        for _ in range(n_refresh):
            b.on_refresh(0, 0.0)
        assert np.isclose(a.value[0], b.value[0], rtol=1e-9)


class TestCgmProperties:
    @given(c=st.floats(0.0, 0.999999))
    @settings(max_examples=100, deadline=None)
    def test_phi_inverse_round_trip(self, c):
        x = phi_inverse(np.array([c]))
        assert abs(phi(x)[0] - c) < 1e-8

    @given(rates=st.lists(st.floats(0.001, 10.0), min_size=1,
                          max_size=20),
           budget=st.floats(0.1, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_allocation_budget_and_nonnegativity(self, rates, budget):
        freqs = solve_refresh_frequencies(np.array(rates), budget)
        assert (freqs >= 0.0).all()
        assert abs(freqs.sum() - budget) < 1e-4 * max(1.0, budget)


class TestBandwidthProperties:
    @given(mean=st.floats(0.1, 1000.0), mb=st.floats(0.001, 1.0),
           t0=st.floats(0.0, 1e4), span=st.floats(0.001, 100.0))
    @settings(max_examples=80, deadline=None)
    def test_capacity_nonnegative_and_additive(self, mean, mb, t0, span):
        profile = SineBandwidth(mean, mb)
        mid = t0 + span / 2.0
        end = t0 + span
        whole = profile.capacity(t0, end)
        split = profile.capacity(t0, mid) + profile.capacity(mid, end)
        assert whole >= 0.0
        assert np.isclose(whole, split, rtol=1e-9, atol=1e-9)


class TestLinkProperties:
    @given(ops=st.lists(st.tuples(st.sampled_from(["send", "tick"]),
                                  st.integers(1, 5)),
                        min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_conservation_under_random_traffic(self, ops):
        """sent == delivered + queued after any operation sequence, and
        deliveries never exceed accrued capacity plus the burst bank."""
        from repro.network.bandwidth import ConstantBandwidth
        from repro.network.link import Link
        from repro.network.messages import RefreshMessage

        rate = 2.0
        delivered = []
        link = Link("prop", ConstantBandwidth(rate),
                    deliver=delivered.append)
        now = 0.0
        for op, count in ops:
            if op == "tick":
                now += 1.0
                link.refill(now)
                link.drain()
            else:
                for _ in range(count):
                    link.transmit_or_queue(
                        RefreshMessage(source_id=0, sent_at=now))
            assert link.total_sent == link.total_delivered + link.queued
        # Capacity accounting: the link can never deliver more than the
        # total accrued capacity plus its initial burst allowance.
        assert link.total_delivered <= rate * now + rate + 1.0
