"""Tests for bandwidth profiles (constant and the paper's mB sine model)."""

import numpy as np
import pytest

from repro.network.bandwidth import (
    ConstantBandwidth,
    SineBandwidth,
    TraceBandwidth,
    make_bandwidth,
    split_bandwidth,
    ticks_until_capacity,
)


class TestConstantBandwidth:
    def test_rate_is_constant(self):
        profile = ConstantBandwidth(12.5)
        assert profile.rate(0.0) == 12.5
        assert profile.rate(1e6) == 12.5

    def test_capacity_is_rate_times_duration(self):
        profile = ConstantBandwidth(4.0)
        assert profile.capacity(2.0, 5.0) == pytest.approx(12.0)

    def test_mean_rate(self):
        assert ConstantBandwidth(7.0).mean_rate == 7.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ConstantBandwidth(-1.0)


class TestSineBandwidth:
    def test_rate_oscillates_around_mean(self):
        profile = SineBandwidth(mean=10.0, max_change_rate=0.25)
        times = np.linspace(0, 10 * profile.period, 5000)
        rates = np.array([profile.rate(t) for t in times])
        assert rates.min() >= 10.0 * (1 - 0.5) - 1e-9
        assert rates.max() <= 10.0 * (1 + 0.5) + 1e-9
        assert abs(rates.mean() - 10.0) < 0.05

    def test_rate_never_negative(self):
        profile = SineBandwidth(mean=10.0, max_change_rate=1.0,
                                amplitude=0.99)
        times = np.linspace(0, 3 * profile.period, 1000)
        assert all(profile.rate(t) >= 0 for t in times)

    def test_peak_relative_change_rate_matches_mb(self):
        """The derivative of C(t)/B must peak at the configured mB."""
        mB = 0.25
        profile = SineBandwidth(mean=10.0, max_change_rate=mB)
        times = np.linspace(0, 2 * profile.period, 20000)
        rates = np.array([profile.rate(t) for t in times])
        derivative = np.gradient(rates, times) / profile.mean
        assert abs(np.max(np.abs(derivative)) - mB) < 0.01 * mB + 1e-6

    def test_capacity_matches_numeric_integral(self):
        profile = SineBandwidth(mean=5.0, max_change_rate=0.05, phase=0.7)
        t = np.linspace(3.0, 47.0, 100001)
        numeric = np.trapezoid([profile.rate(x) for x in t], t)
        assert profile.capacity(3.0, 47.0) == pytest.approx(numeric,
                                                            rel=1e-6)

    def test_capacity_over_full_period_equals_mean(self):
        profile = SineBandwidth(mean=8.0, max_change_rate=0.1)
        period = profile.period
        assert profile.capacity(0.0, period) == pytest.approx(8.0 * period)

    def test_zero_mb_degenerates_to_constant(self):
        profile = SineBandwidth(mean=6.0, max_change_rate=0.0)
        assert profile.rate(123.4) == 6.0
        assert profile.capacity(0.0, 10.0) == pytest.approx(60.0)

    def test_invalid_amplitude_rejected(self):
        with pytest.raises(ValueError):
            SineBandwidth(mean=1.0, max_change_rate=0.1, amplitude=1.0)
        with pytest.raises(ValueError):
            SineBandwidth(mean=1.0, max_change_rate=0.1, amplitude=-0.1)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            SineBandwidth(mean=-1.0, max_change_rate=0.1)

    def test_phase_shifts_the_wave(self):
        a = SineBandwidth(mean=10.0, max_change_rate=0.25, phase=0.0)
        b = SineBandwidth(mean=10.0, max_change_rate=0.25, phase=np.pi)
        assert a.rate(1.0) != pytest.approx(b.rate(1.0))


def _random_trace(rng, segments):
    """A trace with irregular breakpoints and occasional zero-rate runs."""
    times = np.cumsum(rng.uniform(0.1, 5.0, size=segments)) - 0.1
    rates = rng.uniform(0.0, 10.0, size=segments)
    rates[rng.random(segments) < 0.2] = 0.0
    return TraceBandwidth(times=times, rates=rates)


def _capacity_reference(profile, t0, t1):
    """The per-breakpoint walk the cumulative array replaced."""
    if t1 <= t0:
        return 0.0
    times = profile.times
    rates = profile.rates
    edges = [t0] + [float(t) for t in times if t0 < t < t1] + [t1]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        i = max(0, int(np.searchsorted(times, a, side="right")) - 1)
        total += float(rates[i]) * (b - a)
    return total


class TestTraceBandwidthFastPath:
    """The precomputed-cumulative capacity path and its derived solvers."""

    def test_capacity_matches_reference_loop(self):
        rng = np.random.default_rng(7)
        for segments in (1, 2, 5, 40):
            profile = _random_trace(rng, segments)
            span = float(profile.times[-1]) + 5.0
            for _ in range(200):
                t0, t1 = sorted(rng.uniform(-3.0, span, size=2))
                assert profile.capacity(t0, t1) == pytest.approx(
                    _capacity_reference(profile, t0, t1), abs=1e-9)

    def test_scalar_rate_matches_searchsorted(self):
        rng = np.random.default_rng(11)
        profile = _random_trace(rng, 30)
        span = float(profile.times[-1]) + 5.0
        # Non-monotone query order exercises the cached-segment fallback
        # on both sides of the cache.
        for t in rng.uniform(-3.0, span, size=500):
            i = max(0, int(np.searchsorted(profile.times, t,
                                           side="right")) - 1)
            assert profile.rate(float(t)) == float(profile.rates[i])

    def test_flat_trace_is_bitwise_constant(self):
        trace = TraceBandwidth(times=[0.0], rates=[3.7])
        constant = ConstantBandwidth(3.7)
        assert trace.steady_rate == 3.7
        for t0, t1 in [(0.0, 1.0), (2.3, 7.9), (100.0, 100.1)]:
            assert trace.capacity(t0, t1) == constant.capacity(t0, t1)

    def test_multi_breakpoint_flat_trace_is_steady(self):
        trace = TraceBandwidth(times=[0.0, 5.0, 9.0],
                               rates=[2.0, 2.0, 2.0])
        assert trace.steady_rate == 2.0
        assert trace.mean_rate == 2.0

    def test_scaled_keeps_concrete_type(self):
        trace = TraceBandwidth(times=[0.0, 10.0], rates=[8.0, 2.0],
                               horizon=40.0)
        quarter = trace.scaled(0.25)
        assert isinstance(quarter, TraceBandwidth)
        assert quarter.horizon == 40.0
        assert quarter.capacity(0.0, 20.0) == pytest.approx(
            trace.capacity(0.0, 20.0) / 4.0)

    def test_split_keeps_concrete_type(self):
        trace = TraceBandwidth(times=[0.0, 10.0], rates=[8.0, 2.0])
        shares = split_bandwidth(trace, 4)
        assert len(shares) == 4
        assert all(isinstance(s, TraceBandwidth) for s in shares)
        assert shares[0].capacity(0.0, 20.0) == pytest.approx(
            trace.capacity(0.0, 20.0) / 4.0)
        # A single share must return the original object untouched.
        assert split_bandwidth(trace, 1) == [trace]

    def test_first_time_at_capacity(self):
        trace = TraceBandwidth(times=[0.0, 10.0, 20.0],
                               rates=[2.0, 0.0, 4.0])
        # Inside the first segment: 6 credits at rate 2 from t=1.
        assert trace.first_time_at_capacity(1.0, 6.0) == pytest.approx(4.0)
        # Across the outage: 2*9 = 18 by t=10, stalled to t=20, then
        # the remaining 6 at rate 4.
        assert trace.first_time_at_capacity(1.0, 24.0) == pytest.approx(
            21.5)
        assert trace.first_time_at_capacity(5.0, 0.0) == 5.0

    def test_first_time_at_capacity_parks_on_trailing_zero(self):
        dead = TraceBandwidth(times=[0.0, 10.0], rates=[1.0, 0.0])
        assert dead.first_time_at_capacity(0.0, 5.0) == pytest.approx(5.0)
        assert dead.first_time_at_capacity(0.0, 20.0) is None
        assert dead.first_time_at_capacity(12.0, 0.5) is None

    def test_first_time_matches_capacity_on_random_traces(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            profile = _random_trace(rng, 15)
            t0 = float(rng.uniform(0.0, profile.times[-1]))
            needed = float(rng.uniform(0.1, 30.0))
            crossing = profile.first_time_at_capacity(t0, needed)
            if crossing is None:
                horizon = float(profile.times[-1]) + 1000.0
                assert profile.capacity(t0, horizon) < needed
            else:
                assert profile.capacity(t0, crossing) == pytest.approx(
                    needed, abs=1e-9)

    def test_ticks_until_capacity_parks_on_trailing_zero(self):
        dead = TraceBandwidth(times=[0.0, 5.0], rates=[1.0, 0.0])
        assert ticks_until_capacity(dead, 6.0, 1.0, 1.0) is None
        # 3 credits cross at t=3, one tick early: tick 2.
        assert ticks_until_capacity(dead, 0.0, 1.0, 3.0) == 2

    def test_ticks_until_capacity_never_late(self):
        """The predicted tick never overshoots the true crossing tick."""
        rng = np.random.default_rng(31)
        dt = 1.0
        for _ in range(20):
            profile = _random_trace(rng, 12)
            t0 = float(rng.uniform(0.0, profile.times[-1]))
            needed = float(rng.uniform(0.5, 10.0))
            ticks = ticks_until_capacity(profile, t0, dt, needed)
            if ticks is None:
                continue
            before = profile.capacity(t0, t0 + (ticks - 1) * dt)
            assert before < needed + 1e-9

    def test_mean_rate_over(self):
        trace = TraceBandwidth(times=[0.0, 10.0], rates=[4.0, 1.0])
        assert trace.mean_rate_over(0.0, 20.0) == pytest.approx(2.5)
        assert trace.mean_rate_over(10.0, 30.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            trace.mean_rate_over(5.0, 5.0)


class TestMakeBandwidth:
    def test_zero_mb_gives_constant(self):
        assert isinstance(make_bandwidth(5.0), ConstantBandwidth)
        assert isinstance(make_bandwidth(5.0, 0.0), ConstantBandwidth)

    def test_positive_mb_gives_sine(self):
        profile = make_bandwidth(5.0, 0.05)
        assert isinstance(profile, SineBandwidth)
        assert profile.mean_rate == 5.0
