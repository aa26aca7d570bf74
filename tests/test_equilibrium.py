"""Tests for the threshold-equilibrium analysis."""

import math

import numpy as np
import pytest

from repro.analysis.equilibrium import (
    equilibrium_feedback_period,
    equilibrium_overhead_fraction,
    refreshes_per_feedback,
    threshold_drift_per_second,
)
from repro.core import threshold
from repro.core.threshold import ThresholdController


class TestClosedForms:
    def test_default_ratio_about_24(self):
        assert refreshes_per_feedback() == pytest.approx(
            math.log(10) / math.log(1.1))
        assert 24.0 < refreshes_per_feedback() < 24.3

    def test_default_overhead_about_4_percent(self):
        assert 0.035 < equilibrium_overhead_fraction() < 0.045

    def test_overhead_increases_with_alpha(self):
        assert equilibrium_overhead_fraction(alpha=1.5) \
            > equilibrium_overhead_fraction(alpha=1.1)

    def test_overhead_decreases_with_omega(self):
        assert equilibrium_overhead_fraction(omega=100.0) \
            < equilibrium_overhead_fraction(omega=10.0)

    def test_feedback_period_scales_linearly_with_sources(self):
        p10 = equilibrium_feedback_period(10, 50.0)
        p100 = equilibrium_feedback_period(100, 50.0)
        assert p100 == pytest.approx(10.0 * p10)

    def test_validation(self):
        with pytest.raises(ValueError):
            refreshes_per_feedback(alpha=1.0)
        with pytest.raises(ValueError):
            refreshes_per_feedback(omega=1.0)
        with pytest.raises(ValueError):
            equilibrium_feedback_period(0, 1.0)
        with pytest.raises(ValueError):
            equilibrium_feedback_period(1, 0.0)


class TestDrift:
    def test_zero_drift_at_equilibrium_rates(self):
        refresh_rate = 5.0
        feedback_rate = refresh_rate / refreshes_per_feedback()
        assert threshold_drift_per_second(
            refresh_rate, feedback_rate) == pytest.approx(0.0, abs=1e-12)

    def test_sign_conventions(self):
        assert threshold_drift_per_second(10.0, 0.0) > 0
        assert threshold_drift_per_second(0.0, 1.0) < 0

    def test_drift_predicts_simulated_threshold_walk(self, monkeypatch):
        """Feed a ThresholdController Poisson refresh/feedback streams and
        compare the realized ln-threshold slope with the prediction (the
        walk climbs ~e^150, so the numerical clamps are widened)."""
        monkeypatch.setattr(threshold, "THRESHOLD_FLOOR", 1e-300)
        monkeypatch.setattr(threshold, "THRESHOLD_CEIL", 1e300)
        rng = np.random.default_rng(0)
        refresh_rate, feedback_rate = 8.0, 0.2
        ctl = ThresholdController(initial=1.0)
        horizon = 500.0
        events = []
        for rate, kind in ((refresh_rate, "r"), (feedback_rate, "f")):
            t = 0.0
            while True:
                t += rng.exponential(1.0 / rate)
                if t > horizon:
                    break
                events.append((t, kind))
        for t, kind in sorted(events):
            if kind == "r":
                ctl.on_refresh(t)
            else:
                ctl.on_feedback(t)
        realized_slope = math.log(ctl.value) / horizon
        predicted = threshold_drift_per_second(refresh_rate,
                                               feedback_rate)
        assert realized_slope == pytest.approx(predicted, rel=0.15)
