"""Tests for the adaptive threshold controller (paper Sec 5)."""

import pytest

from repro.core.threshold import ThresholdController

from oracles import flood_factor


class TestRefreshIncrease:
    def test_refresh_multiplies_by_alpha(self):
        ctl = ThresholdController(initial=1.0, alpha=1.1, omega=10.0)
        ctl.on_refresh(0.0)
        assert ctl.value == pytest.approx(1.1)
        ctl.on_refresh(0.0)
        assert ctl.value == pytest.approx(1.21)

    def test_refresh_counter(self):
        ctl = ThresholdController()
        for _ in range(5):
            ctl.on_refresh(0.0)
        assert ctl.refreshes == 5

    def test_ceil_clamps(self):
        ctl = ThresholdController(initial=1.0, alpha=2.0, ceil=4.0)
        for _ in range(10):
            ctl.on_refresh(0.0)
        assert ctl.value == 4.0


class TestFeedbackDecrease:
    def test_feedback_divides_by_omega(self):
        ctl = ThresholdController(initial=100.0, omega=10.0)
        ctl.on_feedback(1.0)
        assert ctl.value == pytest.approx(10.0)

    def test_feedback_at_capacity_is_ignored(self):
        """Footnote 3: a source at full send capacity must not lower its
        threshold (it would build a flood-prone backlog)."""
        ctl = ThresholdController(initial=100.0, omega=10.0)
        ctl.on_feedback(1.0, at_capacity=True)
        assert ctl.value == 100.0
        assert ctl.feedbacks_ignored == 1
        assert ctl.feedbacks == 0

    def test_ignored_feedback_still_resets_gamma_clock(self):
        ctl = ThresholdController(initial=1.0, feedback_period=1.0)
        ctl.on_feedback(50.0, at_capacity=True)
        assert flood_factor(ctl, 50.5) == 1.0

    def test_floor_clamps(self):
        ctl = ThresholdController(initial=1.0, omega=10.0, floor=1e-3)
        for t in range(10):
            ctl.on_feedback(float(t))
        assert ctl.value == 1e-3


class TestGamma:
    """The flood factor ``gamma`` a refresh applies on top of ``alpha``."""

    def test_gamma_one_without_feedback_period(self):
        ctl = ThresholdController()
        assert flood_factor(ctl, 1e9) == 1.0

    def test_gamma_one_within_period(self):
        ctl = ThresholdController(feedback_period=10.0)
        assert flood_factor(ctl, 5.0) == 1.0
        assert flood_factor(ctl, 10.0) == 1.0

    def test_gamma_grows_past_period(self):
        """Flood acceleration: the longer feedback is overdue, the faster
        thresholds climb."""
        ctl = ThresholdController(feedback_period=10.0)
        assert flood_factor(ctl, 20.0) == pytest.approx(2.0)
        assert flood_factor(ctl, 50.0) == pytest.approx(5.0)

    def test_gamma_resets_on_feedback(self):
        ctl = ThresholdController(feedback_period=10.0)
        ctl.on_feedback(100.0)
        assert flood_factor(ctl, 105.0) == 1.0

    def test_refresh_applies_gamma(self):
        ctl = ThresholdController(initial=1.0, alpha=1.1,
                                  feedback_period=10.0)
        ctl.on_refresh(30.0)  # gamma = 3
        assert ctl.value == pytest.approx(1.1 * 3.0)


class TestValidation:
    def test_bad_initial(self):
        with pytest.raises(ValueError):
            ThresholdController(initial=0.0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            ThresholdController(alpha=0.9)

    def test_bad_omega(self):
        with pytest.raises(ValueError):
            ThresholdController(omega=1.0)

    def test_bad_feedback_period(self):
        with pytest.raises(ValueError):
            ThresholdController(feedback_period=0.0)


class TestEquilibriumBehavior:
    def test_refreshes_and_feedback_balance(self):
        """With alpha=1.1 and omega=10, about ln(10)/ln(1.1) ~ 24 refreshes
        cancel one feedback -- the order-of-magnitude asymmetry the paper
        explains in Sec 6.1."""
        ctl = ThresholdController(initial=1.0, alpha=1.1, omega=10.0)
        for _ in range(24):
            ctl.on_refresh(0.0)
        grown = ctl.value
        ctl.on_feedback(0.0)
        assert ctl.value == pytest.approx(grown / 10.0)
        assert 0.9 < ctl.value < 1.1  # roughly back to the start
