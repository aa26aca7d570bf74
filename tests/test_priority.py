"""Tests for refresh priority functions (paper Secs 3.3-3.4, 4.3, 9)."""

import pytest

from repro.core.divergence import Lag, Staleness, ValueDeviation
from repro.core.objects import DataObject
from repro.core.priority import (
    AreaPriority,
    DivergenceBoundPriority,
    PoissonLagPriority,
    PoissonStalenessPriority,
    SimpleDivergencePriority,
    default_priority_for,
    make_priority,
)

from oracles import belief_priority


def walk_object(update_times, metric, rate=0.5, values=None):
    obj = DataObject(index=0, source_id=0, rate=rate, value=0.0)
    values = values or [float(k + 1) for k in range(len(update_times))]
    for t, v in zip(update_times, values):
        obj.apply_update(t, v, metric)
    return obj


class TestAreaPriority:
    def test_zero_for_synchronized_object(self):
        obj = DataObject(index=0, source_id=0, value=0.0)
        assert belief_priority(AreaPriority(), obj, 10.0) == 0.0

    def test_recent_diverger_beats_early_diverger(self):
        """The paper's Figure 3: same current divergence, but the object
        that diverged recently gets the higher priority."""
        metric = ValueDeviation()
        late = walk_object([9.0], metric, values=[4.0])
        early = walk_object([1.0], metric, values=[4.0])
        now = 10.0
        priority = AreaPriority()
        assert belief_priority(priority, late, now) > belief_priority(
            priority, early, now)

    def test_priority_constant_between_updates(self):
        """Sec 8.2: priority only changes when divergence changes."""
        metric = ValueDeviation()
        obj = walk_object([2.0], metric, values=[3.0])
        priority = AreaPriority()
        assert belief_priority(priority, obj, 5.0) == pytest.approx(
            belief_priority(priority, obj, 50.0))

    def test_weight_multiplies(self):
        metric = ValueDeviation()
        obj = walk_object([2.0], metric, values=[3.0])
        priority = AreaPriority()
        assert belief_priority(priority, obj, 5.0, weight=10.0) == \
            pytest.approx(10.0 * belief_priority(priority, obj, 5.0))

    def test_nondecreasing_under_nondecreasing_divergence(self):
        metric = Lag()
        obj = DataObject(index=0, source_id=0, value=0.0)
        priority = AreaPriority()
        last = 0.0
        for k, t in enumerate([1.0, 2.0, 4.0, 7.0]):
            obj.apply_update(t, float(k), metric)
            current = belief_priority(priority, obj, t)
            assert current >= last - 1e-12
            last = current


class TestPoissonStalenessPriority:
    def test_fresh_object_zero_priority(self):
        obj = DataObject(index=0, source_id=0, rate=0.5, value=0.0)
        assert belief_priority(PoissonStalenessPriority(), obj, 5.0) == 0.0

    def test_stale_priority_is_inverse_rate(self):
        metric = Staleness()
        slow = walk_object([1.0], metric, rate=0.01)
        fast = walk_object([1.0], metric, rate=1.0)
        priority = PoissonStalenessPriority()
        assert belief_priority(priority, slow, 2.0) == pytest.approx(100.0)
        assert belief_priority(priority, fast, 2.0) == pytest.approx(1.0)

    def test_zero_rate_stale_object_is_infinite(self):
        metric = Staleness()
        obj = walk_object([1.0], metric, rate=0.0)
        assert belief_priority(PoissonStalenessPriority(), obj,
                               2.0) == float("inf")


class TestPoissonLagPriority:
    def test_quadratic_in_lag(self):
        metric = Lag()
        obj = walk_object([1.0, 2.0, 3.0], metric, rate=2.0)
        expected = 3.0 * 4.0 / (2.0 * 2.0)
        assert belief_priority(PoissonLagPriority(), obj,
                               4.0) == pytest.approx(expected)

    def test_zero_when_caught_up(self):
        obj = DataObject(index=0, source_id=0, rate=2.0, value=0.0)
        assert belief_priority(PoissonLagPriority(), obj, 4.0) == 0.0

    def test_expected_consistency_with_area_priority(self):
        """For updates exactly at their Poisson-expected times (k/lambda),
        the general area priority equals the special-case formula."""
        rate = 0.5
        metric = Lag()
        lag = 4
        update_times = [(k + 1) / rate for k in range(lag)]
        obj = walk_object(update_times, metric, rate=rate)
        now = update_times[-1]
        area = belief_priority(AreaPriority(), obj, now)
        special = belief_priority(PoissonLagPriority(), obj, now)
        assert area == pytest.approx(special)


class TestSimpleDivergencePriority:
    def test_equals_current_divergence(self):
        metric = ValueDeviation()
        obj = walk_object([1.0], metric, values=[7.0])
        assert belief_priority(SimpleDivergencePriority(), obj, 5.0) == 7.0


class TestDivergenceBoundPriority:
    def test_quadratic_growth(self):
        obj = DataObject(index=0, source_id=0, value=0.0, max_rate=2.0)
        priority = DivergenceBoundPriority()
        assert belief_priority(priority, obj, 3.0) == pytest.approx(2.0 * 9 / 2)
        assert priority.time_varying

    def test_grows_with_time_without_updates(self):
        obj = DataObject(index=0, source_id=0, value=0.0, max_rate=1.0)
        priority = DivergenceBoundPriority()
        assert (belief_priority(priority, obj, 2.0)
                < belief_priority(priority, obj, 4.0))


class TestFactories:
    @pytest.mark.parametrize("name", [
        "area", "poisson-staleness", "poisson-lag", "simple", "bound"])
    def test_make_priority(self, name):
        assert make_priority(name).name == name

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            make_priority("magic")

    def test_default_priority_selection(self):
        assert default_priority_for("staleness").name == "poisson-staleness"
        assert default_priority_for("lag").name == "poisson-lag"
        assert default_priority_for("deviation").name == "area"
        assert default_priority_for("staleness",
                                    rates_known=False).name == "area"
