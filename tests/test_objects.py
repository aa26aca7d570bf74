"""Tests for per-object synchronization state (belief vs. truth views,
the flat ``belief_*`` and ``truth_*`` fields of one :class:`DataObject`)."""

import pytest

from repro.core.divergence import Lag, Staleness, ValueDeviation
from repro.core.objects import DataObject
from repro.core.priority import AreaPriority

from oracles import belief_priority


class TestSyncView:
    """The belief view's divergence history (the accrued integral and
    the refresh epoch) and the truth view's divergence, which
    :class:`DataObject` maintains in place."""

    def test_initial_state_synchronized(self):
        obj = DataObject(index=0, source_id=0, value=3.0)
        assert obj.belief_divergence == 0.0
        assert obj.belief_integral == 0.0
        assert obj.belief_value == 3.0
        assert obj.truth_divergence == 0.0
        assert obj.truth_value == 3.0
        assert belief_priority(AreaPriority(), obj, 10.0) == 0.0

    def test_integral_accrues_piecewise(self):
        obj = DataObject(index=0, source_id=0)
        metric = ValueDeviation()
        obj.apply_update(2.0, 1.0, metric)  # divergence 1 from t=2
        obj.apply_update(5.0, 3.0, metric)  # divergence 3 from t=5
        # integral over [0, 5]: 0*2 + 1*3, folded in at the change
        assert obj.belief_integral == pytest.approx(3.0)
        assert obj.belief_change_time == 5.0
        assert obj.belief_divergence == 3.0
        assert obj.truth_divergence == 3.0

    def test_area_priority_matches_definition(self):
        obj = DataObject(index=0, source_id=0)
        metric = ValueDeviation()
        obj.apply_update(2.0, 1.0, metric)
        obj.apply_update(5.0, 3.0, metric)
        now = 7.0
        # integral over [0, 7]: 0*2 + 1*3 + 3*2 = 9
        expected = (now - 0.0) * 3.0 - 9.0
        assert belief_priority(AreaPriority(), obj, now) == \
            pytest.approx(expected)

    def test_reset_clears_history(self):
        obj = DataObject(index=0, source_id=0)
        metric = ValueDeviation()
        for k in range(5):
            obj.apply_update(1.0 + k, 9.0 + k, metric)
        obj.mark_sent(8.0)
        assert obj.belief_divergence == 0.0
        assert obj.belief_value == 13.0
        assert obj.belief_count == 5
        assert obj.belief_integral == 0.0
        assert obj.belief_refresh_time == 8.0
        assert belief_priority(AreaPriority(), obj, 10.0) == 0.0
        assert obj.truth_divergence == 13.0  # truth waits for delivery

    def test_accrue_is_idempotent_at_same_time(self):
        obj = DataObject(index=0, source_id=0)
        metric = ValueDeviation()
        obj.apply_update(1.0, 2.0, metric)
        obj.apply_update(4.0, 5.0, metric)
        obj.apply_update(4.0, 6.0, metric)
        assert obj.belief_integral == pytest.approx(6.0)
        assert obj.belief_divergence == 6.0


class TestDataObjectUpdates:
    def test_update_advances_both_views(self):
        obj = DataObject(index=0, source_id=0, value=0.0)
        obj.apply_update(1.0, 1.0, Staleness())
        assert obj.belief_divergence == 1.0
        assert obj.truth_divergence == 1.0
        assert obj.update_count == 1
        assert obj.last_update_time == 1.0

    def test_lag_counts_against_each_view_reference(self):
        obj = DataObject(index=0, source_id=0, value=0.0)
        metric = Lag()
        obj.apply_update(1.0, 1.0, metric)
        obj.apply_update(2.0, 2.0, metric)
        obj.mark_sent(2.0)
        obj.apply_update(3.0, 3.0, metric)
        assert obj.belief_divergence == 1.0  # one update since send
        assert obj.truth_divergence == 3.0  # three since cache applied

    def test_mark_sent_resets_belief_only(self):
        obj = DataObject(index=0, source_id=0, value=0.0)
        obj.apply_update(1.0, 5.0, ValueDeviation())
        obj.mark_sent(1.5)
        assert obj.belief_divergence == 0.0
        assert obj.truth_divergence == pytest.approx(5.0)

    def test_apply_refresh_with_current_snapshot_synchronizes(self):
        obj = DataObject(index=0, source_id=0, value=0.0)
        metric = ValueDeviation()
        obj.apply_update(1.0, 5.0, metric)
        obj.apply_refresh(2.0, delivered_value=5.0, delivered_count=1,
                          metric=metric)
        assert obj.truth_divergence == 0.0

    def test_apply_refresh_with_stale_snapshot_keeps_residual(self):
        """A refresh delayed in a queue delivers an old value; truth
        divergence must reflect the updates that happened in flight."""
        obj = DataObject(index=0, source_id=0, value=0.0)
        metric = ValueDeviation()
        obj.apply_update(1.0, 5.0, metric)
        obj.mark_sent(1.0)  # snapshot value=5, count=1
        obj.apply_update(2.0, 8.0, metric)
        obj.apply_refresh(3.0, delivered_value=5.0, delivered_count=1,
                          metric=metric)
        assert obj.truth_divergence == pytest.approx(3.0)

    def test_apply_refresh_stale_snapshot_lag(self):
        obj = DataObject(index=0, source_id=0, value=0.0)
        metric = Lag()
        for k in range(4):
            obj.apply_update(float(k + 1), float(k + 1), metric)
        obj.apply_refresh(5.0, delivered_value=2.0, delivered_count=2,
                          metric=metric)
        assert obj.truth_divergence == pytest.approx(2.0)

    def test_sync_views_synchronizes_everything(self):
        obj = DataObject(index=0, source_id=0, value=0.0)
        metric = Staleness()
        obj.apply_update(1.0, 1.0, metric)
        obj.sync_views(2.0)
        assert obj.belief_divergence == 0.0
        assert obj.truth_divergence == 0.0
        assert obj.belief_value == 1.0
        assert obj.truth_value == 1.0
        assert obj.belief_refresh_time == 2.0

    def test_metric_runs_once_while_the_views_agree(self):
        """With no refresh in flight both views share their reference,
        so one metric evaluation serves both; a refresh in flight splits
        them."""
        calls = []

        def delta(a, b):
            calls.append((a, b))
            return abs(a - b)

        metric = ValueDeviation(delta=delta)
        obj = DataObject(index=0, source_id=0)
        obj.apply_update(1.0, 2.0, metric)
        assert len(calls) == 1
        obj.mark_sent(1.5)
        obj.apply_update(2.0, 3.0, metric)
        assert len(calls) == 3
        assert (obj.belief_divergence, obj.truth_divergence) == (1.0, 3.0)


class TestPriorityIdentity:
    def test_lag_area_priority_telescopes_to_update_offsets(self):
        """Algebraic identity: for the lag metric the general area priority
        equals the sum over unpropagated updates of
        ``(update_time - last_refresh_time)``.  (In expectation under a
        Poisson process this is ``u (u + 1) / (2 lambda)``, the paper's
        special-case formula.)"""
        obj = DataObject(index=0, source_id=0, value=0.0)
        metric = Lag()
        update_times = [1.0, 2.5, 4.0, 4.5]
        for k, t in enumerate(update_times):
            obj.apply_update(t, float(k + 1), metric)
        for now in (4.5, 6.0, 11.0):
            expected = sum(t - 0.0 for t in update_times)
            assert belief_priority(AreaPriority(), obj, now) == \
                pytest.approx(expected)

    def test_staleness_area_priority_is_time_stayed_fresh(self):
        """For staleness, the area above the curve is the time the object
        remained fresh after its refresh -- objects that stay fresh long
        are the best candidates to refresh again (expected value 1/lambda,
        the paper's special case)."""
        obj = DataObject(index=0, source_id=0, value=0.0)
        metric = Staleness()
        obj.apply_update(2.0, 1.0, metric)
        obj.apply_update(4.0, 2.0, metric)
        now = 9.0
        assert belief_priority(AreaPriority(), obj, now) == \
            pytest.approx(2.0 - 0.0)
