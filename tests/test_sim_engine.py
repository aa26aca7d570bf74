"""Tests for the discrete-event engine."""

import gc

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Phase


class TestScheduling:
    def test_schedule_runs_at_relative_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [2.5]

    def test_at_runs_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.at(4.0, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [4.0]

    def test_schedule_into_past_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_at_into_past_raises(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.at(4.0, lambda: None)

    def test_now_advances_to_end_time(self):
        sim = Simulator()
        sim.run_until(7.0)
        assert sim.now == pytest.approx(7.0)

    def test_events_at_end_time_execute(self):
        sim = Simulator()
        seen = []
        sim.at(5.0, lambda: seen.append("fired"))
        sim.run_until(5.0)
        assert seen == ["fired"]

    def test_events_after_end_time_do_not_execute(self):
        sim = Simulator()
        seen = []
        sim.at(5.1, lambda: seen.append("fired"))
        sim.run_until(5.0)
        assert seen == []
        sim.run_until(6.0)
        assert seen == ["fired"]

    def test_step_executes_one_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(2.0, lambda: seen.append(2))
        assert sim.step()
        assert seen == [1]
        assert sim.step()
        assert seen == [1, 2]
        assert not sim.step()


class TestBatchedReplayApi:
    def test_next_event_time_reports_head(self):
        sim = Simulator()
        assert sim.next_event_time is None
        sim.at(3.0, lambda: None)
        sim.at(1.5, lambda: None)
        assert sim.next_event_time == 1.5

    def test_run_horizon_published_during_run(self):
        import math

        sim = Simulator()
        seen = []
        sim.at(1.0, lambda: seen.append(sim.run_horizon))
        assert sim.run_horizon == math.inf
        sim.run_until(4.0)
        assert seen == [4.0]
        assert sim.run_horizon == math.inf

    def test_gc_paused_restores_state(self):
        import gc

        from repro.sim.engine import gc_paused

        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()
        gc.disable()
        try:
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # stays off if it was off
        finally:
            gc.enable()

    def test_gc_paused_is_reentrant(self):
        import gc

        from repro.sim.engine import gc_paused

        assert gc.isenabled()
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            # Inner exit must not re-enable: only the outermost does.
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_gc_paused_reentrant_preserves_disabled_state(self):
        import gc

        from repro.sim.engine import gc_paused

        gc.disable()
        try:
            with gc_paused():
                with gc_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
            assert not gc.isenabled()  # outermost restores "was off"
        finally:
            gc.enable()


class TestTickers:
    def test_ticker_fires_every_interval(self):
        sim = Simulator()
        times = []
        sim.every(1.0, times.append)
        sim.run_until(5.0)
        assert times == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_ticker_custom_start(self):
        sim = Simulator()
        times = []
        sim.every(2.0, times.append, start=0.5)
        sim.run_until(5.0)
        assert times == [0.5, 2.5, 4.5]

    def test_nonpositive_interval_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda t: None)

    def test_phase_order_within_tick(self):
        sim = Simulator()
        order = []
        sim.every(1.0, lambda t: order.append("cache"), phase=Phase.CACHE)
        sim.every(1.0, lambda t: order.append("updates"),
                  phase=Phase.UPDATES)
        sim.every(1.0, lambda t: order.append("network"),
                  phase=Phase.NETWORK)
        sim.run_until(1.0)
        assert order == ["updates", "network", "cache"]

    def test_pending_events_counts_live(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.every(1.0, lambda t: None)
        assert sim.pending_events == 2

    def test_cancelling_a_fired_event_keeps_the_count(self):
        sim = Simulator()
        fired = sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        sim.run_until(1.5)
        fired.cancel()
        assert sim.pending_events == 1


class TestClose:
    def test_close_drops_every_callback(self):
        sim = Simulator()
        fired = []
        sim.every(1.0, lambda t: fired.append(t))
        sim.schedule(0.5, lambda: fired.append("once"))
        sim.wake_at("src-0", 2.0, lambda: fired.append("wake"))
        sim.close()
        assert sim.pending_events == 0
        assert sim.pending_wakeups == 0
        sim.run_until(5.0)
        assert fired == []

    def test_closed_simulator_frees_without_the_collector(self):
        """Tickers and wakeups hold cycles through their own events;
        closing breaks them, so reference counting frees everything."""
        gc.collect()
        gc.disable()
        try:
            sim = Simulator()
            sim.every(1.0, lambda t: None)
            sim.schedule(4.0, lambda: None).cancel()
            sim.wake_at("src-0", 3.0, lambda sim=sim: sim.now)
            sim.run_until(1.5)
            sim.close()
            del sim
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestWakeAt:
    def test_wake_at_fires_once(self):
        sim = Simulator()
        fired = []
        sim.wake_at("src-0", 2.0, lambda: fired.append(sim.now))
        sim.run_until(5.0)
        assert fired == [2.0]
        assert sim.pending_wakeups == 0

    def test_wake_at_reschedules_the_same_key(self):
        """A second wake_at for the same key moves the timer."""
        sim = Simulator()
        fired = []
        sim.wake_at("src-0", 2.0, lambda: fired.append(("a", sim.now)))
        sim.wake_at("src-0", 4.0, lambda: fired.append(("b", sim.now)))
        sim.run_until(5.0)
        assert fired == [("b", 4.0)]

    def test_same_deadline_replaces_the_action(self):
        """Regression: rescheduling at the timer's current deadline must
        install the new callback, not silently keep the stale one."""
        sim = Simulator()
        fired = []
        sim.wake_at("src-0", 2.0, lambda: fired.append("stale"))
        sim.wake_at("src-0", 2.0, lambda: fired.append("fresh"))
        sim.run_until(5.0)
        assert fired == ["fresh"]
        assert sim.pending_wakeups == 0

    def test_same_deadline_reschedule_keeps_queue_position(self):
        """Replacing the action at an unchanged deadline must not move
        the timer behind same-timestamp events scheduled in between."""
        sim = Simulator()
        fired = []
        sim.wake_at("src-0", 2.0, lambda: fired.append("stale"))
        sim.at(2.0, lambda: fired.append("bystander"))
        sim.wake_at("src-0", 2.0, lambda: fired.append("fresh"))
        sim.run_until(5.0)
        # The wakeup kept its original (earlier) sequence number.
        assert fired == ["fresh", "bystander"]

    def test_cancel_after_same_deadline_reschedule(self):
        sim = Simulator()
        fired = []
        sim.wake_at("src-0", 2.0, lambda: fired.append("stale"))
        sim.wake_at("src-0", 2.0, lambda: fired.append("fresh"))
        sim.cancel_wake("src-0")
        sim.run_until(5.0)
        assert fired == []

    def test_same_key_different_phase_is_independent(self):
        from repro.sim.events import Phase
        sim = Simulator()
        fired = []
        sim.wake_at(0, 2.0, lambda: fired.append("sources"),
                    phase=Phase.SOURCES)
        sim.wake_at(0, 2.0, lambda: fired.append("cache"),
                    phase=Phase.CACHE)
        sim.run_until(3.0)
        assert fired == ["sources", "cache"]

    def test_cancel_wake(self):
        sim = Simulator()
        fired = []
        sim.wake_at("src-0", 2.0, lambda: fired.append(sim.now))
        sim.cancel_wake("src-0")
        sim.run_until(5.0)
        assert fired == []

    def test_rearm_from_within_the_action(self):
        sim = Simulator()
        fired = []

        def fire():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.wake_at("walker", sim.now + 2.0, fire)

        sim.wake_at("walker", 1.0, fire)
        sim.run_until(10.0)
        assert fired == [1.0, 3.0, 5.0]

    def test_wake_into_past_raises(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.wake_at("late", 1.0, lambda: None)
