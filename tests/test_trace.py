"""Tests for update traces: validation, replay, CSV round-trip."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.events import Phase
from repro.workloads.trace import TraceReplayer, UpdateTrace

from oracles import each_event


def small_trace():
    return UpdateTrace(
        num_objects=3,
        times=np.array([1.0, 2.0, 2.0, 5.5]),
        object_indices=np.array([0, 1, 0, 2]),
        values=np.array([1.0, -1.0, 2.0, 7.5]),
        initial_values=np.array([0.0, 10.0, -5.0]),
    )


class TestValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            UpdateTrace(num_objects=1, times=np.array([1.0]),
                        object_indices=np.array([0, 0]),
                        values=np.array([1.0]))

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError):
            UpdateTrace(num_objects=1, times=np.array([2.0, 1.0]),
                        object_indices=np.array([0, 0]),
                        values=np.array([1.0, 2.0]))

    def test_out_of_range_object_rejected(self):
        with pytest.raises(ValueError):
            UpdateTrace(num_objects=1, times=np.array([1.0]),
                        object_indices=np.array([1]),
                        values=np.array([1.0]))

    def test_default_initial_values_are_zero(self):
        trace = UpdateTrace(num_objects=2, times=np.array([1.0]),
                            object_indices=np.array([0]),
                            values=np.array([1.0]))
        np.testing.assert_array_equal(trace.initial_values, [0.0, 0.0])

    def test_horizon(self):
        assert small_trace().horizon == 5.5
        empty = UpdateTrace(num_objects=1, times=np.array([]),
                            object_indices=np.array([]),
                            values=np.array([]))
        assert empty.horizon == 0.0


class TestDerivedStats:
    def test_updates_per_object(self):
        np.testing.assert_array_equal(small_trace().updates_per_object(),
                                      [2, 1, 1])

    def test_empirical_rates(self):
        rates = small_trace().empirical_rates(horizon=10.0)
        np.testing.assert_allclose(rates, [0.2, 0.1, 0.1])

    def test_iteration(self):
        rows = list(small_trace())
        assert rows[0] == (1.0, 0, 1.0)
        assert len(rows) == 4


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        trace = small_trace()
        path = str(tmp_path / "trace.csv")
        trace.to_csv(path)
        loaded = UpdateTrace.from_csv(path)
        assert loaded.num_objects == trace.num_objects
        np.testing.assert_allclose(loaded.times, trace.times)
        np.testing.assert_array_equal(loaded.object_indices,
                                      trace.object_indices)
        np.testing.assert_allclose(loaded.values, trace.values)
        np.testing.assert_allclose(loaded.initial_values,
                                   trace.initial_values)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            UpdateTrace.from_csv(str(path))

    def test_round_trip_with_quiet_last_object(self, tmp_path):
        """A trailing object with no update must survive the round trip
        (to_csv's initial-value preamble carries it)."""
        trace = UpdateTrace(
            num_objects=5,
            times=np.array([1.0, 3.0]),
            object_indices=np.array([0, 2]),
            values=np.array([4.0, -2.0]),
        )
        path = str(tmp_path / "quiet.csv")
        trace.to_csv(path)
        loaded = UpdateTrace.from_csv(path)
        assert loaded.num_objects == 5
        np.testing.assert_allclose(loaded.initial_values, np.zeros(5))

    def test_external_csv_shrinks_without_override(self, tmp_path):
        """Regression setup: an external CSV (no t = -1 preamble) with a
        quiet tail infers too few objects; num_objects= restores them."""
        path = tmp_path / "external.csv"
        path.write_text("time,object,value\n1.0,0,4.0\n3.0,2,-2.0\n")
        inferred = UpdateTrace.from_csv(str(path))
        assert inferred.num_objects == 3  # the silent shrink
        fixed = UpdateTrace.from_csv(str(path), num_objects=5)
        assert fixed.num_objects == 5
        assert len(fixed.initial_values) == 5
        np.testing.assert_array_equal(fixed.object_indices, [0, 2])

    def test_num_objects_override_too_small_rejected(self, tmp_path):
        path = tmp_path / "external.csv"
        path.write_text("time,object,value\n1.0,4,1.0\n")
        with pytest.raises(ValueError, match="references object 4"):
            UpdateTrace.from_csv(str(path), num_objects=3)

    def test_wrong_arity_row_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,object,value\n1.0,0,4.0\n2.0,1\n")
        with pytest.raises(ValueError, match=r":3: expected 3 fields"):
            UpdateTrace.from_csv(str(path))

    def test_unparseable_row_names_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,object,value\n1.0,zero,4.0\n")
        with pytest.raises(ValueError, match=r":2: malformed trace row"):
            UpdateTrace.from_csv(str(path))

    def test_negative_object_index_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,object,value\n1.0,-2,4.0\n")
        with pytest.raises(ValueError, match="negative object index"):
            UpdateTrace.from_csv(str(path))


def replay(sim, trace, apply):
    """Replay ``trace`` into ``apply(time, index, value)``."""
    return TraceReplayer(sim, (trace.times, trace.object_indices,
                               trace.values), each_event(apply),
                         Phase.UPDATES)


class TestReplayer:
    def test_replays_all_updates_in_order(self):
        sim = Simulator()
        seen = []
        replay(sim, small_trace(), lambda t, i, v: seen.append((t, i, v)))
        sim.run_until(10.0)
        assert seen == [(1.0, 0, 1.0), (2.0, 1, -1.0), (2.0, 0, 2.0),
                        (5.5, 2, 7.5)]

    def test_only_one_event_in_flight(self):
        sim = Simulator()
        replayer = replay(sim, small_trace(), lambda t, i, v: None)
        assert sim.pending_events == 1
        sim.run_until(1.5)
        assert replayer.remaining == 3
        assert sim.pending_events == 1

    def test_stops_at_end_time(self):
        sim = Simulator()
        seen = []
        replay(sim, small_trace(), lambda t, i, v: seen.append(i))
        sim.run_until(2.0)
        assert seen == [0, 1, 0]

    def test_empty_trace(self):
        sim = Simulator()
        trace = UpdateTrace(num_objects=1, times=np.array([]),
                            object_indices=np.array([]),
                            values=np.array([]))
        replayer = replay(sim, trace, lambda t, i, v: None)
        sim.run_until(10.0)
        assert replayer.remaining == 0
