"""Tests for the divergence collector and reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weights import SineWeights, StaticWeights
from repro.metrics.collector import LOG_CAPACITY, DivergenceCollector
from repro.metrics.report import (
    RunResult,
    ascii_plot,
    format_series,
    format_table,
)

from oracles import ScalarCollector


class TestDivergenceCollector:
    def test_event_driven_integration_matches_hand_computation(self):
        weights = StaticWeights(np.array([2.0, 1.0]))
        collector = DivergenceCollector(2, weights)
        collector.record(0, 1.0, 3.0)  # obj0: 3 from t=1
        collector.record(1, 2.0, 1.0)  # obj1: 1 from t=2
        collector.record(0, 4.0, 0.0)  # obj0: back to 0 at t=4
        collector.finalize(10.0)
        # obj0: 3 * [1,4] = 9 unweighted, 18 weighted
        # obj1: 1 * [2,10] = 8 unweighted, 8 weighted
        assert collector.total_unweighted_average() == pytest.approx(1.7)
        assert collector.total_weighted_average() == pytest.approx(2.6)
        assert collector.mean_unweighted_average() == pytest.approx(0.85)

    def test_warmup_cutoff(self):
        collector = DivergenceCollector(1, StaticWeights.uniform(1),
                                        warmup=5.0)
        collector.record(0, 0.0, 2.0)
        collector.finalize(10.0)
        assert collector.total_unweighted_average() == pytest.approx(2.0)
        assert collector.duration == pytest.approx(5.0)

    def test_zero_divergence_costs_nothing(self):
        collector = DivergenceCollector(1, StaticWeights.uniform(1))
        collector.record(0, 1.0, 0.0)
        collector.finalize(10.0)
        assert collector.total_weighted_average() == 0.0

    def test_matches_dense_sampling_oracle(self):
        """Random event sequence: event-driven integration must agree with
        brute-force dense sampling."""
        rng = np.random.default_rng(0)
        weights = StaticWeights(rng.uniform(0.5, 2.0, size=3))
        collector = DivergenceCollector(3, weights, warmup=2.0)
        events = sorted(
            (float(t), int(rng.integers(0, 3)), float(rng.uniform(0, 4)))
            for t in rng.uniform(0, 20, size=60))
        collector_values = np.zeros(3)
        dense_t = np.linspace(0, 20.0, 200_001)
        dense = np.zeros((3, len(dense_t)))
        cursor = 0
        for t, idx, value in events:
            collector.record(idx, t, value)
            while cursor < len(dense_t) and dense_t[cursor] < t:
                dense[:, cursor] = collector_values
                cursor += 1
            collector_values[idx] = value
        while cursor < len(dense_t):
            dense[:, cursor] = collector_values
            cursor += 1
        collector.finalize(20.0)
        mask = dense_t >= 2.0
        dt = dense_t[1] - dense_t[0]
        expected = (dense[:, mask].sum(axis=1) * dt
                    * weights.values).sum() / (20.0 - 2.0)
        assert collector.total_weighted_average() == pytest.approx(
            expected, rel=1e-3)

    def test_resample_improves_fluctuating_weight_accuracy(self):
        """With sine weights, frequent resampling must converge to the
        exact integral; a single piece evaluated at its start must not."""
        sine = SineWeights(base=np.array([1.0]), amplitude=np.array([0.9]),
                           period=np.array([10.0]),
                           phase=np.array([np.pi / 2]))  # w(0) = 1.9
        # Exact: integral of d=1 * w(t) over [0, 10] = base * period = 10.
        coarse = DivergenceCollector(1, sine)
        coarse.record(0, 0.0, 1.0)
        coarse.finalize(10.0)
        fine = DivergenceCollector(1, sine)
        fine.record(0, 0.0, 1.0)
        for t in np.arange(0.1, 10.0, 0.1):
            fine.resample(float(t))
        fine.finalize(10.0)
        exact = 1.0  # time-average of w over a full period = base
        assert abs(fine.total_weighted_average() - exact) < 0.01
        assert abs(coarse.total_weighted_average() - exact) > 0.1

    def test_per_object_breakdown(self):
        collector = DivergenceCollector(2, StaticWeights.uniform(2))
        collector.record(0, 0.0, 1.0)
        collector.finalize(10.0)
        per_object = collector.per_object_weighted_average()
        assert per_object[0] == pytest.approx(1.0)
        assert per_object[1] == 0.0

    def test_mismatched_weight_model_rejected(self):
        with pytest.raises(ValueError):
            DivergenceCollector(3, StaticWeights.uniform(2))

    def test_resample_weighs_pieces_at_their_start(self):
        """A resample-split piece contributes w(piece start) * span, the
        same rule ``record`` applies -- not w(piece end)."""
        sine = SineWeights(base=np.array([2.0]), amplitude=np.array([0.5]),
                           period=np.array([40.0]),
                           phase=np.array([0.0]))
        collector = DivergenceCollector(1, sine)
        collector.record(0, 0.0, 1.0)
        collector.resample(5.0)
        collector.finalize(10.0)
        expected = (sine.weight(0, 0.0) * 5.0 + sine.weight(0, 5.0) * 5.0)
        assert collector.total_weighted_average() == pytest.approx(
            expected / 10.0)

    def test_resample_cadence_agnostic_under_static_weights(self):
        """With static weights any resample cadence leaves the integral
        bit-for-bit unchanged."""
        weights = StaticWeights(np.array([1.5, 0.5]))
        plain = DivergenceCollector(2, weights)
        resampled = DivergenceCollector(2, weights)
        for collector in (plain, resampled):
            collector.record(0, 0.0, 2.0)
            collector.record(1, 1.0, 3.0)
        for t in (2.0, 4.0, 6.0, 8.0):
            resampled.resample(t)
        plain.finalize(10.0)
        resampled.finalize(10.0)
        assert (plain.total_weighted_average()
                == resampled.total_weighted_average())


class TestRecordMany:
    """Many records at one instant -- what a batch refresh delivers --
    against the oracle's scalar collector, which integrates each record
    as it arrives."""

    def test_matches_sequential_records_bitwise(self):
        """Logged same-instant records equal the same records integrated
        one at a time, under fluctuating weights (each piece weighed at
        its own start)."""
        rng = np.random.default_rng(0)
        sine = SineWeights.random(6, rng)
        sequential = ScalarCollector(6, sine, warmup=1.0)
        batched = DivergenceCollector(6, sine, warmup=1.0)
        for collector in (sequential, batched):
            for i in range(6):
                collector.record(i, 0.5 + 0.3 * i, float(i))
        indices = np.array([4, 0, 2])
        values = np.array([0.25, 1.5, 0.0])
        for collector in (sequential, batched):
            for i, v in zip(indices, values):
                collector.record(int(i), 5.0, float(v))
        sequential.finalize(8.0)
        batched.finalize(8.0)
        assert (sequential.total_weighted_average()
                == batched.total_weighted_average())
        assert (sequential.total_unweighted_average()
                == batched.total_unweighted_average())
        np.testing.assert_array_equal(
            sequential.per_object_weighted_average(),
            batched.per_object_weighted_average())

    def test_empty_batch_is_a_noop(self):
        collector = DivergenceCollector(2, StaticWeights.uniform(2))
        reference = ScalarCollector(2, StaticWeights.uniform(2))
        for c in (collector, reference):
            c.record(0, 0.0, 1.0)
            c.record_at(np.empty(0, dtype=int), np.empty(0), np.empty(0))
            c.finalize(10.0)
        assert collector.total_weighted_average() == pytest.approx(1.0)
        assert (collector.total_weighted_average()
                == reference.total_weighted_average())

    def test_warmup_clamping_matches_record(self):
        weights = StaticWeights.uniform(3)
        sequential = ScalarCollector(3, weights, warmup=4.0)
        batched = DivergenceCollector(3, weights, warmup=4.0)
        for collector in (sequential, batched):
            collector.record(0, 1.0, 2.0)  # piece starts inside warm-up
        sequential.record(0, 6.0, 0.0)
        batched.record_at(np.array([0]), np.array([6.0]), np.array([0.0]))
        sequential.finalize(10.0)
        batched.finalize(10.0)
        assert (sequential.total_weighted_average()
                == batched.total_weighted_average())


NUM_OBJECTS = 5
READERS = ("duration", "total_weighted_average", "total_unweighted_average",
           "mean_weighted_average", "mean_unweighted_average",
           "per_object_weighted_average")
OPS = ("record", "record_at", "resample", "read", "burst")

indices = st.integers(0, NUM_OBJECTS - 1)
#: clock steps between operations; zero steps make same-instant ties
steps = st.sampled_from([0.0, 0.0, 0.125, 1.0, 2.75])
divergences = st.one_of(
    st.just(0.0), st.just(-0.0),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))


def make_weights(kind: str):
    if kind == "sine":
        # Runs below last under ~900 s, so sine arguments stay inside
        # [0, 100], where test_weights.py checks math.sin against np.sin.
        return SineWeights.random(NUM_OBJECTS, np.random.default_rng(5),
                                  period_range=(100.0, 500.0))
    return StaticWeights(np.array([0.5, 1.0, 2.0, 1e-3, 7.0]))


def assert_same_bits(got, want, what: str) -> None:
    np.testing.assert_array_equal(np.asarray(got, dtype=float).view(np.int64),
                                  np.asarray(want, dtype=float).view(np.int64),
                                  err_msg=what)


def assert_same_state(collector, reference) -> None:
    """Bit-identical integration state and totals, after a flush."""
    collector._flush()
    for name in ("_weighted_integral", "_unweighted_integral",
                 "_last_time", "_divergence"):
        assert_same_bits(getattr(collector, name), getattr(reference, name),
                         name)
    assert_same_bits(collector._end, reference._end, "_end")
    for reader in READERS:
        assert_same_bits(read(collector, reader), read(reference, reader),
                         reader)


def read(collector, reader: str):
    value = getattr(collector, reader)
    return value() if callable(value) else value


class TestLoggedCollector:
    """The production collector logs records and folds them in batches;
    any interleaving of its entry points must leave exactly the state of
    the oracle's scalar collector, which integrates every record at once."""

    def test_log_folds_when_full(self):
        """The log folds exactly when its LOG_CAPACITY-th record arrives,
        all of the logged records at once, and starts over empty."""
        weights = make_weights("sine")
        collector = DivergenceCollector(NUM_OBJECTS, weights)
        reference = ScalarCollector(NUM_OBJECTS, weights)
        folds = []
        fold = collector._fold

        def counting_fold(indices, times, divergences):
            folds.append(len(indices))
            fold(indices, times, divergences)

        collector._fold = counting_fold
        rng = np.random.default_rng(3)
        for k in range(2 * LOG_CAPACITY + 1):
            index = int(rng.integers(NUM_OBJECTS))
            divergence = float(rng.normal())
            for c in (collector, reference):
                c.record(index, 0.01 * k, divergence)
            assert folds == [LOG_CAPACITY] * ((k + 1) // LOG_CAPACITY)
        assert_same_state(collector, reference)
        assert folds == [LOG_CAPACITY] * 2 + [1]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["sine", "static"]),
           warmup=st.sampled_from([0.0, 3.0]), data=st.data())
    def test_interleavings_match_the_scalar_oracle(self, kind, warmup,
                                                   data):
        weights = make_weights(kind)
        collector = DivergenceCollector(NUM_OBJECTS, weights, warmup=warmup)
        reference = ScalarCollector(NUM_OBJECTS, weights, warmup=warmup)
        both = (collector, reference)
        now = 0.0
        for _ in range(data.draw(st.integers(1, 20))):
            op = data.draw(st.sampled_from(OPS))
            now += data.draw(steps)
            if op == "record":
                index, d = data.draw(indices), data.draw(divergences)
                for c in both:
                    c.record(index, now, d)
            elif op == "record_at":
                events = data.draw(st.lists(
                    st.tuples(indices, steps, divergences), max_size=12))
                times = []
                for _, step, _ in events:
                    now += step
                    times.append(now)
                for c in both:
                    c.record_at(np.array([e[0] for e in events],
                                         dtype=np.int64),
                                np.array(times),
                                np.array([e[2] for e in events]))
            elif op == "resample":
                for c in both:
                    c.resample(now)
            elif op == "read":
                reader = data.draw(st.sampled_from(READERS))
                assert_same_bits(read(collector, reader),
                                 read(reference, reader), reader)
            else:
                # A burst of scalar records long enough to fold the log.
                rng = np.random.default_rng(data.draw(st.integers(0, 99)))
                count = LOG_CAPACITY + int(rng.integers(64))
                burst = zip(rng.integers(0, NUM_OBJECTS, count).tolist(),
                            rng.choice([0.0, 0.001, 0.01], count).tolist(),
                            np.where(rng.random(count) < 0.3, 0.0,
                                     rng.normal(scale=1e3,
                                                size=count)).tolist())
                for index, step, d in burst:
                    now += step
                    for c in both:
                        c.record(index, now, d)
        assert_same_state(collector, reference)


class TestReporting:
    def test_run_result_overhead_fraction(self):
        result = RunResult(policy="x", metric="staleness", num_sources=1,
                           num_objects=1, duration=10.0,
                           weighted_divergence=0.5,
                           unweighted_divergence=0.5,
                           refreshes=80, feedback_messages=15,
                           poll_messages=5, messages_total=100)
        assert result.overhead_fraction == pytest.approx(0.2)

    def test_overhead_fraction_empty(self):
        result = RunResult(policy="x", metric="s", num_sources=1,
                           num_objects=1, duration=1.0,
                           weighted_divergence=0.0,
                           unweighted_divergence=0.0)
        assert result.overhead_fraction == 0.0

    def test_format_table_alignment(self):
        table = format_table(["name", "value"],
                             [["a", 1.0], ["long-name", 123.456]],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_series(self):
        text = format_series("ours", [1.0, 2.0], [0.5, 0.25])
        assert "ours" in text and "(1, 0.5)" in text

    def test_ascii_plot_contains_markers(self):
        plot = ascii_plot({"a": [(0, 0), (1, 1)], "b": [(0.5, 0.5)]})
        assert "o = a" in plot and "x = b" in plot

    def test_ascii_plot_empty(self):
        assert ascii_plot({}) == "(no data)"
