"""Tests for the per-object reference samplers of tests/oracles.py.

The batched samplers of ``repro.workloads.update_process`` are pinned
against these loops (``tests/test_vectorized_workloads.py``), so the
loops themselves must be right.
"""

import numpy as np
import pytest

from oracles import bernoulli_tick_times, merge_event_streams, poisson_times


class TestPoissonTimes:
    def test_empty_for_zero_rate(self):
        rng = np.random.default_rng(0)
        assert len(poisson_times(0.0, 100.0, rng)) == 0

    def test_empty_for_zero_horizon(self):
        rng = np.random.default_rng(0)
        assert len(poisson_times(1.0, 0.0, rng)) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_times(-1.0, 10.0, np.random.default_rng(0))

    def test_times_sorted_and_in_range(self):
        rng = np.random.default_rng(1)
        times = poisson_times(0.5, 1000.0, rng)
        assert (np.diff(times) >= 0).all()
        assert times.min() >= 0.0 and times.max() < 1000.0

    def test_count_matches_rate(self):
        rng = np.random.default_rng(2)
        times = poisson_times(0.5, 20_000.0, rng)
        assert len(times) == pytest.approx(10_000, rel=0.05)

    def test_interarrivals_exponential(self):
        """Mean and CV of interarrival gaps must match Exp(lambda)."""
        rng = np.random.default_rng(3)
        rate = 2.0
        gaps = np.diff(poisson_times(rate, 50_000.0, rng))
        assert gaps.mean() == pytest.approx(1.0 / rate, rel=0.05)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, rel=0.05)


class TestBernoulliTickTimes:
    def test_prob_one_updates_every_tick(self):
        rng = np.random.default_rng(0)
        times = bernoulli_tick_times(1.0, 10.0, rng)
        np.testing.assert_allclose(times, np.arange(1.0, 11.0))

    def test_prob_zero_never_updates(self):
        rng = np.random.default_rng(0)
        assert len(bernoulli_tick_times(0.0, 100.0, rng)) == 0

    def test_times_are_tick_aligned(self):
        rng = np.random.default_rng(1)
        times = bernoulli_tick_times(0.5, 100.0, rng)
        np.testing.assert_allclose(times, np.round(times))

    def test_frequency_matches_probability(self):
        rng = np.random.default_rng(2)
        times = bernoulli_tick_times(0.3, 50_000.0, rng)
        assert len(times) == pytest.approx(15_000, rel=0.05)

    def test_invalid_probability_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            bernoulli_tick_times(1.5, 10.0, rng)

    def test_custom_dt(self):
        rng = np.random.default_rng(0)
        times = bernoulli_tick_times(1.0, 10.0, rng, dt=2.5)
        np.testing.assert_allclose(times, [2.5, 5.0, 7.5, 10.0])


class TestMergeEventStreams:
    def test_empty(self):
        times, indices = merge_event_streams([])
        assert len(times) == 0 and len(indices) == 0

    def test_merge_preserves_pairing(self):
        streams = [np.array([1.0, 4.0]), np.array([2.0, 3.0])]
        times, indices = merge_event_streams(streams)
        np.testing.assert_allclose(times, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(indices, [0, 1, 1, 0])

    def test_ties_broken_by_object_index(self):
        streams = [np.array([5.0]), np.array([5.0]), np.array([5.0])]
        _, indices = merge_event_streams(streams)
        np.testing.assert_array_equal(indices, [0, 1, 2])

    def test_total_count_preserved(self):
        rng = np.random.default_rng(5)
        streams = [poisson_times(0.4, 500.0, rng) for _ in range(7)]
        times, indices = merge_event_streams(streams)
        assert len(times) == sum(len(s) for s in streams)
        assert (np.diff(times) >= 0).all()
