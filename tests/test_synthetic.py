"""Tests for synthetic workload builders (Secs 4.3 / 6 setups)."""

import numpy as np
import pytest

from repro.core.weights import SineWeights, StaticWeights
from repro.workloads.synthetic import (
    Workload,
    skewed_validation,
    uniform_random_walk,
)

from oracles import random_walk_values


class TestRandomWalkValues:
    """The per-object reference walk of tests/oracles.py."""

    def test_length(self):
        rng = np.random.default_rng(0)
        assert len(random_walk_values(10, rng)) == 10
        assert len(random_walk_values(0, rng)) == 0

    def test_steps_are_unit(self):
        rng = np.random.default_rng(1)
        values = random_walk_values(100, rng, initial=5.0)
        diffs = np.diff(np.concatenate([[5.0], values]))
        assert set(np.unique(diffs)) <= {-1.0, 1.0}

    def test_custom_step(self):
        rng = np.random.default_rng(2)
        values = random_walk_values(50, rng, step=0.25)
        diffs = np.abs(np.diff(np.concatenate([[0.0], values])))
        np.testing.assert_allclose(diffs, 0.25)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            random_walk_values(-1, np.random.default_rng(0))


class TestUniformRandomWalk:
    def test_layout(self):
        rng = np.random.default_rng(0)
        workload = uniform_random_walk(3, 4, 100.0, rng)
        assert workload.num_objects == 12
        assert workload.source_of(0) == 0
        assert workload.source_of(4) == 1
        assert workload.source_of(11) == 2

    def test_rates_in_range(self):
        rng = np.random.default_rng(1)
        workload = uniform_random_walk(2, 50, 100.0, rng,
                                       rate_range=(0.2, 0.4))
        assert (workload.rates >= 0.2).all()
        assert (workload.rates <= 0.4).all()

    def test_poisson_update_counts_track_rates(self):
        rng = np.random.default_rng(2)
        workload = uniform_random_walk(1, 30, 2000.0, rng)
        observed = workload.trace.empirical_rates(2000.0)
        # correlation between configured and realized rates must be strong
        corr = np.corrcoef(workload.rates, observed)[0, 1]
        assert corr > 0.98

    def test_bernoulli_arrivals_tick_aligned(self):
        rng = np.random.default_rng(3)
        workload = uniform_random_walk(1, 5, 50.0, rng,
                                       arrivals="bernoulli")
        times = workload.trace.times
        np.testing.assert_allclose(times, np.round(times))

    def test_unknown_arrivals_rejected(self):
        with pytest.raises(ValueError):
            uniform_random_walk(1, 1, 10.0, np.random.default_rng(0),
                                arrivals="fractal")

    def test_fluctuating_weights_flag(self):
        rng = np.random.default_rng(4)
        static = uniform_random_walk(1, 5, 10.0, rng)
        assert isinstance(static.weights, StaticWeights)
        rng = np.random.default_rng(4)
        sine = uniform_random_walk(1, 5, 10.0, rng,
                                   fluctuating_weights=True)
        assert isinstance(sine.weights, SineWeights)

    def test_reproducible_given_seed(self):
        a = uniform_random_walk(2, 5, 200.0, np.random.default_rng(9))
        b = uniform_random_walk(2, 5, 200.0, np.random.default_rng(9))
        np.testing.assert_allclose(a.trace.times, b.trace.times)
        np.testing.assert_allclose(a.trace.values, b.trace.values)
        np.testing.assert_allclose(a.rates, b.rates)


class TestSkewedValidation:
    def test_paper_parameters(self):
        rng = np.random.default_rng(0)
        workload = skewed_validation(500.0, rng)
        assert workload.num_objects == 100
        assert workload.num_sources == 1
        weights = workload.weights.weights(0.0)
        assert sorted(set(weights)) == [1.0, 10.0]
        assert (weights == 10.0).sum() == 50
        assert sorted(set(workload.rates)) == [0.01, 1.0]
        assert (workload.rates == 1.0).sum() == 50

    def test_weight_and_rate_halves_independent(self):
        """The two random halves must not be perfectly aligned (they are
        drawn independently in the paper)."""
        rng = np.random.default_rng(1)
        workload = skewed_validation(100.0, rng)
        weights = workload.weights.weights(0.0)
        heavy_and_fast = ((weights == 10.0) & (workload.rates == 1.0)).sum()
        assert 0 < heavy_and_fast < 50

    def test_fast_objects_update_every_second(self):
        rng = np.random.default_rng(2)
        workload = skewed_validation(100.0, rng)
        fast = np.nonzero(workload.rates == 1.0)[0]
        counts = workload.trace.updates_per_object()
        assert (counts[fast] == 100).all()

    def test_odd_object_count_rejected(self):
        with pytest.raises(ValueError):
            skewed_validation(10.0, np.random.default_rng(0),
                              num_objects=99)


class TestWorkloadValidation:
    def test_mismatched_rates_rejected(self):
        rng = np.random.default_rng(0)
        good = uniform_random_walk(1, 4, 10.0, rng)
        with pytest.raises(ValueError):
            Workload(num_sources=1, objects_per_source=5,
                     rates=good.rates, trace=good.trace,
                     weights=good.weights, horizon=10.0)
