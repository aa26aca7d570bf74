"""Tests for weight models (paper Sec 3.2)."""

import math
import platform

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weights import SineWeights, StaticWeights


class TestStaticWeights:
    def test_uniform(self):
        weights = StaticWeights.uniform(5, 2.0)
        assert weights.n == 5
        assert weights.weight(3, 100.0) == 2.0

    def test_vector_matches_scalar(self):
        weights = StaticWeights(np.array([1.0, 10.0, 3.0]))
        vec = weights.weights(0.0)
        for i in range(3):
            assert vec[i] == weights.weight(i, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StaticWeights(np.array([1.0, -1.0]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            StaticWeights(np.ones((2, 2)))


class TestSineWeights:
    def make(self):
        return SineWeights(base=np.array([2.0, 1.0]),
                           amplitude=np.array([0.5, 0.0]),
                           period=np.array([100.0, 50.0]),
                           phase=np.array([0.0, 1.0]))

    def test_weights_positive(self):
        rng = np.random.default_rng(0)
        weights = SineWeights.random(50, rng)
        for t in np.linspace(0, 1000, 200):
            assert (weights.weights(t) > 0).all()

    def test_oscillates_around_base(self):
        weights = self.make()
        t = np.linspace(0, 1000, 5000)
        series = np.array([weights.weight(0, x) for x in t])
        assert series.max() <= 3.0 + 1e-9
        assert series.min() >= 1.0 - 1e-9
        assert abs(series.mean() - 2.0) < 0.02

    def test_zero_amplitude_is_constant(self):
        weights = self.make()
        assert weights.weight(1, 0.0) == pytest.approx(weights.weight(1, 37.0))

    def test_vector_matches_scalar(self):
        weights = self.make()
        for t in (0.0, 13.7, 401.2):
            vec = weights.weights(t)
            for i in range(2):
                assert vec[i] == pytest.approx(weights.weight(i, t))

    def test_random_factory_shapes(self):
        weights = SineWeights.random(7, np.random.default_rng(1))
        assert weights.n == 7
        assert len(weights.weights(0.0)) == 7

    def test_invalid_amplitude_rejected(self):
        with pytest.raises(ValueError):
            SineWeights(base=np.ones(1), amplitude=np.array([1.0]),
                        period=np.ones(1), phase=np.zeros(1))

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            SineWeights(base=np.ones(1), amplitude=np.zeros(1),
                        period=np.zeros(1), phase=np.zeros(1))


def test_math_sin_matches_numpy_sin():
    """Precondition of the scalar sine weight: ``math.sin`` (one weight)
    and ``np.sin`` (``weights_at``, the collector's fold) agree bit for
    bit on [0, 100], which holds the weight model's arguments."""
    x = np.random.default_rng(0).uniform(0.0, 100.0, 200_000)
    scalar = np.array([math.sin(v) for v in x.tolist()])
    differ = np.count_nonzero(scalar.view(np.int64) != np.sin(x).view(np.int64))
    assert differ == 0, (
        f"math.sin and np.sin differ on {differ} of {len(x)} arguments in "
        f"[0, 100] with numpy {np.__version__} on {platform.platform()} "
        f"({platform.machine()}): a libm mismatch, so scalar and vectorized "
        f"weights, and hence the pinned outputs, cannot agree bit for bit")


SINE = SineWeights.random(30, np.random.default_rng(7))
SUBSET = np.array([17, 3, 29, 3, 11])


class TestSineScalarWeight:
    """The scalar getter reads Python-float mirrors; it must return the
    bits of the vectorized ``weights_at`` for the same object and time."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(index=st.integers(0, SINE.n - 1),
           t=st.floats(min_value=0.0, max_value=600.0))
    def test_weight_is_weights_at(self, index, t):
        assert_same_weight(SINE, index, t)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(local=st.integers(0, len(SUBSET) - 1),
           t=st.floats(min_value=0.0, max_value=600.0))
    def test_subset_weight_is_weights_at(self, local, t):
        sub = SINE.subset(SUBSET)
        assert_same_weight(sub, local, t)
        assert sub.weight(local, t) == SINE.weight(int(SUBSET[local]), t)

    def test_subset_mirrors_the_kept_omega(self):
        """``subset`` keeps omega's bits rather than round-tripping them
        through a period; its scalar mirror must follow.  These omegas
        are not of the form 2*pi/period, so a round trip moves them."""
        weights = SineWeights(np.ones(2), np.full(2, 0.5), np.ones(2),
                              np.zeros(2))
        omega = np.array([0.19058810230192771, 0.09043202530478937])
        assert (2.0 * np.pi / (2.0 * np.pi / omega) != omega).all()
        weights._set_omega(omega)
        sub = weights.subset(np.array([1, 0]))
        for t in (1.0, 37.5, 400.0):
            assert_same_weight(sub, 0, t)
            assert sub.weight(0, t) == weights.weight(1, t)

    def test_random_batch(self):
        rng = np.random.default_rng(8)
        indices = rng.integers(0, SINE.n, 5000)
        times = rng.uniform(0.0, 600.0, 5000)
        scalar = [SINE.weight(i, t)
                  for i, t in zip(indices.tolist(), times.tolist())]
        np.testing.assert_array_equal(
            np.array(scalar).view(np.int64),
            SINE.weights_at(times, indices).view(np.int64))


def assert_same_weight(weights, index, t):
    one = weights.weights_at(np.array([t]), np.array([index]))[0]
    assert (np.float64(weights.weight(index, t)).view(np.int64)
            == one.view(np.int64))
