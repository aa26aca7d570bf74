"""Tests for the CGM Lagrange frequency allocation."""

import numpy as np
import pytest

from repro.cgm import allocation
from repro.cgm.allocation import (
    _brentq,
    expected_total_staleness,
    frequencies_for_multiplier,
    solve_refresh_frequencies,
)
from repro.cgm.freshness import staleness_at_frequency


class TestBudgetSatisfaction:
    @pytest.mark.parametrize("budget", [0.5, 5.0, 50.0])
    def test_frequencies_sum_to_budget(self, budget):
        rng = np.random.default_rng(0)
        rates = rng.uniform(0.01, 1.0, size=40)
        freqs = solve_refresh_frequencies(rates, budget)
        assert freqs.sum() == pytest.approx(budget, rel=1e-6)
        assert (freqs >= 0).all()

    def test_zero_budget_gives_zero(self):
        freqs = solve_refresh_frequencies(np.array([0.5, 1.0]), 0.0)
        np.testing.assert_array_equal(freqs, 0.0)

    def test_zero_rate_objects_never_polled(self):
        rates = np.array([0.0, 0.5, 0.0, 1.0])
        freqs = solve_refresh_frequencies(rates, 3.0)
        assert freqs[0] == 0.0 and freqs[2] == 0.0
        assert freqs.sum() == pytest.approx(3.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            solve_refresh_frequencies(np.array([-0.1]), 1.0)


class TestCGMShape:
    def test_hot_objects_starved_under_tight_budget(self):
        """CGM's hallmark result: with a tight budget, the hottest objects
        receive *zero* refreshes rather than proportionally more."""
        rates = np.array([0.01, 0.1, 100.0])
        freqs = solve_refresh_frequencies(rates, 1.0)
        assert freqs[2] == 0.0
        assert freqs[0] > 0.0 and freqs[1] > 0.0

    def test_not_proportional_to_rates(self):
        rates = np.array([0.1, 0.2])
        freqs = solve_refresh_frequencies(rates, 2.0)
        assert freqs[1] / freqs[0] < 2.0  # sublinear in rate

    def test_equal_rates_equal_frequencies(self):
        rates = np.full(5, 0.3)
        freqs = solve_refresh_frequencies(rates, 10.0)
        np.testing.assert_allclose(freqs, 2.0, rtol=1e-6)

    def test_more_budget_never_hurts(self):
        rng = np.random.default_rng(3)
        rates = rng.uniform(0.01, 1.0, size=20)
        stalenesses = []
        for budget in (2.0, 5.0, 10.0, 20.0):
            freqs = solve_refresh_frequencies(rates, budget)
            stalenesses.append(expected_total_staleness(rates, freqs))
        assert all(a > b for a, b in zip(stalenesses, stalenesses[1:]))


class TestOptimality:
    def test_beats_uniform_and_proportional_allocations(self):
        """The Lagrange solution must dominate the two obvious heuristics
        on predicted staleness."""
        rng = np.random.default_rng(11)
        rates = rng.uniform(0.01, 2.0, size=30)
        budget = 10.0
        optimal = solve_refresh_frequencies(rates, budget)
        uniform = np.full_like(rates, budget / len(rates))
        proportional = budget * rates / rates.sum()
        s_opt = expected_total_staleness(rates, optimal)
        assert s_opt <= expected_total_staleness(rates, uniform) + 1e-9
        assert s_opt <= expected_total_staleness(rates, proportional) + 1e-9

    def test_perturbation_does_not_improve(self):
        """Moving budget between any pair of refreshed objects must not
        reduce total staleness (first-order optimality)."""
        rates = np.array([0.05, 0.2, 0.6])
        budget = 2.0
        freqs = solve_refresh_frequencies(rates, budget)
        base = expected_total_staleness(rates, freqs)
        eps = 1e-3
        for i in range(3):
            for j in range(3):
                if i == j or freqs[j] < eps:
                    continue
                perturbed = freqs.copy()
                perturbed[i] += eps
                perturbed[j] -= eps
                assert expected_total_staleness(rates, perturbed) \
                    >= base - 1e-9

    def test_weighted_allocation_prefers_heavy_objects(self):
        rates = np.array([0.5, 0.5])
        weights = np.array([10.0, 1.0])
        freqs = solve_refresh_frequencies(rates, 1.0, weights=weights)
        assert freqs[0] > freqs[1]

    def test_weighted_budget_satisfied(self):
        rates = np.array([0.3, 0.7, 0.1])
        weights = np.array([1.0, 5.0, 2.0])
        freqs = solve_refresh_frequencies(rates, 4.0, weights=weights)
        assert freqs.sum() == pytest.approx(4.0, rel=1e-6)


class TestMultiplierFunction:
    def test_monotone_in_mu(self):
        rates = np.array([0.2, 0.9])
        f_small = frequencies_for_multiplier(rates, 0.1)
        f_large = frequencies_for_multiplier(rates, 1.0)
        assert (f_small >= f_large).all()

    def test_mu_above_cutoff_zeroes_object(self):
        rates = np.array([2.0])  # cutoff 1/lambda = 0.5
        freqs = frequencies_for_multiplier(rates, 0.6)
        assert freqs[0] == 0.0

    def test_nonpositive_mu_rejected(self):
        with pytest.raises(ValueError):
            frequencies_for_multiplier(np.array([1.0]), 0.0)


def random_allocation_inputs(rng):
    """One seeded ``solve_refresh_frequencies`` input: a few to a few
    dozen objects, some never updated, optional weights (some zero) and
    a budget from deep starvation to ample."""
    n = int(rng.integers(1, 40))
    rates = rng.uniform(0.0, 3.0, size=n) * (rng.random(n) < 0.9)
    weights = None
    if rng.random() < 0.5:
        weights = rng.uniform(0.0, 5.0, size=n) * (rng.random(n) < 0.95)
    budget = float(10.0 ** rng.uniform(-4.0, 2.5))
    return rates, budget, weights


class TestBrentq:
    """``_brentq`` is scipy's ``brentq.c``, transcribed."""

    def test_matches_scipy_bit_for_bit(self, monkeypatch):
        """On 1,000 seeded allocations both solvers evaluate the residual
        at the same points and return the same root, bit for bit (the
        second solver's evaluations come from the first's memo)."""
        optimize = pytest.importorskip("scipy.optimize")
        roots = []

        def both(f, a, b, xtol):
            memo = {}

            def recorded(points):
                def g(x):
                    points.append(x.hex())
                    if x not in memo:
                        memo[x] = f(x)
                    return memo[x]
                return g

            ours, theirs = [], []
            root = _brentq(recorded(ours), a, b, xtol)
            want = optimize.brentq(recorded(theirs), a, b, xtol=xtol)
            assert (root.hex(), ours) == (want.hex(), theirs)
            roots.append(root)
            return root

        monkeypatch.setattr(allocation, "_brentq", both)
        rng = np.random.default_rng(2002)
        while len(roots) < 1_000:
            solve_refresh_frequencies(*random_allocation_inputs(rng))

    def test_steep_root(self):
        """Interpolation, extrapolation and bisection steps all run."""
        root = _brentq(lambda x: x ** 9 - 0.5, 0.0, 4.0, xtol=1e-14)
        assert root == pytest.approx(0.5 ** (1 / 9), abs=1e-13)

    def test_root_at_either_end(self):
        assert _brentq(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12) == 1.0
        assert _brentq(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-12) == 3.0

    def test_same_sign_bracket_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)

    def test_non_convergence_raises(self):
        with pytest.raises(RuntimeError, match="after 3 iterations"):
            _brentq(lambda x: x ** 3 - 2.0, 0.0, 2.0, xtol=1e-300,
                    maxiter=3)
