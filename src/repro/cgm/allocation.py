"""CGM refresh-frequency allocation by Lagrange multipliers.

Cho & Garcia-Molina's freshness-optimal policy ("Synchronizing a database to
improve freshness", SIGMOD 2000) chooses per-object refresh frequencies
``f_i`` minimizing total expected staleness subject to a total refresh
budget ``sum f_i = B``.  The stationarity condition is::

    w_i * g(lambda_i, 1/f_i) = mu        for every refreshed object i
    f_i = 0                              whenever mu >= w_i / lambda_i

with ``g`` from :mod:`repro.cgm.freshness` and ``mu`` the multiplier.  The
paper under reproduction notes the multiplier "was shown not to be solvable
mathematically [analytically]" and that the authors tuned it by repeated
runs; here we simply solve the one-dimensional root problem numerically
(Brent's method on the monotone budget residual), which finds the same
optimum without manual tuning.

:func:`_brentq` is Brent's method (R. P. Brent, *Algorithms for
Minimization Without Derivatives*, 1973, ch. 4) transcribed from scipy's
``brentq.c``: the same defaults, errors and float operations in the same
order, so it returns scipy's root bit for bit without importing scipy.
"""

from __future__ import annotations

import sys
from math import copysign
from typing import Callable

import numpy as np

from repro.cgm.freshness import phi_inverse, staleness_at_frequency


def _brentq(f: Callable[[float], float], xa: float, xb: float,
            xtol: float, maxiter: int = 100) -> float:
    """A root of ``f`` in ``[xa, xb]``, where ``f(xa)`` and ``f(xb)``
    differ in sign: inverse quadratic interpolation or the secant step
    while it shrinks the bracket fast enough, bisection otherwise.
    ``maxiter`` and the relative tolerance are ``brentq``'s defaults."""
    rtol = 4 * sys.float_info.epsilon
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if copysign(1.0, fpre) == copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre and fcur and copysign(1.0, fpre) != copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def frequencies_for_multiplier(rates: np.ndarray, mu: float,
                               weights: np.ndarray | None = None
                               ) -> np.ndarray:
    """Optimal frequencies for a given Lagrange multiplier ``mu``.

    Monotonically nonincreasing in ``mu`` componentwise.
    """
    rates = np.asarray(rates, dtype=float)
    if weights is None:
        weights = np.ones_like(rates)
    else:
        weights = np.asarray(weights, dtype=float)
    if mu <= 0:
        raise ValueError(f"mu must be > 0, got {mu}")
    freqs = np.zeros_like(rates)
    with np.errstate(divide="ignore"):
        cutoff = weights / np.where(rates > 0, rates, np.inf)
    active = (rates > 0) & (weights > 0) & (mu < cutoff)
    if active.any():
        c = mu * rates[active] / weights[active]
        x = phi_inverse(c)
        # x = lambda * I, so f = 1/I = lambda / x.
        freqs[active] = rates[active] / x
    return freqs


def solve_refresh_frequencies(rates: np.ndarray, budget: float,
                              weights: np.ndarray | None = None,
                              tol: float = 1e-13) -> np.ndarray:
    """Frequencies ``f_i >= 0`` with ``sum f_i = budget`` minimizing staleness.

    Objects with ``rate == 0`` never need refreshing and get ``f = 0``.
    A zero or negative budget returns all-zero frequencies.
    """
    rates = np.asarray(rates, dtype=float)
    if (rates < 0).any():
        raise ValueError("rates must be nonnegative")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if (weights < 0).any():
            raise ValueError("weights must be nonnegative")
    if budget <= 0 or not (rates > 0).any():
        return np.zeros_like(rates)

    def residual(log_mu: float) -> float:
        freqs = frequencies_for_multiplier(rates, float(np.exp(log_mu)),
                                           weights)
        return float(freqs.sum()) - budget

    # Bracket the root in log space: small mu -> huge total frequency,
    # mu at or above max(w/lambda) -> zero total frequency (so the upper
    # bracket sits strictly above the cutoff, where the residual is
    # exactly -budget regardless of how small the budget is).
    w = np.ones_like(rates) if weights is None else weights
    positive = (rates > 0) & (w > 0)
    hi = float(np.log(np.max(w[positive] / rates[positive]))) + 0.1
    lo = hi - 1.0
    for _ in range(200):
        if residual(lo) > 0:
            break
        lo -= 2.0
    else:  # pragma: no cover - pathological budget
        raise RuntimeError("could not bracket the allocation multiplier")
    log_mu = _brentq(residual, lo, hi, xtol=tol)
    freqs = frequencies_for_multiplier(rates, float(np.exp(log_mu)),
                                       weights)
    # Deep in the starved regime the root lies in phi's exponential tail,
    # where float resolution on log(mu) limits budget accuracy to ~1e-4;
    # a final proportional rescale pins the budget exactly at negligible
    # cost to optimality.
    total = float(freqs.sum())
    if total > 0.0:
        freqs *= budget / total
        return freqs
    # Degenerate regime: the budget is so small relative to the update
    # rates that the optimal multiplier is within float rounding of the
    # cutoff and every frequency underflowed to zero.  In the budget -> 0
    # limit the whole budget belongs to the object(s) with the highest
    # marginal value w/lambda.
    with np.errstate(divide="ignore"):
        cutoff = np.where(positive, w / np.where(positive, rates, 1.0),
                          -np.inf)
    best = cutoff == cutoff.max()
    freqs = np.zeros_like(rates)
    freqs[best] = budget / best.sum()
    return freqs


def expected_total_staleness(rates: np.ndarray, freqs: np.ndarray,
                             weights: np.ndarray | None = None) -> float:
    """Predicted total (weighted) staleness under a frequency allocation."""
    rates = np.asarray(rates, dtype=float)
    freqs = np.asarray(freqs, dtype=float)
    staleness = staleness_at_frequency(rates, freqs)
    if weights is not None:
        staleness = staleness * np.asarray(weights, dtype=float)
    return float(np.sum(staleness))
