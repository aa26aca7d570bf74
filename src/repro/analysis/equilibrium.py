"""Equilibrium analysis of the threshold-setting protocol (Sec 5).

The local threshold performs a multiplicative random walk:

    ln T  +=  ln(alpha)        per refresh sent
    ln T  -=  ln(omega)        per accepted feedback message

For the threshold to hover (zero drift), feedback must arrive at the rate

    feedback_rate = refresh_rate * ln(alpha) / ln(omega)

With the paper's best settings (alpha = 1.1, omega = 10) that ratio is
about 1 : 24 -- one feedback message per ~24 refreshes -- which is why the
protocol's communication overhead is a few percent: the cache-side budget
splits as ``C = refresh_rate + feedback_rate`` giving

    overhead fraction = r / (1 + r),   r = ln(alpha) / ln(omega)

independent of the number of sources.  These closed forms back the Sec 6
claim of "low communication overhead even in environments with a large
number of sources".  The gamma flood-detector compares elapsed time
against ``refreshes_per_feedback() * m / C`` per source, floored at five
ticks (``CooperativePolicy._feedback_period_for``).
"""

from __future__ import annotations

import math

from repro.core.threshold import DEFAULT_ALPHA, DEFAULT_OMEGA


def refreshes_per_feedback(alpha: float = DEFAULT_ALPHA,
                           omega: float = DEFAULT_OMEGA) -> float:
    """Refreshes whose threshold increase one feedback message cancels."""
    if alpha <= 1.0:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    if omega <= 1.0:
        raise ValueError(f"omega must be > 1, got {omega}")
    return math.log(omega) / math.log(alpha)


def equilibrium_overhead_fraction(alpha: float = DEFAULT_ALPHA,
                                  omega: float = DEFAULT_OMEGA) -> float:
    """Fraction of cache bandwidth spent on feedback at equilibrium."""
    r = 1.0 / refreshes_per_feedback(alpha, omega)
    return r / (1.0 + r)


def threshold_drift_per_second(refresh_rate: float, feedback_rate: float,
                               alpha: float = DEFAULT_ALPHA,
                               omega: float = DEFAULT_OMEGA) -> float:
    """Expected d/dt of ``ln T`` given observed per-source rates.

    Positive drift means the source is throttling itself (threshold
    rising); negative drift means feedback is pushing it to refresh more.
    Zero is the equilibrium condition.
    """
    return (refresh_rate * math.log(alpha)
            - feedback_rate * math.log(omega))
