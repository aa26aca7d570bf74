"""Low-level sample accumulators.

:class:`ReadSampleAccumulator` averages point samples of a signal (client
reads) with a warm-up cutoff: samples before ``warmup`` are discarded,
matching the paper's "we measured average divergence over a period of
... after an initial warm-up period".
"""

from __future__ import annotations

import numpy as np


class ReadSampleAccumulator:
    """Mean of weighted point samples with a warm-up cutoff.

    The divergence collector integrates piecewise-constant signals;
    client reads instead *sample* a signal at discrete instants.  Each
    sample contributes ``value`` and ``weight * value`` (the read-time
    analogue of the paper's weighted divergence integrand); means divide by
    the sample count, so under Poisson read times the weighted mean is an
    unbiased estimate of the paper's ``(1/T) integral w(t) D(t) dt``.
    Samples strictly before ``warmup`` are discarded, exactly like the
    collector's warm-up window.
    """

    __slots__ = ("warmup", "count", "_sum", "_weighted_sum")

    def __init__(self, warmup: float = 0.0) -> None:
        self.warmup = warmup
        self.count = 0
        self._sum = 0.0
        self._weighted_sum = 0.0

    def record(self, now: float, value: float,
               weight: float = 1.0) -> None:
        """One point sample of the signal at time ``now``."""
        if now < self.warmup:
            return
        self.count += 1
        self._sum += value
        self._weighted_sum += weight * value

    def record_many(self, times, values, weights) -> None:
        """Batched :meth:`record`, bit-for-bit against the scalar loop.

        Float addition is not associative, so a naive ``sum()`` of the
        batch would drift from sequential accumulation in the last ulp.
        ``np.cumsum`` *is* the sequential fold (every prefix is emitted),
        so seeding it with the running total reproduces the exact
        sequence of additions :meth:`record` would have performed.
        """
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        weights = np.asarray(weights, dtype=float)
        keep = times >= self.warmup
        if not keep.all():
            values = values[keep]
            weights = weights[keep]
        if not len(values):
            return
        self.count += len(values)
        self._sum = float(np.cumsum(
            np.concatenate(([self._sum], values)))[-1])
        self._weighted_sum = float(np.cumsum(
            np.concatenate(([self._weighted_sum], weights * values)))[-1])

    def mean(self) -> float:
        """Unweighted mean over the recorded samples (0 when empty)."""
        if self.count == 0:
            return 0.0
        return self._sum / self.count

    def weighted_mean(self) -> float:
        """Mean of ``weight * value`` over the recorded samples."""
        if self.count == 0:
            return 0.0
        return self._weighted_sum / self.count
