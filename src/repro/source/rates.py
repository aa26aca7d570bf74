"""Source-side update-rate measurement (paper Sec 8.1).

The Poisson special-case priorities need each object's rate ``lambda_i``.
The paper describes two source-side options:

* "The number of updates divided by the time elapsed since the last
  refresh gives an estimate for the Poisson parameter" -- cheap but noisy
  right after a refresh;
* "Alternatively, the parameter may be monitored over a longer period of
  time" -- the Sec 10.1 future-work trade of adaptiveness for more
  reliable predictions.

:class:`OnlineRateEstimator` implements both as one mechanism: an
exponentially weighted average of observed inter-update gaps with a
configurable memory horizon.  A short horizon behaves like the
per-refresh-epoch estimate; a long horizon approximates the long-run rate.

:class:`EstimatedRatePriority` wraps any rate-aware priority function and
substitutes the online estimate for the oracle ``obj.rate``, so the same
scheduling code runs with measured rather than assumed knowledge.
"""

from __future__ import annotations

from repro.core.objects import DataObject
from repro.core.priority import PriorityFunction


class OnlineRateEstimator:
    """EWMA estimate of per-object Poisson rates from observed updates.

    Parameters
    ----------
    horizon:
        Effective memory in *update gaps*: the EWMA weight of each new
        inter-update gap is ``1 / horizon``.  ``horizon = 1`` uses only
        the most recent gap; large horizons approach the long-run mean.
    initial_rate:
        Estimate reported before any gap has been observed.
    """

    def __init__(self, horizon: float = 10.0,
                 initial_rate: float = 0.1) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        if initial_rate <= 0:
            raise ValueError(
                f"initial rate must be > 0, got {initial_rate}")
        self.horizon = float(horizon)
        self.initial_rate = float(initial_rate)
        self._mean_gap: dict[int, float] = {}
        self._last_update: dict[int, float] = {}

    def observe_update(self, index: int, now: float) -> None:
        """Record one update arrival for object ``index``."""
        last = self._last_update.get(index)
        self._last_update[index] = now
        if last is None or now <= last:
            return
        gap = now - last
        mean = self._mean_gap.get(index)
        if mean is None:
            self._mean_gap[index] = gap
        else:
            weight = 1.0 / self.horizon
            self._mean_gap[index] = (1.0 - weight) * mean + weight * gap

    def rate(self, index: int) -> float:
        """Current rate estimate for object ``index``."""
        mean = self._mean_gap.get(index)
        if mean is None or mean <= 0:
            return self.initial_rate
        return 1.0 / mean

    def observed(self, index: int) -> bool:
        """True once at least one inter-update gap has been measured."""
        return index in self._mean_gap


class EstimatedRatePriority(PriorityFunction):
    """A rate-aware priority driven by measured rather than oracle rates.

    Wraps e.g. :class:`repro.core.priority.PoissonStalenessPriority`;
    during evaluation the wrapped function sees ``obj.rate`` temporarily
    replaced by the online estimate.
    """

    def __init__(self, inner: PriorityFunction,
                 estimator: OnlineRateEstimator) -> None:
        self.inner = inner
        self.estimator = estimator
        self.name = f"estimated-{inner.name}"
        self.time_varying = inner.time_varying

    def priority(self, obj: DataObject, divergence: float, integral: float,
                 elapsed: float, weight: float) -> float:
        oracle_rate = obj.rate
        obj.rate = self.estimator.rate(obj.index)
        try:
            return self.inner.priority(obj, divergence, integral, elapsed,
                                       weight)
        finally:
            obj.rate = oracle_rate
