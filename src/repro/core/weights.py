"""Weight models (paper Sec 3.2).

An object's refresh weight is ``W(O, t) = I(O, t) * P(O, t)`` --
importance times popularity.  Both factors (and hence the product) may vary
over time; the paper's experiments use "weights [that] vary over time
following sine-wave patterns with randomly-assigned amplitudes and periods".

Weight models are indexed by global object index and are vectorized:
``weights(t)`` returns the full weight vector, which the metrics collector
uses for exact piecewise integration, while schedulers query single weights
at priority-computation time (consistent with the paper's
``W(O, t) ~= W(O, t_now)`` approximation between refreshes).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np


def float_list(values: np.ndarray) -> list[float]:
    """``values.tolist()``, except that values which all have the same
    bits share one float object instead of a 24 B float each.

    Per-object columns read in per-event hot paths are Python lists (one
    list index beats a numpy scalar extraction, and ``tolist()``
    converts float64 exactly); uniform ones, such as one weight or one
    update rate for every object, then cost a list slot per object.
    """
    bits = values.view(np.uint64)
    if len(values) and (bits == bits[0]).all():
        return [float(values[0])] * len(values)
    return values.tolist()


class WeightModel(ABC):
    """Time-varying nonnegative weights over ``n`` objects."""

    def __init__(self, n: int) -> None:
        # n == 0 is a valid degenerate model: shard slicing can produce an
        # empty shard, whose weight vector is simply empty.
        if n < 0:
            raise ValueError(f"object count must be >= 0, got n={n}")
        self.n = n

    @abstractmethod
    def weight(self, index: int, t: float) -> float:
        """Weight of object ``index`` at time ``t``."""

    @abstractmethod
    def weights(self, t: float) -> np.ndarray:
        """Vector of all ``n`` weights at time ``t``."""

    def weights_at(self, times: np.ndarray,
                   indices: np.ndarray | None = None) -> np.ndarray:
        """Weight of each selected object at its *own* evaluation time.

        ``times[k]`` is the evaluation time of object ``indices[k]``
        (``indices = None`` selects all ``n`` objects, so ``times`` must
        then have length ``n``).  This is the vectorized form the metrics
        collector needs for exact piecewise integration, where each
        object's current piece started at a different time.  Subclasses
        override with closed forms; this fallback loops and matches
        :meth:`weight` exactly.
        """
        if indices is None:
            indices = np.arange(self.n)
        return np.array([self.weight(int(i), float(t))
                         for i, t in zip(indices, times)], dtype=float)

    def subset(self, indices: np.ndarray) -> "WeightModel":
        """Weight model restricted to ``indices``, relabeled ``0..k-1``.

        Shard-parallel execution runs each cache's source block as an
        independent sub-simulation over locally-renumbered objects; the
        sub-model must return bit-identical weights for the surviving
        objects (``subset(idx).weight(j, t) == weight(idx[j], t)``).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support shard slicing")


class StaticWeights(WeightModel):
    """Constant per-object weights (the ``I(O,t) = 1`` special case and the
    skewed half-10/half-1 assignment of Sec 4.3)."""

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("weights must be a 1-D array")
        if (values < 0).any():
            raise ValueError("weights must be nonnegative")
        super().__init__(len(values))
        self.values = values
        # Python-float mirror for the scalar getter.
        self._scalars = float_list(values)

    @classmethod
    def uniform(cls, n: int, value: float = 1.0) -> "StaticWeights":
        return cls(np.full(n, float(value)))

    def weight(self, index: int, t: float) -> float:
        return self._scalars[index]

    def weights(self, t: float) -> np.ndarray:
        return self.values

    def weights_at(self, times: np.ndarray,
                   indices: np.ndarray | None = None) -> np.ndarray:
        if indices is None:
            return self.values
        return self.values[indices]

    def subset(self, indices: np.ndarray) -> "StaticWeights":
        return StaticWeights(self.values[indices])


class SineWeights(WeightModel):
    """Sinusoidally fluctuating weights.

    ``w_i(t) = base_i * (1 + amp_i * sin(2 pi t / period_i + phase_i))``
    with ``0 <= amp_i < 1`` so weights stay positive.
    """

    def __init__(self, base: np.ndarray, amplitude: np.ndarray,
                 period: np.ndarray, phase: np.ndarray) -> None:
        base = np.asarray(base, dtype=float)
        amplitude = np.asarray(amplitude, dtype=float)
        period = np.asarray(period, dtype=float)
        phase = np.asarray(phase, dtype=float)
        if not (base.shape == amplitude.shape == period.shape == phase.shape):
            raise ValueError("all parameter arrays must share one shape")
        if (base < 0).any():
            raise ValueError("base weights must be nonnegative")
        if ((amplitude < 0) | (amplitude >= 1)).any():
            raise ValueError("amplitudes must be in [0, 1)")
        if (period <= 0).any():
            raise ValueError("periods must be positive")
        super().__init__(len(base))
        self.base = base
        self.amplitude = amplitude
        self.phase = phase
        self._set_omega(2.0 * np.pi / period)

    def _set_omega(self, omega: np.ndarray) -> None:
        self.omega = omega
        # Python-float mirror for the scalar getter, as in StaticWeights;
        # math.sin matches np.sin bit for bit (tests/test_weights.py).
        self._scalars = list(zip(self.base.tolist(), self.amplitude.tolist(),
                                 omega.tolist(), self.phase.tolist()))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator,
               base_range: tuple[float, float] = (0.5, 2.0),
               amplitude_range: tuple[float, float] = (0.0, 0.8),
               period_range: tuple[float, float] = (50.0, 500.0)
               ) -> "SineWeights":
        """Randomly-assigned amplitudes and periods, as in the paper Sec 6."""
        return cls(
            base=rng.uniform(*base_range, size=n),
            amplitude=rng.uniform(*amplitude_range, size=n),
            period=rng.uniform(*period_range, size=n),
            phase=rng.uniform(0.0, 2.0 * np.pi, size=n),
        )

    def weight(self, index: int, t: float) -> float:
        base, amplitude, omega, phase = self._scalars[index]
        return base * (1.0 + amplitude * math.sin(omega * t + phase))

    def weights(self, t: float) -> np.ndarray:
        return self.base * (1.0 + self.amplitude
                            * np.sin(self.omega * t + self.phase))

    def weights_at(self, times: np.ndarray,
                   indices: np.ndarray | None = None) -> np.ndarray:
        if indices is None:
            base, amp = self.base, self.amplitude
            omega, phase = self.omega, self.phase
        else:
            base, amp = self.base[indices], self.amplitude[indices]
            omega, phase = self.omega[indices], self.phase[indices]
        return base * (1.0 + amp * np.sin(omega * times + phase))

    def subset(self, indices: np.ndarray) -> "SineWeights":
        sliced = SineWeights(self.base[indices], self.amplitude[indices],
                             2.0 * np.pi / self.omega[indices],
                             self.phase[indices])
        # The constructor stores omega = 2*pi/period; round-tripping through
        # period can drop an ulp, so keep the original omega bits.
        sliced._set_omega(self.omega[indices])
        return sliced

