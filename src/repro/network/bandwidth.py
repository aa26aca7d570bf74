"""Time-varying bandwidth profiles.

The paper's simulator lets "available cache-side and source-side bandwidth
fluctuate over time following a sine wave pattern", with average bandwidth
``B`` and a *maximum rate of bandwidth change* knob ``mB`` ("when mB = 0,
the amount of available bandwidth remains constant").

We model that as::

    C(t) = B * (1 + A * sin(2 pi t / P + phi))

where the amplitude ``A`` defaults to 0.5 (bandwidth swings between 0.5x and
1.5x its mean) and the period ``P`` is derived so that the peak *relative*
change rate ``max |C'(t)| / B = A * 2 pi / P`` equals ``mB``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right

import numpy as np


class BandwidthProfile(ABC):
    """Instantaneous capacity ``rate(t)`` and its integral over an interval."""

    __slots__ = ()

    @abstractmethod
    def rate(self, t: float) -> float:
        """Capacity in messages per time unit at time ``t`` (>= 0)."""

    @abstractmethod
    def capacity(self, t0: float, t1: float) -> float:
        """Messages transmittable during ``[t0, t1]`` (the integral of rate)."""

    @property
    @abstractmethod
    def mean_rate(self) -> float:
        """Long-run average capacity, used e.g. for feedback-period estimates."""

    @property
    def steady_rate(self) -> float | None:
        """The constant rate when this profile never varies, else ``None``.

        A steady profile earns the same capacity every tick, so once an
        idle link's credit saturates its skipped refills all leave the
        same state, and a source row's sync jumps over them
        (``Topology._sync_source``).  Time-varying profiles return
        ``None``.
        """
        return None

    def scaled(self, factor: float) -> "BandwidthProfile":
        """This profile multiplied by a constant factor.

        The default wraps in :class:`ScaledBandwidth`; profiles with
        precomputed internal state (:class:`TraceBandwidth`) override it
        to rebuild that state so composition stays on their fast paths.
        """
        return ScaledBandwidth(self, factor)


class ConstantBandwidth(BandwidthProfile):
    """Fixed capacity: ``rate(t) = B`` for all ``t``."""

    __slots__ = ("_rate",)

    def __init__(self, rate: float) -> None:
        # A NaN or infinite rate fails too: credit is counted in whole
        # messages.
        if not 0 <= rate < math.inf:
            raise ValueError(
                f"bandwidth must be >= 0 and finite, got {rate}")
        self._rate = float(rate)

    def rate(self, t: float) -> float:
        return self._rate

    def capacity(self, t0: float, t1: float) -> float:
        return self._rate * (t1 - t0)

    @property
    def mean_rate(self) -> float:
        return self._rate

    @property
    def steady_rate(self) -> float | None:
        return self._rate

    def __repr__(self) -> str:
        return f"ConstantBandwidth({self._rate!r})"


class SineBandwidth(BandwidthProfile):
    """Sinusoidally fluctuating capacity with the paper's ``mB`` knob.

    Parameters
    ----------
    mean:
        Average capacity ``B`` (the paper's ``BC`` / ``BS``).
    max_change_rate:
        The paper's ``mB``: peak of ``|dC/dt| / B``.  Zero degenerates to a
        constant profile.
    amplitude:
        Relative swing ``A`` in ``[0, 1)``; default 0.5.
    phase:
        Phase offset in radians, so that different links can fluctuate out
        of step with each other.
    """

    def __init__(self, mean: float, max_change_rate: float,
                 amplitude: float = 0.5, phase: float = 0.0) -> None:
        if not 0 <= mean < math.inf:
            raise ValueError(
                f"mean bandwidth must be >= 0 and finite, got {mean}")
        if not 0 <= amplitude < 1:
            raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
        if not max_change_rate >= 0:
            raise ValueError(f"mB must be >= 0, got {max_change_rate}")
        self.mean = float(mean)
        self.amplitude = float(amplitude)
        self.max_change_rate = float(max_change_rate)
        self.phase = float(phase)
        if max_change_rate == 0 or amplitude == 0:
            self.period = math.inf
            self._omega = 0.0
        else:
            # max |C'(t)| / mean = amplitude * omega  =>  omega = mB / A
            self._omega = max_change_rate / amplitude
            self.period = 2 * math.pi / self._omega

    def rate(self, t: float) -> float:
        if self._omega == 0.0:
            return self.mean
        return self.mean * (1.0 + self.amplitude
                            * math.sin(self._omega * t + self.phase))

    def capacity(self, t0: float, t1: float) -> float:
        if self._omega == 0.0:
            return self.mean * (t1 - t0)
        # Closed-form integral of the sine profile.
        w = self._omega
        anti0 = -math.cos(w * t0 + self.phase) / w
        anti1 = -math.cos(w * t1 + self.phase) / w
        return self.mean * ((t1 - t0) + self.amplitude * (anti1 - anti0))

    @property
    def mean_rate(self) -> float:
        return self.mean

    @property
    def steady_rate(self) -> float | None:
        return self.mean if self._omega == 0.0 else None

    def __repr__(self) -> str:
        return (f"SineBandwidth(mean={self.mean!r}, "
                f"mB={self.max_change_rate!r}, amplitude={self.amplitude!r})")


class TraceBandwidth(BandwidthProfile):
    """Piecewise-constant capacity driven by explicit breakpoints.

    Useful for scripted scenarios the analytic profiles cannot express:
    link outages, congestion from a bursty co-tenant, diurnal patterns
    from a measured trace.  ``rate(t)`` holds each value from its
    breakpoint until the next; before the first breakpoint the first value
    applies, after the last breakpoint the last value applies.

    Construction precomputes the cumulative capacity at every breakpoint,
    so ``capacity(t0, t1)`` is two segment lookups plus a linear
    interpolation -- O(log segments) -- instead of a per-call Python loop
    over the spanned breakpoints.  Scalar lookups additionally cache the
    last segment hit: accruals and refills walk forward through time, so
    the common case resolves without any search at all.

    ``horizon`` (optional) declares how long the trace is meant to run;
    :attr:`mean_rate` then averages over ``[times[0], horizon]`` so the
    trailing segment carries its real weight (policies size static
    budgets off this number).  Without a horizon the trailing rate is
    given one mean breakpoint spacing of weight -- the last value applies
    forever, so giving it *zero* weight (as a naive span-weighted mean
    over the breakpoints would) misbudgets any trace that ends on a
    recovery or an outage.
    """

    def __init__(self, times, rates, horizon: float | None = None) -> None:
        self.times = np.asarray(times, dtype=float)
        self.rates = np.asarray(rates, dtype=float)
        if self.times.ndim != 1 or self.times.shape != self.rates.shape:
            raise ValueError("times and rates must be equal-length 1-D")
        if len(self.times) == 0:
            raise ValueError("need at least one breakpoint")
        if (np.diff(self.times) <= 0).any():
            raise ValueError("breakpoint times must be strictly increasing")
        if not ((self.rates >= 0) & (self.rates < np.inf)).all():
            raise ValueError("rates must be nonnegative and finite")
        self.horizon = None if horizon is None else float(horizon)
        if self.horizon is not None and self.horizon <= self.times[0]:
            raise ValueError(
                f"horizon {self.horizon} must lie beyond the first "
                f"breakpoint {float(self.times[0])}")
        # Cumulative capacity earned at each breakpoint (relative to
        # times[0]); segment i contributes rates[i] * (times[i+1] -
        # times[i]).  The trailing segment extends to +inf at rates[-1].
        spans = np.diff(self.times)
        self._cum = np.concatenate(
            [[0.0], np.cumsum(self.rates[:-1] * spans)])
        # Python-native mirrors for the scalar hot path: bisect on a list
        # beats np.searchsorted on scalars by ~10x, and per-tick accruals
        # are all scalar calls.
        self._times_list: list[float] = self.times.tolist()
        self._rates_list: list[float] = self.rates.tolist()
        self._cum_list: list[float] = self._cum.tolist()
        self._seg = 0  # cached segment index for monotone call patterns
        # Sync jump memos (see repro.network.link.trace_jump): furthest
        # segment the cap-pinned saturation chain reaches from each
        # starting segment (valid for one tick length), and the end of
        # the zero-rate run from each segment (tick-length independent).
        # Shared across every source row driven by this trace.
        self._jump_memo: dict[int, int] = {}
        self._jump_memo_dt: float | None = None
        self._zero_memo: dict[int, int] = {}
        # A flat trace degenerates to a constant profile; precompute the
        # verdict so steady_rate stays O(1) when topologies probe every
        # link (one np.all over the rates here instead of per probe).
        self._steady: float | None = float(self.rates[0]) \
            if len(self.rates) == 1 or bool(np.all(self.rates == self.rates[0])) \
            else None

    def _segment(self, t: float) -> int:
        """Index of the segment containing ``t`` (clamped to 0).

        Checks the cached segment and its successor first -- accruals
        move forward in small steps, so nearly every call resolves
        without a search -- then falls back to a bisect bounded to the
        side of the cache the target lies on.
        """
        times = self._times_list
        i = self._seg
        if times[i] <= t:
            if i + 1 == len(times) or t < times[i + 1]:
                return i
            if i + 2 == len(times) or t < times[i + 2]:
                self._seg = i + 1
                return i + 1
            i = bisect_right(times, t, lo=i + 2) - 1
        else:
            i = max(0, bisect_right(times, t, hi=i) - 1)
        self._seg = i
        return i

    def rate(self, t: float) -> float:
        return self._rates_list[self._segment(t)]

    def _cumulative(self, t: float) -> float:
        """Capacity earned in ``[times[0], t]`` (negative before it)."""
        i = self._segment(t)
        return self._cum_list[i] \
            + self._rates_list[i] * (t - self._times_list[i])

    def capacity(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        i0 = self._segment(t0)
        i1 = self._segment(t1)
        if i0 == i1:
            # Within one segment the integral is a single product -- the
            # expression ConstantBandwidth.capacity uses, so a flat trace
            # is bit-identical to a constant profile on every accrual.
            return self._rates_list[i0] * (t1 - t0)
        c0 = self._cum_list[i0] \
            + self._rates_list[i0] * (t0 - self._times_list[i0])
        c1 = self._cum_list[i1] \
            + self._rates_list[i1] * (t1 - self._times_list[i1])
        return c1 - c0

    def first_time_at_capacity(self, t0: float,
                               needed: float) -> float | None:
        """Earliest ``t`` with ``capacity(t0, t) >= needed``.

        Bisection on the precomputed cumulative array (O(log segments)).
        Returns ``None`` when the trace can never earn ``needed`` more
        capacity after ``t0`` (a trailing rate of zero); callers park the
        waiter instead of polling.  The continuous-time answer: callers
        that need a *tick* use :func:`ticks_until_capacity`, which folds
        in a one-tick safety margin for float drift between this solve
        and the per-tick accrual chain.
        """
        if needed <= 0.0:
            return t0
        target = self._cumulative(t0) + needed
        cum = self._cum_list
        if target > cum[-1]:
            trailing = self._rates_list[-1]
            if trailing <= 0.0:
                return None
            return self._times_list[-1] + (target - cum[-1]) / trailing
        # Smallest j with cum[j] >= target: the crossing lies inside
        # segment j-1, whose rate must be positive for its cum to grow
        # (j = 0 only when the target sits in the leading extension
        # before times[0], which requires a positive rates[0] too).
        j = max(1, bisect_left(cum, target))
        rate = self._rates_list[j - 1]
        return self._times_list[j - 1] + (target - cum[j - 1]) / rate

    @property
    def mean_rate(self) -> float:
        if self._steady is not None:
            return self._steady
        if self.horizon is not None:
            return self.mean_rate_over(float(self.times[0]), self.horizon)
        # No declared horizon: give the trailing (forever) rate one mean
        # breakpoint spacing of weight instead of none.
        span = float(self.times[-1] - self.times[0])
        tail = span / (len(self.times) - 1)
        return self.mean_rate_over(float(self.times[0]),
                                   float(self.times[-1]) + tail)

    def mean_rate_over(self, t0: float, t1: float) -> float:
        """Span-weighted average rate over ``[t0, t1]``."""
        if t1 <= t0:
            raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
        return self.capacity(t0, t1) / (t1 - t0)

    @property
    def steady_rate(self) -> float | None:
        return self._steady

    def scaled(self, factor: float) -> "TraceBandwidth":
        """A rescaled trace with its own precomputed arrays.

        Splitting a trace across cache links must not demote it to the
        generic :class:`ScaledBandwidth` wrapper, which would lose the
        cumulative array and the segment jumps of a source row's sync
        that come with the concrete type.
        """
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        return TraceBandwidth(self.times, self.rates * factor,
                              horizon=self.horizon)

    @classmethod
    def with_outage(cls, rate: float, outage_start: float,
                    outage_end: float,
                    horizon: float | None = None) -> "TraceBandwidth":
        """A constant-rate link with one total outage window."""
        if outage_end <= outage_start:
            raise ValueError("outage must have positive duration")
        return cls(times=[0.0, outage_start, outage_end],
                   rates=[rate, 0.0, rate], horizon=horizon)

    def __repr__(self) -> str:
        return (f"TraceBandwidth({len(self.times)} breakpoints, "
                f"mean={self.mean_rate:.4g})")


class ScaledBandwidth(BandwidthProfile):
    """A base profile multiplied by a constant factor.

    Used to split one aggregate capacity across several cache links (an
    even 1/N share each) while preserving the base profile's shape --
    fluctuations scale with the mean, as the paper's ``mB`` knob is
    relative.
    """

    def __init__(self, base: BandwidthProfile, factor: float) -> None:
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        self.base = base
        self.factor = float(factor)

    def rate(self, t: float) -> float:
        return self.base.rate(t) * self.factor

    def capacity(self, t0: float, t1: float) -> float:
        return self.base.capacity(t0, t1) * self.factor

    @property
    def mean_rate(self) -> float:
        return self.base.mean_rate * self.factor

    @property
    def steady_rate(self) -> float | None:
        base = self.base.steady_rate
        return None if base is None else base * self.factor

    def __repr__(self) -> str:
        return f"ScaledBandwidth({self.base!r}, factor={self.factor!r})"


def split_bandwidth(profile: BandwidthProfile,
                    shares: int) -> list[BandwidthProfile]:
    """Even 1/N split of ``profile`` across ``shares`` links.

    A single share returns the original profile unscaled, so the
    one-cache star keeps the paper's link arithmetic bit for bit.
    Scaling goes through :meth:`BandwidthProfile.scaled`, so trace
    profiles keep their concrete type (and their precomputed cumulative
    arrays) across the split instead of degrading to a wrapper.
    """
    if shares < 1:
        raise ValueError(f"need at least one share, got {shares}")
    if shares == 1:
        return [profile]
    return [profile.scaled(1.0 / shares) for _ in range(shares)]


def replay_credit_ticks(credit: float, earned: float, ticks: int) -> float:
    """Replay ``ticks`` per-tick accruals of ``earned`` credit.

    Each tick applies the links' refill rule
    (:func:`~repro.network.link.refill_credit`): the credit is capped at
    ``max(1, earned) + earned``, so a fractional slice is carried over
    in full and a slice of 1.5 messages a tick sends three messages
    every two ticks.  Bit-exact against running the per-tick loop
    eagerly: the identical float operations execute in the identical
    order, short-circuiting only once a fixpoint is reached (saturation
    at the cap, or an ``earned`` too small to move the float), after
    which every further tick provably produces the same value.  This is
    the arithmetic contract that lets token-bucket schedulers (uniform
    allocation, competitive own-sends) skip idle ticks without
    perturbing results.
    """
    cap = max(1.0, earned) + earned
    for _ in range(ticks):
        new_credit = min(credit + earned, cap)
        if new_credit == credit:
            break
        credit = new_credit
    return credit


def ticks_until_credit(credit: float, earned: float,
                       target: float = 1.0) -> int | None:
    """Per-tick accruals until ``credit`` reaches ``target`` (None: never).

    Uses the same exact replay as :func:`replay_credit_ticks`, so the
    predicted crossing tick is the tick the eager schedule would first
    see ``credit >= target``.  Returns ``None`` when the accrual hits a
    fixpoint below the target (zero rate, or saturation below it).
    """
    cap = max(1.0, earned) + earned
    ticks = 0
    while credit < target:
        new_credit = min(credit + earned, cap)
        if new_credit == credit:
            return None
        credit = new_credit
        ticks += 1
    return ticks


def ticks_until_capacity(trace: TraceBandwidth, t0: float, dt: float,
                         needed: float) -> int | None:
    """Conservative ticks until ``trace`` earns ``needed`` more credit.

    The blocked-sender prediction for trace links: a source whose *link*
    ran out of credit used to re-arm every tick until the bucket
    refilled.  While a link's credit sits below one message, its per-tick
    refill cap ``max(1, tick_capacity) + tick_capacity`` never binds, so
    the credit trajectory is the plain cumulative-capacity sum and the
    crossing tick can be solved on the trace's cumulative array instead
    of polled for.

    The answer is *conservative* (never late, possibly one tick early):
    exact future tick boundaries are the ticker's float-accumulation
    chain, which cannot be reproduced ahead of time in O(1), so the
    continuous-time crossing is rounded down by one tick and the caller
    re-verifies on wake (re-arming if still short).  Early wakes are
    behavior-neutral -- the send still happens on the exact tick a
    per-tick retry would have chosen.

    Returns ``>= 1`` always; ``None`` means the trace can never earn
    ``needed`` (trailing rate zero), so the caller should park rather
    than poll.
    """
    crossing = trace.first_time_at_capacity(t0, needed)
    if crossing is None:
        return None
    return max(1, math.ceil((crossing - t0) / dt) - 1)


def make_bandwidth(mean: float, max_change_rate: float = 0.0,
                   amplitude: float = 0.5,
                   phase: float = 0.0) -> BandwidthProfile:
    """Build a profile from the paper's ``(B, mB)`` parameterization."""
    if max_change_rate == 0.0:
        return ConstantBandwidth(mean)
    return SineBandwidth(mean, max_change_rate, amplitude=amplitude,
                         phase=phase)
