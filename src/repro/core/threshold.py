"""The adaptive local refresh threshold (paper Sec 5).

Each source ``S_j`` keeps a local threshold ``T_j`` and refreshes its
top-priority object only while that priority is at least ``T_j``.  The
threshold adapts:

* **increase on refresh**: every refresh sent multiplies the threshold by
  ``alpha * gamma``.  ``alpha`` (paper's best setting: 1.1) conservatively
  slows the refresh rate in the absence of feedback.  ``gamma`` accelerates
  the back-off when the network looks flooded: with ``t_fb`` the elapsed
  time since the last feedback message and ``P_fb`` the expected feedback
  period (roughly ``num_sources / mean cache bandwidth``),
  ``gamma = max(1, t_fb / P_fb)``.
* **decrease on positive feedback**: a feedback message divides the
  threshold by ``omega`` (paper's best setting: 10) -- *unless* the source
  is currently sending at full source-side capacity, in which case the
  feedback is ignored (footnote 3: a capacity-limited source lowering its
  threshold would build a backlog that could later flood the cache).

The order-of-magnitude asymmetry between ``alpha`` and ``omega`` reflects
that increases (per refresh) are far more frequent than decreases (per
feedback message).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

DEFAULT_ALPHA = 1.1
DEFAULT_OMEGA = 10.0
#: Numerical clamps keeping every threshold in a sane range.
THRESHOLD_FLOOR = 1e-12
THRESHOLD_CEIL = 1e15


class ThresholdTable:
    """Every source's local refresh threshold ``T_j``, one row per source.

    Each per-source scalar is a column indexed by source id: ``value``
    (``T_j`` itself), ``last_feedback`` (when feedback last arrived),
    ``deadline`` (when the next TTL decay is due, infinite with the TTL
    off) and ``period`` (``P_feedback``, or ``None``).  A column starts as
    one shared float repeated, so an untouched source costs four list
    slots.

    Parameters
    ----------
    rows:
        Number of sources.
    initial:
        Starting threshold.  The algorithm is adaptive, so any positive
        value works after a warm-up period (paper Sec 5).
    alpha:
        Multiplicative increase applied per refresh sent.
    omega:
        Multiplicative decrease applied per accepted feedback message.
    feedback_period:
        Expected time between feedback messages (``P_feedback``), one
        value for every row or a sequence with one per row; ``None``
        disables the flood-acceleration factor ``gamma`` (it stays 1).
        The paper notes the estimate "need only be a rough estimate".
    feedback_ttl:
        Staleness bound on the last feedback message.  When set, silence
        longer than the TTL stops counting as flood evidence (``gamma``
        freezes at 1) and instead decays the threshold by ``1/omega``
        once per elapsed TTL, so a source cut off from feedback -- a
        blackout, a crashed cache -- drifts back toward the uniform
        allocation instead of backing off forever.  ``None`` (default)
        keeps the paper's pure behaviour.
    """

    __slots__ = ("value", "last_feedback", "deadline", "period", "alpha",
                 "omega", "feedback_ttl")

    def __init__(self, rows: int = 1, initial: float = 1.0,
                 alpha: float = DEFAULT_ALPHA,
                 omega: float = DEFAULT_OMEGA,
                 feedback_period: float | Sequence[float | None] | None
                 = None,
                 feedback_ttl: float | None = None) -> None:
        # Negated comparisons, so a NaN fails them too.
        if not initial > 0:
            raise ValueError(f"initial threshold must be > 0, got {initial}")
        if not alpha >= 1.0:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        if not omega > 1.0:
            raise ValueError(f"omega must be > 1, got {omega}")
        if isinstance(feedback_period, Sequence):
            if len(feedback_period) != rows:
                raise ValueError(
                    f"feedback_period lists {len(feedback_period)} "
                    f"periods for {rows} sources")
            periods = list(feedback_period)
        else:
            periods = [feedback_period] * rows
        # The periods repeat a few shared values (one per cache).
        for period in set(periods):
            if period is not None and not period > 0:
                raise ValueError(
                    f"feedback period must be > 0, got {period}")
        if feedback_ttl is not None and not feedback_ttl > 0:
            raise ValueError(
                f"feedback TTL must be > 0, got {feedback_ttl}")
        self.value = [float(initial)] * rows
        self.alpha = float(alpha)
        self.omega = float(omega)
        self.period = periods
        self.last_feedback = [0.0] * rows
        self.feedback_ttl = feedback_ttl
        self.deadline = [feedback_ttl if feedback_ttl is not None
                         else math.inf] * rows

    def maybe_decay(self, row: int, now: float) -> None:
        """Apply any TTL decays of ``row`` that have come due (lazy,
        idempotent).

        Called from the source's drain path; the while-loop catches up
        one ``1/omega`` step per full TTL elapsed since the deadline, so
        the result depends only on ``now`` -- not on how often the
        source happened to be polled during the blackout.
        """
        deadline = self.deadline[row]
        if now < deadline:
            return
        ttl = self.feedback_ttl
        omega = self.omega
        value = self.value[row]
        while now >= deadline:
            value = max(THRESHOLD_FLOOR, value / omega)
            deadline += ttl
        self.value[row] = value
        self.deadline[row] = deadline

    def next_decay_time(self, row: int) -> float | None:
        """When ``row``'s next TTL decay is due (``None`` if TTL
        disabled)."""
        if self.feedback_ttl is None:
            return None
        return self.deadline[row]

    def on_refresh(self, row: int, now: float) -> None:
        """A refresh was sent: raise ``row``'s threshold by ``alpha *
        gamma``.

        ``gamma = max(1, t_feedback / P_feedback)`` with ``t_feedback``
        the time since the last feedback; it stays 1 without a feedback
        period, and once feedback is older than the TTL: silence that
        long means the channel is down, which is no evidence of
        flooding.  A ``gamma`` of 1 skips its multiplication, which
        leaves every float unchanged.
        """
        value = self.value[row] * self.alpha
        period = self.period[row]
        if period is not None:
            elapsed = now - self.last_feedback[row]
            if elapsed > period:
                ttl = self.feedback_ttl
                if ttl is None or elapsed <= ttl:
                    value = value * (elapsed / period)
        self.value[row] = value if value < THRESHOLD_CEIL else THRESHOLD_CEIL

    def on_feedback(self, row: int, now: float,
                    at_capacity: bool = False) -> None:
        """Positive feedback arrived: lower ``row``'s threshold by
        ``omega``.

        ``at_capacity`` implements footnote 3: sources already sending at
        full source-side capacity leave their threshold unmodified.
        """
        self.last_feedback[row] = now
        if self.feedback_ttl is not None:
            self.deadline[row] = now + self.feedback_ttl
        if at_capacity:
            return
        self.value[row] = max(THRESHOLD_FLOOR, self.value[row] / self.omega)
