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

DEFAULT_ALPHA = 1.1
DEFAULT_OMEGA = 10.0
#: Numerical clamps keeping every threshold in a sane range.
THRESHOLD_FLOOR = 1e-12
THRESHOLD_CEIL = 1e15


class ThresholdController:
    """Maintains one source's local refresh threshold ``T_j``.

    Parameters
    ----------
    initial:
        Starting threshold.  The algorithm is adaptive, so any positive
        value works after a warm-up period (paper Sec 5).
    alpha:
        Multiplicative increase applied per refresh sent.
    omega:
        Multiplicative decrease applied per accepted feedback message.
    feedback_period:
        Expected time between feedback messages (``P_feedback``); ``None``
        disables the flood-acceleration factor ``gamma`` (it stays 1).  The
        paper notes the estimate "need only be a rough estimate".
    feedback_ttl:
        Staleness bound on the last feedback message.  When set, silence
        longer than the TTL stops counting as flood evidence (``gamma``
        freezes at 1) and instead decays the threshold by ``1/omega``
        once per elapsed TTL, so a source cut off from feedback -- a
        blackout, a crashed cache -- drifts back toward the uniform
        allocation instead of backing off forever.  ``None`` (default)
        keeps the paper's pure behaviour.
    """

    __slots__ = ("value", "alpha", "omega", "feedback_period",
                 "last_feedback_time", "refreshes", "feedbacks",
                 "feedbacks_ignored", "feedback_ttl", "ttl_decays",
                 "decay_deadline")

    def __init__(self, initial: float = 1.0, alpha: float = DEFAULT_ALPHA,
                 omega: float = DEFAULT_OMEGA,
                 feedback_period: float | None = None,
                 feedback_ttl: float | None = None) -> None:
        if initial <= 0:
            raise ValueError(f"initial threshold must be > 0, got {initial}")
        if alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        if omega <= 1.0:
            raise ValueError(f"omega must be > 1, got {omega}")
        if feedback_period is not None and feedback_period <= 0:
            raise ValueError(
                f"feedback period must be > 0, got {feedback_period}")
        if feedback_ttl is not None and feedback_ttl <= 0:
            raise ValueError(
                f"feedback TTL must be > 0, got {feedback_ttl}")
        self.value = float(initial)
        self.alpha = float(alpha)
        self.omega = float(omega)
        self.feedback_period = feedback_period
        self.last_feedback_time = 0.0
        self.refreshes = 0
        self.feedbacks = 0
        self.feedbacks_ignored = 0
        self.feedback_ttl = feedback_ttl
        self.ttl_decays = 0
        #: when the next TTL decay is due (infinite with the TTL off)
        self.decay_deadline = (feedback_ttl if feedback_ttl is not None
                               else math.inf)

    def maybe_decay(self, now: float) -> None:
        """Apply any TTL decays that have come due (lazy, idempotent).

        Called from the source's drain path; the while-loop catches up
        one ``1/omega`` step per full TTL elapsed since the deadline, so
        the result depends only on ``now`` -- not on how often the
        source happened to be polled during the blackout.
        """
        if now < self.decay_deadline:
            return
        ttl = self.feedback_ttl
        while now >= self.decay_deadline:
            self.value = max(THRESHOLD_FLOOR, self.value / self.omega)
            self.ttl_decays += 1
            self.decay_deadline += ttl

    def next_decay_time(self) -> float | None:
        """When the next TTL decay is due (``None`` if TTL disabled)."""
        if self.feedback_ttl is None:
            return None
        return self.decay_deadline

    def on_refresh(self, now: float) -> None:
        """A refresh was sent: raise the threshold by ``alpha * gamma``.

        ``gamma = max(1, t_feedback / P_feedback)`` with ``t_feedback``
        the time since the last feedback; it stays 1 without a feedback
        period, and once feedback is older than the TTL: silence that
        long means the channel is down, which is no evidence of
        flooding.  A ``gamma`` of 1 skips its multiplication, which
        leaves every float unchanged.
        """
        self.refreshes += 1
        value = self.value * self.alpha
        period = self.feedback_period
        if period is not None:
            elapsed = now - self.last_feedback_time
            if elapsed > period:
                ttl = self.feedback_ttl
                if ttl is None or elapsed <= ttl:
                    value = value * (elapsed / period)
        self.value = value if value < THRESHOLD_CEIL else THRESHOLD_CEIL

    def on_feedback(self, now: float, at_capacity: bool = False) -> None:
        """Positive feedback arrived: lower the threshold by ``omega``.

        ``at_capacity`` implements footnote 3: sources already sending at
        full source-side capacity leave their threshold unmodified.
        """
        self.last_feedback_time = now
        if self.feedback_ttl is not None:
            self.decay_deadline = now + self.feedback_ttl
        if at_capacity:
            self.feedbacks_ignored += 1
            return
        self.feedbacks += 1
        self.value = max(THRESHOLD_FLOOR, self.value / self.omega)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ThresholdController T={self.value:.4g} "
                f"alpha={self.alpha} omega={self.omega}>")
