"""Per-object synchronization state.

Each data object has *two* views of its synchronization status:

* the **belief** view, held by the source: divergence relative to the value
  the source last *sent*.  Priorities (Sec 3.3) are computed against this
  view, because a cooperating source knows exactly what it shipped but not
  whether the message has been delivered yet.
* the **truth** view, used for evaluation: divergence relative to the value
  the cache last *applied*.  While a refresh message sits in a congested
  queue the truth view keeps diverging -- this is precisely the queueing
  penalty the paper's flood-avoiding feedback scheme is designed to limit.

For ideal (omniscient, zero-latency) policies the two views coincide.

:class:`SyncView` also holds the running integral of divergence since the
last refresh, which :class:`DataObject` updates lazily: divergence only
changes at update and refresh events (paper Sec 8.2), so the integral
accrues ``divergence * elapsed`` per piece, in O(1) per event.  The
integral at time ``t`` is ``integral_acc + divergence * (t -
last_change_time)``.
"""

from __future__ import annotations

from repro.core.divergence import DivergenceMetric

#: Update time of a never-updated object; one shared float, not one each.
_NEVER = float("-inf")


class SyncView:
    """One view (belief or truth) of an object's divergence history."""

    __slots__ = ("reference_value", "reference_count", "last_refresh_time",
                 "divergence", "integral_acc", "last_change_time")

    def __init__(self, value: float = 0.0, time: float = 0.0) -> None:
        self.reference_value = value  #: value this view believes is cached
        self.reference_count = 0  #: object's update counter at last refresh
        self.last_refresh_time = time
        self.divergence = 0.0
        self.integral_acc = 0.0  #: integral of divergence up to last change
        self.last_change_time = time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SyncView d={self.divergence:.4g} "
                f"t_last={self.last_refresh_time:.4g}>")


class DataObject:
    """A source data object together with both synchronization views.

    Attributes
    ----------
    index:
        Global object index (``source_id * n + local_index`` in the uniform
        experiment layouts).
    source_id:
        Owning source.
    rate:
        True mean update rate ``lambda_i`` (known to the source in the
        paper's special-case priority formulas; estimated by CGM baselines).
    value:
        Current source-side value.
    update_count:
        Cumulative number of updates applied to this object.
    max_rate:
        Optional known maximum divergence rate ``R_i`` (Sec 9 bounding).
    """

    __slots__ = ("index", "source_id", "rate", "value", "update_count",
                 "last_update_time", "belief", "truth", "max_rate")

    def __init__(self, index: int, source_id: int, rate: float = 0.0,
                 value: float = 0.0, time: float = 0.0,
                 max_rate: float = 0.0) -> None:
        self.index = index
        self.source_id = source_id
        self.rate = rate
        self.value = value
        self.update_count = 0
        self.last_update_time = _NEVER  #: time of most recent update
        self.max_rate = max_rate
        self.belief = SyncView(value, time)
        self.truth = SyncView(value, time)

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply_update(self, now: float, new_value: float,
                     metric: DivergenceMetric) -> None:
        """Apply a source-side update and refresh both views' divergence.

        Each view first folds ``divergence * (now - last_change)`` into
        its integral, then takes the new divergence.  This runs once per
        trace event, so the bookkeeping is written out for both views,
        and the metric runs once when the views share their reference
        (no refresh in flight): its arguments, and so its result, are
        then the same for both.
        """
        self.value = new_value
        count = self.update_count + 1
        self.update_count = count
        self.last_update_time = now
        belief = self.belief
        truth = self.truth
        divergence = metric.compute(new_value, belief.reference_value,
                                    count - belief.reference_count)
        if now > belief.last_change_time:
            belief.integral_acc += belief.divergence * (
                now - belief.last_change_time)
            belief.last_change_time = now
        belief.divergence = divergence
        if (truth.reference_count != belief.reference_count
                or truth.reference_value != belief.reference_value):
            divergence = metric.compute(new_value, truth.reference_value,
                                        count - truth.reference_count)
        if now > truth.last_change_time:
            truth.integral_acc += truth.divergence * (
                now - truth.last_change_time)
            truth.last_change_time = now
        truth.divergence = divergence

    def mark_sent(self, now: float) -> None:
        """The source sent a refresh: the belief view starts a new
        refresh epoch at ``now``, referencing the current value."""
        belief = self.belief
        belief.reference_value = self.value
        belief.reference_count = self.update_count
        belief.last_refresh_time = now
        belief.divergence = 0.0
        belief.integral_acc = 0.0
        belief.last_change_time = now

    def apply_refresh(self, now: float, delivered_value: float,
                      delivered_count: int,
                      metric: DivergenceMetric) -> None:
        """The cache applied a (possibly stale) refresh: the truth view
        starts a new refresh epoch at ``now``.

        ``delivered_value``/``delivered_count`` are the snapshot carried by
        the refresh message, which may already be behind the source if more
        updates happened while the message was queued; the new epoch then
        starts at that residual divergence.
        """
        truth = self.truth
        truth.reference_value = delivered_value
        truth.reference_count = delivered_count
        truth.last_refresh_time = now
        truth.integral_acc = 0.0
        truth.last_change_time = now
        residual = metric.compute(self.value, delivered_value,
                                  self.update_count - delivered_count)
        # A zero residual of either sign leaves the epoch's 0.0.
        truth.divergence = residual if residual != 0.0 else 0.0

    def sync_views(self, now: float) -> None:
        """Make belief match truth (used by omniscient/instant policies):
        both views start a new refresh epoch at the current value."""
        self.mark_sent(now)
        truth = self.truth
        truth.reference_value = self.value
        truth.reference_count = self.update_count
        truth.last_refresh_time = now
        truth.divergence = 0.0
        truth.integral_acc = 0.0
        truth.last_change_time = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DataObject {self.index} src={self.source_id} "
                f"v={self.value:.4g} u={self.update_count}>")
