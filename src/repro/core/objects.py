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

:class:`SyncView` also maintains the running integral of divergence since
the last refresh, updated lazily: divergence only changes at update and
refresh events (paper Sec 8.2), so the integral accrues
``divergence * elapsed`` per piece, in O(1) per event.
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

    # ------------------------------------------------------------------
    # Incremental bookkeeping
    # ------------------------------------------------------------------
    def accrue(self, now: float) -> None:
        """Fold ``divergence * (now - last_change)`` into the integral."""
        if now > self.last_change_time:
            self.integral_acc += self.divergence * (now - self.last_change_time)
            self.last_change_time = now

    def set_divergence(self, now: float, divergence: float) -> None:
        """Record a divergence change at time ``now``."""
        self.accrue(now)
        self.divergence = divergence

    def reset(self, now: float, value: float, count: int) -> None:
        """Start a new refresh epoch: the view saw ``value`` refreshed."""
        self.reference_value = value
        self.reference_count = count
        self.last_refresh_time = now
        self.divergence = 0.0
        self.integral_acc = 0.0
        self.last_change_time = now

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def integral_at(self, now: float) -> float:
        """Integral of divergence over ``[last_refresh, now]``."""
        return self.integral_acc + self.divergence * (now - self.last_change_time)

    def area_priority(self, now: float) -> float:
        """Unweighted general refresh priority (paper Sec 3.3, Eq. 2).

        The area *above* the divergence curve:
        ``(now - t_last) * D(now) - integral(D)``.
        """
        elapsed = now - self.last_refresh_time
        return elapsed * self.divergence - self.integral_at(now)

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
        """Apply a source-side update and refresh both views' divergence."""
        self.value = new_value
        count = self.update_count + 1
        self.update_count = count
        self.last_update_time = now
        # Unrolled over the two views: this runs once per trace event.
        view = self.belief
        view.set_divergence(now, metric.compute(
            new_value, view.reference_value,
            count - view.reference_count))
        view = self.truth
        view.set_divergence(now, metric.compute(
            new_value, view.reference_value,
            count - view.reference_count))

    def mark_sent(self, now: float) -> None:
        """The source sent a refresh: reset the belief view."""
        self.belief.reset(now, self.value, self.update_count)

    def apply_refresh(self, now: float, delivered_value: float,
                      delivered_count: int,
                      metric: DivergenceMetric) -> None:
        """The cache applied a (possibly stale) refresh: reset truth view.

        ``delivered_value``/``delivered_count`` are the snapshot carried by
        the refresh message, which may already be behind the source if more
        updates happened while the message was queued.
        """
        self.truth.reset(now, delivered_value, delivered_count)
        residual = metric.compute(self.value, delivered_value,
                                  self.update_count - delivered_count)
        if residual != 0.0:
            self.truth.set_divergence(now, residual)

    def sync_views(self, now: float) -> None:
        """Make belief match truth (used by omniscient/instant policies)."""
        self.belief.reset(now, self.value, self.update_count)
        self.truth.reset(now, self.value, self.update_count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DataObject {self.index} src={self.source_id} "
                f"v={self.value:.4g} u={self.update_count}>")
