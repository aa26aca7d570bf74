"""Per-object synchronization state.

A data object's synchronization status has *two* views, kept as flat
fields of its one :class:`DataObject`:

* the **belief** view, held by the source: divergence relative to the value
  the source last *sent*.  Priorities (Sec 3.3) are computed against this
  view, because a cooperating source knows exactly what it shipped but not
  whether the message has been delivered yet.  A source ranks by the area
  above the divergence curve since the last refresh, so the belief keeps
  six fields: reference value and count, divergence, the divergence
  integral, the time of its last change and the time of the last refresh.
* the **truth** view, used for evaluation: divergence relative to the value
  the cache last *applied*.  While a refresh message sits in a congested
  queue the truth view keeps diverging -- this is precisely the queueing
  penalty the paper's flood-avoiding feedback scheme is designed to limit.
  The evaluation (Sec 3.1) reads only the cached copy's reference value
  and count and its divergence, so the truth keeps those three.

For ideal (omniscient, zero-latency) policies the two views coincide.

The belief's integral of divergence since the last refresh is kept
lazily: divergence only changes at update and refresh events (paper Sec
8.2), so the integral accrues ``divergence * elapsed`` per piece, in O(1)
per event.  The integral at time ``t`` is ``belief_integral +
belief_divergence * (t - belief_change_time)``.

A data object is this one Python object: on the sparse workload (one
object per source, m = 10^5) set-up costs 2 GC-tracked objects and
~458 B per source, the caller's bandwidth profile and this object
included, and the end of ``sparse-star-100k`` 3.2 objects and ~728 B
(DESIGN.md Sec 10; ``tests/test_footprint.py`` caps both).
"""

from __future__ import annotations

from repro.core.divergence import DivergenceMetric

#: Update time of a never-updated object; one shared float, not one each.
_NEVER = float("-inf")


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
    belief_value, belief_count:
        Value and update count the source last sent.
    belief_divergence, belief_integral, belief_change_time:
        Divergence from the sent value, and its integral since the last
        refresh up to ``belief_change_time``, the time of its last change.
    belief_refresh_time:
        Time of the last refresh the source sent.
    truth_value, truth_count, truth_divergence:
        Value and update count the cache last applied, and the
        divergence from them.
    """

    __slots__ = ("index", "source_id", "rate", "value", "update_count",
                 "last_update_time", "max_rate",
                 "belief_value", "belief_count", "belief_divergence",
                 "belief_integral", "belief_change_time",
                 "belief_refresh_time",
                 "truth_value", "truth_count", "truth_divergence")

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
        self.belief_value = value
        self.belief_count = 0
        self.belief_divergence = 0.0
        self.belief_integral = 0.0
        self.belief_change_time = time
        self.belief_refresh_time = time
        self.truth_value = value
        self.truth_count = 0
        self.truth_divergence = 0.0

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply_update(self, now: float, new_value: float,
                     metric: DivergenceMetric) -> None:
        """Apply a source-side update and refresh both views' divergence.

        The belief first folds ``divergence * (now - last_change)`` into
        its integral, then takes the new divergence.  The metric runs
        once when the views share their reference (no refresh in
        flight): its arguments, and so its result, are then the same for
        both.
        """
        self.value = new_value
        count = self.update_count + 1
        self.update_count = count
        self.last_update_time = now
        divergence = metric.compute(new_value, self.belief_value,
                                    count - self.belief_count)
        changed = self.belief_change_time
        if now > changed:
            self.belief_integral += self.belief_divergence * (now - changed)
            self.belief_change_time = now
        self.belief_divergence = divergence
        if (self.truth_count != self.belief_count
                or self.truth_value != self.belief_value):
            divergence = metric.compute(new_value, self.truth_value,
                                        count - self.truth_count)
        self.truth_divergence = divergence

    def mark_sent(self, now: float) -> None:
        """The source sent a refresh: the belief view starts a new
        refresh epoch at ``now``, referencing the current value."""
        self.belief_value = self.value
        self.belief_count = self.update_count
        self.belief_refresh_time = now
        self.belief_divergence = 0.0
        self.belief_integral = 0.0
        self.belief_change_time = now

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
        self.truth_value = delivered_value
        self.truth_count = delivered_count
        residual = metric.compute(self.value, delivered_value,
                                  self.update_count - delivered_count)
        # A zero residual of either sign leaves the epoch's 0.0.
        self.truth_divergence = residual if residual != 0.0 else 0.0

    def sync_views(self, now: float) -> None:
        """Make belief match truth (used by omniscient/instant policies):
        both views start a new refresh epoch at the current value."""
        self.mark_sent(now)
        self.truth_value = self.value
        self.truth_count = self.update_count
        self.truth_divergence = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DataObject {self.index} src={self.source_id} "
                f"v={self.value:.4g} u={self.update_count}>")
