"""Refresh batching (paper Sec 10.1, future work).

"In some environments it may be appropriate to amortize network bandwidth
by packaging several data objects into the same message for refreshing.
Doing so will cause some refreshes to be delayed artificially while the
source waits for other refreshes to accumulate.  It would be interesting
to explore the tradeoff between packaging multiple refresh messages
together to save bandwidth versus the increased divergence resulting from
delaying refreshes."

:class:`BatchingSource` extends the cooperating sources with a holding pen:
objects whose priority crosses the threshold are *staged* rather than sent,
and a batch message (one bandwidth unit) departs when either ``batch_size``
items have accumulated or the oldest staged item has waited
``batch_timeout``.  The cache applies each item individually.

Threshold bookkeeping: the protocol's multiplicative increase regulates
*bandwidth* consumption, and a batch costs one message, so the threshold
rises once per batch, not once per item.
"""

from __future__ import annotations

from repro.core.objects import DataObject
from repro.network.messages import BatchRefreshMessage
from repro.source.source import SourceNode


class BatchingSource(SourceNode):
    """Sources that package several refreshes into each message.

    Each source's holding pen is a column: ``_staged[j]`` lists its
    staged objects (``None`` while empty) and ``_staged_since[j]`` is
    when the oldest of them was staged.  ``refreshes_sent[j]`` counts
    batch messages; ``items_sent`` counts the objects they carried, over
    all sources.
    """

    __slots__ = ("batch_size", "batch_timeout", "items_sent", "_staged",
                 "_staged_since")

    def __init__(self, *args, batch_size: int = 4,
                 batch_timeout: float = 5.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not batch_timeout > 0:  # a NaN fails it too
            raise ValueError(
                f"batch_timeout must be > 0, got {batch_timeout}")
        self.batch_size = batch_size
        self.batch_timeout = batch_timeout
        self.items_sent = 0
        self._staged: list[list[DataObject] | None] = \
            [None] * self.num_sources
        self._staged_since: list[float | None] = [None] * self.num_sources

    # ------------------------------------------------------------------
    # Refresh scheduling (overrides the one-message-per-object flow)
    # ------------------------------------------------------------------
    def drain(self, source_id: int, now: float) -> bool:
        """Stage over-threshold objects; flush when full or timed out.

        A batching source reports "needs a wakeup" whenever refreshes are
        still staged: a partial batch is waiting on its timeout and a full
        one may be waiting on bandwidth, both of which resolve on a later
        tick.  So a staged batch also counts as ``blocked``: the next
        update must drain, since that drain may flush on the timeout.
        """
        thresholds = self.thresholds
        thresholds.maybe_decay(source_id, now)
        tracker = self.tracker
        staged = self._staged[source_id]
        staged_indices = {obj.index for obj in staged or ()}
        while True:
            top = tracker.peek(source_id)
            if top is None:
                break
            index, priority = top
            if priority < thresholds.value[source_id]:
                break
            tracker.pop(source_id)
            if index in staged_indices:
                continue
            if staged is None:
                staged = self._staged[source_id] = []
            staged.append(self.objects[index])
            staged_indices.add(index)
            if self._staged_since[source_id] is None:
                self._staged_since[source_id] = now
        self._maybe_flush(source_id, now)
        blocked = self._staged[source_id] is not None
        self.blocked[source_id] = blocked
        return blocked

    def _maybe_flush(self, source_id: int, now: float) -> None:
        staged = self._staged[source_id]
        if staged is None:
            return
        since = self._staged_since[source_id]
        full = len(staged) >= self.batch_size
        expired = since is not None and now - since >= self.batch_timeout
        if full or expired:
            self._flush(source_id, now)

    def _flush(self, source_id: int, now: float) -> bool:
        """Send one batch message (one bandwidth unit)."""
        staged = self._staged[source_id]
        batch = staged[: self.batch_size]
        message = BatchRefreshMessage(
            source_id=source_id,
            sent_at=now,
            items=[(obj.index, obj.value, obj.update_count)
                   for obj in batch],
            threshold=self.thresholds.value[source_id],
        )
        if not self.topology.send_upstream(message):
            return False  # out of bandwidth; retry on a later tick
        monitor = self.monitors[source_id]
        for obj in batch:
            obj.mark_sent(now)
            monitor.on_refresh_sent(self.tracker, obj, now)
        self.items_sent += len(batch)
        rest = staged[self.batch_size:]
        self._staged[source_id] = rest or None
        self._staged_since[source_id] = now if rest else None
        self.thresholds.on_refresh(source_id, now)
        self.refreshes_sent[source_id] += 1  # one message on the wire
        return True

    def staged(self, source_id: int) -> int:
        """Refreshes source ``source_id`` holds for its batch to fill."""
        return len(self._staged[source_id] or ())
