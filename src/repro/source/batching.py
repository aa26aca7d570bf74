"""Refresh batching (paper Sec 10.1, future work).

"In some environments it may be appropriate to amortize network bandwidth
by packaging several data objects into the same message for refreshing.
Doing so will cause some refreshes to be delayed artificially while the
source waits for other refreshes to accumulate.  It would be interesting
to explore the tradeoff between packaging multiple refresh messages
together to save bandwidth versus the increased divergence resulting from
delaying refreshes."

:class:`BatchingSource` extends the cooperating source with a holding pen:
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
    """A source that packages several refreshes into each message."""

    __slots__ = ("batch_size", "batch_timeout", "batches_sent",
                 "items_sent", "_staged", "_staged_since")

    def __init__(self, *args, batch_size: int = 4,
                 batch_timeout: float = 5.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if batch_timeout <= 0:
            raise ValueError(
                f"batch_timeout must be > 0, got {batch_timeout}")
        self.batch_size = batch_size
        self.batch_timeout = batch_timeout
        self.batches_sent = 0
        self.items_sent = 0
        self._staged: list[DataObject] = []
        self._staged_since: float | None = None

    # ------------------------------------------------------------------
    # Refresh scheduling (overrides the one-message-per-object flow)
    # ------------------------------------------------------------------
    def drain(self, now: float) -> bool:
        """Stage over-threshold objects; flush when full or timed out.

        A batching source reports "needs a wakeup" whenever refreshes are
        still staged: a partial batch is waiting on its timeout and a full
        one may be waiting on bandwidth, both of which resolve on a later
        tick.  So a staged batch also counts as ``blocked``: the next
        update must drain, since that drain may flush on the timeout.
        """
        self.threshold.maybe_decay(now)
        tracker = self.tracker
        staged_indices = {obj.index for obj in self._staged}
        while True:
            top = tracker.peek()
            if top is None:
                break
            index, priority = top
            if priority < self.threshold.value:
                break
            tracker.pop()
            if index in staged_indices:
                continue
            self._staged.append(self.objects[index])
            staged_indices.add(index)
            if self._staged_since is None:
                self._staged_since = now
        self._maybe_flush(now)
        self.blocked = bool(self._staged)
        return self.blocked

    def _maybe_flush(self, now: float) -> None:
        if not self._staged:
            return
        full = len(self._staged) >= self.batch_size
        expired = (self._staged_since is not None
                   and now - self._staged_since >= self.batch_timeout)
        if full or expired:
            self._flush(now)

    def _flush(self, now: float) -> bool:
        """Send one batch message (one bandwidth unit)."""
        batch = self._staged[: self.batch_size]
        message = BatchRefreshMessage(
            source_id=self.source_id,
            sent_at=now,
            items=[(obj.index, obj.value, obj.update_count)
                   for obj in batch],
            threshold=self.threshold.value,
        )
        if not self.topology.send_upstream(message):
            return False  # out of bandwidth; retry on a later tick
        for obj in batch:
            obj.mark_sent(now)
            self.monitor.on_refresh_sent(self.tracker, obj, now)
            self.items_sent += 1
        self._staged = self._staged[self.batch_size:]
        self._staged_since = now if self._staged else None
        self.threshold.on_refresh(now)
        self.batches_sent += 1
        self.refreshes_sent += 1  # one message on the wire
        return True

    @property
    def staged(self) -> int:
        """Number of refreshes currently waiting for the batch to fill."""
        return len(self._staged)
