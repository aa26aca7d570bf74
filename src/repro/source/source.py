"""The cooperating data source (paper Secs 5 and 8).

A :class:`SourceNode` owns a contiguous range of objects, watches their
refresh priorities through a :class:`PriorityMonitor`, and implements the
source half of the threshold-setting protocol:

* whenever source-side bandwidth allows, refresh the highest-priority
  object *if* its priority is at least the local threshold ``T_j``;
* raise ``T_j`` by ``alpha * gamma`` per refresh sent;
* on positive feedback, lower ``T_j`` by ``omega`` unless sending at full
  source-side capacity (footnote 3);
* piggyback the current ``T_j`` on every refresh message so the cache can
  target feedback at the sources with the highest thresholds.
"""

from __future__ import annotations

from repro.core.objects import DataObject
from repro.core.threshold import ThresholdController
from repro.network.messages import FeedbackMessage, Message, RefreshMessage
from repro.network.topology import Topology
from repro.source.monitor import PriorityMonitor


class SourceNode:
    """One cooperating source; topology-agnostic.

    The source does not care how many caches exist: the topology routes
    its upstream refreshes to the right cache link(s), and downstream
    feedback arrives tagged with the ``cache_id`` it came from (counted
    in ``feedback_by_cache`` for diagnostics, ``None`` until the first
    feedback).

    ``objects`` must have contiguous global indices, so the object with
    index ``i`` is ``objects[i - first_index]``.
    """

    __slots__ = ("source_id", "objects", "monitor", "threshold",
                 "topology", "refreshes_sent", "feedback_received",
                 "feedback_by_cache", "send_hooks", "first_index")

    def __init__(self, source_id: int, objects: list[DataObject],
                 monitor: PriorityMonitor,
                 threshold: ThresholdController,
                 topology: Topology) -> None:
        first = objects[0].index if objects else 0
        for offset, obj in enumerate(objects):
            if obj.index != first + offset:
                raise ValueError(
                    f"source {source_id}: object indices must be "
                    f"contiguous, expected {first + offset} at offset "
                    f"{offset}, got {obj.index}")
        self.source_id = source_id
        self.objects = objects
        self.monitor = monitor
        self.threshold = threshold
        self.topology = topology
        self.refreshes_sent = 0
        self.feedback_received = 0
        self.feedback_by_cache: dict[int, int] | None = None
        #: callbacks ``hook(obj, now, threshold_driven)`` fired per send
        self.send_hooks: tuple = ()
        self.first_index = first

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def on_update(self, obj: DataObject, now: float) -> bool:
        """An update was applied to one of this source's objects.

        The paper's sources "decide whether to refresh immediately after
        each update" (Sec 3.4), so after repositioning the object in the
        priority queue we immediately try to drain.  Returns True when the
        drain was cut short by bandwidth (the source needs a wakeup at the
        next refill to finish).
        """
        self.monitor.on_update(obj, now)
        return self.drain(now)

    def on_tick(self, now: float) -> None:
        """Per-tick refresh opportunity (SOURCES phase, full-scan
        fallback for time-varying priorities)."""
        self.monitor.on_tick(self.objects, now)
        self.drain(now)

    def on_wake(self, now: float) -> bool:
        """Deadline-driven refresh opportunity (event scheduling).

        Performs exactly what :meth:`on_tick` would have at this tick --
        the monitor touches only its due objects -- and reports whether
        the source still has over-threshold work blocked on bandwidth.
        """
        self.monitor.on_wake(self, now)
        return self.drain(now)

    def on_message(self, message: Message, now: float) -> bool:
        """Downstream message from a cache.  Returns the blocked status
        of any drain this message triggered."""
        if isinstance(message, FeedbackMessage):
            return self.on_feedback(now, cache_id=message.cache_id)
        return False

    def on_feedback(self, now: float, cache_id: int = 0) -> bool:
        """Positive feedback: lower the threshold and use it right away."""
        self.feedback_received += 1
        by_cache = self.feedback_by_cache
        if by_cache is None:
            by_cache = self.feedback_by_cache = {}
        by_cache[cache_id] = by_cache.get(cache_id, 0) + 1
        at_capacity = self.topology.source_at_capacity(self.source_id)
        self.threshold.on_feedback(now, at_capacity=at_capacity)
        return self.drain(now)

    # ------------------------------------------------------------------
    # Refresh scheduling
    # ------------------------------------------------------------------
    def drain(self, now: float) -> bool:
        """Send refreshes while priority >= threshold and bandwidth allows.

        Returns True when an over-threshold object could not be sent for
        lack of source-side bandwidth -- the caller should schedule a
        wakeup at the next credit refill; False when the queue is exhausted
        or the top priority fell below the threshold (only a new update,
        feedback or sample can change that, each of which re-drains).
        """
        self.threshold.maybe_decay(now)
        tracker = self.monitor.tracker
        while True:
            top = tracker.peek()
            if top is None:
                return False
            index, priority = top
            if priority < self.threshold.value:
                return False
            obj = self.objects[index - self.first_index]
            if not self._send_refresh(obj, now):
                return True  # out of source-side bandwidth this tick

    def _send_refresh(self, obj: DataObject, now: float,
                      adjust_threshold: bool = True) -> bool:
        """Send one refresh message; ``adjust_threshold=False`` is used by
        source-priority sends in competitive mode (Sec 7), which are paced
        by their own allocation rather than the threshold protocol."""
        message = RefreshMessage(
            source_id=self.source_id,
            sent_at=now,
            object_index=obj.index,
            value=obj.value,
            threshold=self.threshold.value,
            update_count=obj.update_count,
        )
        if not self.topology.send_upstream(message):
            return False
        obj.mark_sent(now)
        self.monitor.on_refresh_sent(obj, now)
        if adjust_threshold:
            self.threshold.on_refresh(now)
        self.refreshes_sent += 1
        for hook in self.send_hooks:
            hook(obj, now, adjust_threshold)
        return True
