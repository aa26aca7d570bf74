"""The cooperating data source (paper Secs 5 and 8).

A :class:`SourceNode` owns a contiguous range of objects, keeps their
refresh priorities in its :class:`PriorityTracker` through a
:class:`PriorityMonitor`, and implements the source half of the
threshold-setting protocol:

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
from repro.core.tracking import PriorityTracker
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

    ``objects`` is the run's list of every object, indexed by global
    object index and shared by all sources; this source owns the
    ``num_objects`` objects from ``first_index`` on (:meth:`indices`).
    ``tracker`` is its priority queue and ``monitor`` keeps it up to date
    (one trigger monitor serves every source of a policy).
    """

    __slots__ = ("source_id", "objects", "first_index", "num_objects",
                 "tracker", "monitor", "threshold", "topology",
                 "refreshes_sent", "feedback_received",
                 "feedback_by_cache", "send_hooks", "blocked")

    def __init__(self, source_id: int, objects: list[DataObject],
                 first_index: int, num_objects: int,
                 tracker: PriorityTracker, monitor: PriorityMonitor,
                 threshold: ThresholdController,
                 topology: Topology) -> None:
        for index in range(first_index, first_index + num_objects):
            if objects[index].index != index:
                raise ValueError(
                    f"source {source_id}: object indices must be "
                    f"contiguous, expected {index} at position {index}, "
                    f"got {objects[index].index}")
        self.source_id = source_id
        self.objects = objects
        self.first_index = first_index
        self.num_objects = num_objects
        self.tracker = tracker
        self.monitor = monitor
        self.threshold = threshold
        self.topology = topology
        self.refreshes_sent = 0
        self.feedback_received = 0
        self.feedback_by_cache: dict[int, int] | None = None
        #: callbacks ``hook(obj, now, threshold_driven)`` fired per send
        self.send_hooks: tuple = ()
        #: whether the last drain stopped on over-threshold work it had
        #: no source-side bandwidth for (see :meth:`drain`)
        self.blocked = False

    def indices(self) -> range:
        """Global indices of this source's objects."""
        return range(self.first_index, self.first_index + self.num_objects)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def on_update(self, obj: DataObject, now: float) -> bool:
        """An update was applied to one of this source's objects.

        The paper's sources "decide whether to refresh immediately after
        each update" (Sec 3.4): the monitor repositions the object in the
        priority queue, then the source drains -- unless the answer is
        already known to be no.  After a drain that ended unblocked every
        tracked priority is below ``T_j``, and only an update, feedback
        (which lowers ``T_j``), a wake or a due TTL decay (which the drain
        applies) can change that; feedback and wakes drain on their own.
        So when the new priority is below ``T_j``, the last drain ended
        unblocked and no decay is due, the drain would change nothing,
        and it is skipped.  Returns True when the source is blocked on
        bandwidth (it needs a wakeup at the next refill to finish).
        """
        threshold = self.threshold
        if (self.monitor.on_update(self.tracker, obj, now)
                < threshold.value
                and not self.blocked and now < threshold.decay_deadline):
            return False
        return self.drain(now)

    def on_wake(self, now: float) -> bool:
        """The policy's dispatcher woke this source (SOURCES phase).

        The monitor re-evaluates its due objects, then the source drains;
        returns whether over-threshold work is still blocked on
        bandwidth.
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
        or the top priority fell below the threshold, which leaves every
        tracked priority below ``T_j`` (what lets :meth:`on_update` skip
        the next drain).  The result is also kept in ``blocked``.
        """
        threshold = self.threshold
        threshold.maybe_decay(now)
        tracker = self.tracker
        while True:
            top = tracker.peek()
            if top is None or top[1] < threshold.value:
                self.blocked = False
                return False
            if not self._send_refresh(self.objects[top[0]], now):
                self.blocked = True
                return True  # out of source-side bandwidth this tick

    def _send_refresh(self, obj: DataObject, now: float,
                      adjust_threshold: bool = True) -> bool:
        """Send one refresh message; ``adjust_threshold=False`` is used by
        source-priority sends in competitive mode (Sec 7), which are paced
        by their own allocation rather than the threshold protocol."""
        # Positional fields: the cheapest way to build the message.
        message = RefreshMessage(self.source_id, obj.index, obj.value,
                                 self.threshold.value, obj.update_count,
                                 sent_at=now)
        if not self.topology.send_upstream(message):
            return False
        obj.mark_sent(now)
        self.monitor.on_refresh_sent(self.tracker, obj, now)
        if adjust_threshold:
            self.threshold.on_refresh(now)
        self.refreshes_sent += 1
        for hook in self.send_hooks:
            hook(obj, now, adjust_threshold)
        return True
