"""The cooperating data sources (paper Secs 5 and 8).

One :class:`SourceNode` runs every source of a policy: source ``j`` is
row ``j`` of its columns, and each handler takes the source id (or reads
it off the object or message).  A source owns a contiguous range of
objects, keeps their refresh priorities in its row of a
:class:`PriorityTable` through a :class:`PriorityMonitor`, and implements
the source half of the threshold-setting protocol:

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
from repro.core.threshold import ThresholdTable
from repro.core.tracking import PriorityTable
from repro.network.messages import FeedbackMessage, Message, RefreshMessage
from repro.network.topology import Topology
from repro.source.monitor import PriorityMonitor


class SourceNode:
    """Every cooperating source of one policy, one row per source id;
    topology-agnostic.

    A source does not care how many caches exist: the topology routes
    its upstream refreshes to the right cache link(s), and downstream
    feedback arrives addressed to its source id.

    ``objects`` is the run's list of every object, indexed by global
    object index; source ``j`` owns the ``objects_per_source`` objects
    from ``j * objects_per_source`` on (:meth:`indices`).  ``monitors[j]``
    keeps source ``j``'s row of ``tracker`` up to date (one trigger
    monitor serves every source; a sampling monitor is one per source),
    and ``thresholds`` holds every ``T_j``.

    The per-source state is in columns indexed by source id:
    ``blocked`` (whether the last drain stopped on over-threshold work
    it had no source-side bandwidth for, see :meth:`drain`) and
    ``refreshes_sent``; the tracker and threshold tables keep theirs.
    """

    __slots__ = ("objects", "objects_per_source", "monitors", "tracker",
                 "thresholds", "topology", "blocked", "refreshes_sent",
                 "send_hooks")

    def __init__(self, objects: list[DataObject], objects_per_source: int,
                 monitors: list[PriorityMonitor],
                 thresholds: ThresholdTable, topology: Topology) -> None:
        num_sources = len(monitors)
        owned = num_sources * objects_per_source
        if len(objects) < owned:
            raise ValueError(
                f"{num_sources} sources of {objects_per_source} objects "
                f"need {owned} objects, got {len(objects)}")
        for index in range(owned):
            if objects[index].index != index:
                raise ValueError(
                    f"source {index // objects_per_source}: object indices "
                    f"must be contiguous, expected {index} at position "
                    f"{index}, got {objects[index].index}")
        if len(thresholds.value) != num_sources:
            raise ValueError(
                f"{len(thresholds.value)} thresholds for {num_sources} "
                f"sources")
        self.objects = objects
        self.objects_per_source = objects_per_source
        self.monitors = monitors
        # Every source's queue shares one version store (an object is
        # tracked by its own source only).
        self.tracker = PriorityTable(num_sources, [0] * len(objects))
        self.thresholds = thresholds
        self.topology = topology
        self.blocked = bytearray(num_sources)
        self.refreshes_sent = [0] * num_sources
        #: callbacks ``hook(obj, now, threshold_driven)`` fired per send
        self.send_hooks: tuple = ()

    @property
    def num_sources(self) -> int:
        return len(self.monitors)

    def indices(self, source_id: int) -> range:
        """Global indices of source ``source_id``'s objects."""
        first = source_id * self.objects_per_source
        return range(first, first + self.objects_per_source)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def on_update(self, obj: DataObject, now: float) -> bool:
        """An update was applied to ``obj``, one of source
        ``obj.source_id``'s objects.

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
        j = obj.source_id
        thresholds = self.thresholds
        if (self.monitors[j].on_update(self.tracker, j, obj, now)
                < thresholds.value[j]
                and not self.blocked[j] and now < thresholds.deadline[j]):
            return False
        return self.drain(j, now)

    def on_wake(self, source_id: int, now: float) -> bool:
        """The policy's dispatcher woke source ``source_id`` (SOURCES
        phase).

        The monitor re-evaluates its due objects, then the source drains;
        returns whether over-threshold work is still blocked on
        bandwidth.
        """
        self.monitors[source_id].on_wake(self, source_id, now)
        return self.drain(source_id, now)

    def on_message(self, message: Message, now: float) -> bool:
        """Downstream message from a cache to ``message.source_id``.
        Returns the blocked status of any drain this message
        triggered."""
        if isinstance(message, FeedbackMessage):
            return self.on_feedback(message.source_id, now)
        return False

    def on_feedback(self, source_id: int, now: float) -> bool:
        """Positive feedback: lower the threshold and use it right away."""
        at_capacity = self.topology.source_at_capacity(source_id)
        self.thresholds.on_feedback(source_id, now, at_capacity=at_capacity)
        return self.drain(source_id, now)

    # ------------------------------------------------------------------
    # Refresh scheduling
    # ------------------------------------------------------------------
    def drain(self, source_id: int, now: float) -> bool:
        """Send refreshes while priority >= threshold and bandwidth allows.

        Returns True when an over-threshold object could not be sent for
        lack of source-side bandwidth -- the caller should schedule a
        wakeup at the next credit refill; False when the queue is exhausted
        or the top priority fell below the threshold, which leaves every
        tracked priority below ``T_j`` (what lets :meth:`on_update` skip
        the next drain).  The result is also kept in ``blocked``.
        """
        thresholds = self.thresholds
        thresholds.maybe_decay(source_id, now)
        values = thresholds.value
        tracker = self.tracker
        while True:
            top = tracker.peek(source_id)
            if top is None or top[1] < values[source_id]:
                self.blocked[source_id] = False
                return False
            if not self._send_refresh(source_id, self.objects[top[0]], now):
                self.blocked[source_id] = True
                return True  # out of source-side bandwidth this tick

    def _send_refresh(self, source_id: int, obj: DataObject, now: float,
                      adjust_threshold: bool = True) -> bool:
        """Send one refresh message; ``adjust_threshold=False`` is used by
        source-priority sends in competitive mode (Sec 7), which are paced
        by their own allocation rather than the threshold protocol."""
        # Positional fields: the cheapest way to build the message.
        message = RefreshMessage(source_id, obj.index, obj.value,
                                 self.thresholds.value[source_id],
                                 obj.update_count, sent_at=now)
        if not self.topology.send_upstream(message):
            return False
        obj.mark_sent(now)
        self.monitors[source_id].on_refresh_sent(self.tracker, obj, now)
        if adjust_threshold:
            self.thresholds.on_refresh(source_id, now)
        self.refreshes_sent[source_id] += 1
        for hook in self.send_hooks:
            hook(obj, now, adjust_threshold)
        return True
