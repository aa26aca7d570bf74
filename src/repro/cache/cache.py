"""The cache node: applies refreshes, records thresholds, runs feedback.

The cache is deliberately thin (the paper's point is that the *sources*
carry the scheduling intelligence): it applies whatever refreshes arrive,
tracks piggybacked thresholds, and spends surplus bandwidth on positive
feedback.  For the cache-driven baselines a poll handler can be registered
to receive :class:`PollResponse` messages.

In a multi-cache topology one :class:`CacheNode` exists per cache id; each
registers as the receiver of its own cache link and drains only that link
in its CACHE-phase tick, so congestion on one cache never blocks another.
"""

from __future__ import annotations

from typing import Callable

from repro.cache.feedback import FeedbackController
from repro.cache.store import CacheStore
from repro.core.divergence import DivergenceMetric
from repro.core.objects import DataObject
from repro.metrics.collector import DivergenceCollector
from repro.network.messages import (
    BatchRefreshMessage,
    Message,
    MigrateMessage,
    PollResponse,
    RefreshMessage,
)
from repro.network.topology import Topology
from repro.sim.engine import Simulator


class WindowStats:
    """Per-window refresh telemetry a rebalancer reads and resets.

    Attached to a :class:`CacheNode` only when a rebalancer is running
    (``None`` otherwise, so the fault-free refresh hot path pays one
    pointer check).  ``refreshes`` counts applied refreshes per source,
    which is what picks the hottest shard to migrate.
    """

    __slots__ = ("refreshes",)

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.refreshes: dict[int, int] = {}

    def note(self, source_id: int) -> None:
        self.refreshes[source_id] = self.refreshes.get(source_id, 0) + 1


class CacheNode:
    """Receives messages on its cache link and applies refreshes.

    ``objects`` is the *global* object list (indexed by global object
    index); the node only ever sees messages for sources routed to its
    ``cache_id``, so no further filtering is needed.
    """

    def __init__(self, objects: list[DataObject], metric: DivergenceMetric,
                 topology: Topology,
                 collector: DivergenceCollector | None = None,
                 store: CacheStore | None = None,
                 feedback: FeedbackController | None = None,
                 sim: Simulator | None = None,
                 cache_id: int = 0) -> None:
        self.objects = objects
        self.metric = metric
        self.topology = topology
        self.collector = collector
        self.store = store
        self.feedback = feedback
        #: the run's simulator, whose ``now`` stamps every delivery (a
        #: node built without one stays at time 0)
        self.sim = sim if sim is not None else Simulator()
        self.cache_id = cache_id
        self.refreshes_applied = 0
        self.stale_discards = 0
        self.poll_responses = 0
        self.migrations_in = 0
        #: windowed telemetry, installed by a rebalancer (None = off path)
        self.window: WindowStats | None = None
        self._poll_handler: Callable[[PollResponse, float], None] | None = None
        self.refresh_hooks: list[Callable[[DataObject, float], None]] = []
        #: optional callback ``hook(now)`` fired on every delivered message,
        #: so an event-driven policy can arm this cache's per-tick wakeup
        #: (deliveries can re-create feedback work on a parked cache)
        self.activity_hook: Callable[[float], None] | None = None
        self.crashes = 0
        topology.set_cache_receiver(self.on_message, cache_id=cache_id)
        topology.add_crash_listener(cache_id, self.on_crash)

    def set_poll_handler(
            self, handler: Callable[[PollResponse, float], None]) -> None:
        self._poll_handler = handler

    def add_refresh_hook(
            self, hook: Callable[[DataObject, float], None]) -> None:
        """Register a callback invoked after each refresh is applied."""
        self.refresh_hooks.append(hook)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        now = self.sim.now
        kind = type(message)
        if kind is RefreshMessage:
            self._apply_refresh(message, now)
        elif kind is BatchRefreshMessage:
            self._apply_batch(message, now)
        elif kind is PollResponse:
            self.poll_responses += 1
            if self._poll_handler is not None:
                self._poll_handler(message, now)
        elif kind is MigrateMessage:
            self._apply_migration(message, now)
        if self.activity_hook is not None:
            self.activity_hook(now)

    def _apply_refresh(self, message: RefreshMessage, now: float) -> None:
        obj = self.objects[message.object_index]
        if self._is_stale(obj, message.update_count):
            return
        obj.apply_refresh(now, message.value, message.update_count,
                          self.metric)
        if self.window is not None:
            self.window.note(message.source_id)
        if self.collector is not None:
            self.collector.record(obj.index, now, obj.truth_divergence)
        if self.store is not None:
            self.store.apply(obj.index, message.value, now,
                             update_count=message.update_count)
        if self.feedback is not None:
            self.feedback.observe_threshold(message.source_id,
                                            message.threshold)
        self.refreshes_applied += 1
        for hook in self.refresh_hooks:
            hook(obj, now)

    def _apply_batch(self, message: BatchRefreshMessage,
                     now: float) -> None:
        """Apply each packaged item of a Sec 10.1 batch refresh, as
        :meth:`_apply_refresh` applies one, then note the piggybacked
        threshold once."""
        window = self.window
        collector = self.collector
        store = self.store
        for object_index, value, update_count in message.items:
            obj = self.objects[object_index]
            if self._is_stale(obj, update_count):
                continue
            obj.apply_refresh(now, value, update_count, self.metric)
            if window is not None:
                window.note(message.source_id)
            if collector is not None:
                collector.record(obj.index, now, obj.truth_divergence)
            if store is not None:
                store.apply(obj.index, value, now,
                            update_count=update_count)
            self.refreshes_applied += 1
            for hook in self.refresh_hooks:
                hook(obj, now)
        if self.feedback is not None:
            self.feedback.observe_threshold(message.source_id,
                                            message.threshold)

    # ------------------------------------------------------------------
    # Shard migration (rebalancer)
    # ------------------------------------------------------------------
    def export_source(self, source_id: int,
                      object_indices: "list[int] | range"
                      ) -> tuple[list[tuple[int, float, int]], float]:
        """Donor side of a migration: snapshot state, drop the feedback row.

        Returns the ``(object_index, value, update_count)`` snapshots of
        this cache's stored copies plus the feedback controller's learned
        threshold for the source.  The truth views are untouched -- the
        logical cached copy does not change by moving, so divergence
        accounting through a *warm* handoff is exact (contrast the crash
        path, which reverts truth to the initial values because the copy
        really is lost).
        """
        store = self.store
        if store is None:
            items = []
        else:
            items = [(int(i), float(store.values[i]),
                      int(store.applied_counts[i]))
                     for i in object_indices]
        threshold = float("inf")
        if self.feedback is not None:
            threshold = self.feedback.remove_source(source_id)
        return items, threshold

    def _apply_migration(self, message: MigrateMessage, now: float) -> None:
        """Recipient side: adopt the snapshots and (if primary) the source.

        Each item lands in the store only when at least as fresh as what
        is already there: refreshes over the re-routed source link may
        have raced ahead of the migration payload on the peer link, and
        regressing ``applied_count`` would resurrect a stale copy.  Truth
        views are never touched -- see :meth:`export_source`.

        A payload whose source has moved on again before it landed (a
        later migration re-routed it) updates the store copy but leaves
        the feedback table alone: the source's new primary runs the
        protocol.
        """
        store = self.store
        if store is not None:
            counts = store.applied_counts
            for object_index, value, update_count in message.items:
                if update_count >= counts[object_index]:
                    store.apply(object_index, value, now,
                                update_count=update_count)
        if self.topology.primary_cache_of(message.source_id) \
                == self.cache_id:
            self.migrations_in += 1
            if self.feedback is not None:
                self.feedback.add_source(message.source_id,
                                         message.threshold)

    def _is_stale(self, obj: DataObject, update_count: int) -> bool:
        """True when a fresher snapshot of ``obj`` was already applied.

        On one FIFO link snapshots arrive in order, so this never triggers
        in a star.  With replication, a congested replica link can deliver
        an *older* snapshot after a faster replica applied a newer one;
        re-applying it would regress the shared truth view and inject
        phantom divergence into the measurement.  The logical cached copy
        is the freshest replica, so late stale copies are discarded (and
        counted, since they did consume bandwidth).
        """
        if update_count < obj.truth_count:
            self.stale_discards += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def on_crash(self, now: float) -> None:
        """Cold-restart this cache node (fault injection).

        Everything *learned* is lost -- the feedback controller's
        threshold records and the store's applied snapshots -- while the
        measurement machinery stays exact: each solely-cached object's
        truth view reverts to its initial (count-0) value *as a
        divergence event at* ``now``, because the cached copy really did
        jump back to the seed value the restarted process re-primes
        from.  Replicated objects are left alone: their logical cached
        copy is the freshest *surviving* replica, and per-replica
        crash accounting is out of scope for the fault model (E12 runs
        star and sharded layouts only).
        """
        self.crashes += 1
        if self.feedback is not None:
            self.feedback.reset()
        if self.store is not None:
            initial = self.store.initial_values
            topology = self.topology
            # replicated sources excluded: surviving replicas keep the copy
            mine = {source_id
                    for source_id in topology.sources_of(self.cache_id)
                    if len(topology.caches_of(source_id)) == 1}
            for obj in self.objects:
                if obj.source_id not in mine:
                    continue
                obj.apply_refresh(now, float(initial[obj.index]), 0,
                                  self.metric)
                if self.collector is not None:
                    self.collector.record(obj.index, now,
                                          obj.truth_divergence)
            self.store.reset()
        if self.activity_hook is not None:
            # A parked event-mode cache must wake: the restart re-created
            # feedback work (every threshold is unknown-infinite again).
            self.activity_hook(now)

    # ------------------------------------------------------------------
    # Per-tick work (CACHE phase)
    # ------------------------------------------------------------------
    def on_tick(self, now: float) -> None:
        """Second drain of this node's cache link, then feedback from surplus.

        Messages sources sent earlier in this same tick can still transmit
        with the remaining credit; only credit left over *after* that is
        genuine surplus available for positive feedback.
        """
        self.topology.drain_cache(self.cache_id)
        if self.feedback is not None:
            self.feedback.on_tick(now)
