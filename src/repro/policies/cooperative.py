"""The paper's practical algorithm: threshold-based source cooperation.

This policy assembles the full Sec 5 machinery over the message-level
network substrate:

* one :class:`SourceNode` running every source as a row: its lazy
  priority queue, its threshold in a :class:`ThresholdTable`
  (``alpha``/``omega``/``gamma`` dynamics) and a priority monitor (exact
  triggers by default, sampling optional);
* one :class:`CacheNode` per cache node in the configured topology, each
  applying whatever refreshes arrive on its link and running its own
  :class:`FeedbackController`, spending surplus link bandwidth on positive
  feedback to the highest-threshold sources it is primary for;
* a :class:`Topology` (the paper's one-cache star by default, or a
  sharded / replicated layout via the context's :class:`TopologyConfig`)
  whose cache links are where congestion, queueing delay and flooding
  actually happen.

Every coordination byte is accounted: refresh messages carry the
piggybacked thresholds, feedback messages consume real bandwidth, and the
run result separates useful refreshes from overhead.
"""

from __future__ import annotations

from functools import partial

from repro.analysis.equilibrium import refreshes_per_feedback
from repro.cache.cache import CacheNode
from repro.cache.feedback import FeedbackController
from repro.cache.store import CacheStore
from repro.core.divergence import DivergenceMetric
from repro.core.objects import DataObject
from repro.core.priority import AreaPriority, PriorityFunction
from repro.core.threshold import DEFAULT_ALPHA, DEFAULT_OMEGA, ThresholdTable
from repro.network.bandwidth import BandwidthProfile
from repro.network.topology import Topology
from repro.policies.base import SimulationContext, SyncPolicy
from repro.sim.events import Phase, WakeupSet
from repro.source.batching import BatchingSource
from repro.source.monitor import SamplingMonitor, TriggerMonitor
from repro.source.source import SourceNode


class CooperativePolicy(SyncPolicy):
    """Sec 5's adaptive threshold-setting algorithm, end to end.

    Parameters
    ----------
    cache_bandwidth:
        Aggregate cache-side profile ``C(t)``; the context's topology
        splits it evenly across its cache links.
    source_bandwidths:
        One profile per source (``B_j(t)``).
    priority_fn:
        Refresh priority function shared by all sources.
    alpha, omega:
        Threshold increase / decrease factors (paper's best: 1.1 and 10).
    initial_threshold:
        Starting ``T_j`` for every source; any positive value works after
        warm-up.
    feedback_period:
        Expected feedback period ``P_feedback`` for the ``gamma`` factor;
        ``None`` derives the paper's rough estimate per cache
        (``sources at that cache / mean cache-link bandwidth``).
    monitor:
        ``"trigger"`` (exact, default) or ``"sampling"`` (Sec 8.2.1).
    sampling_interval, predictive_sampling:
        Sampling-monitor knobs (ignored for trigger monitoring).
        Predictive sampling projects the area priority's formula, so it
        is refused with any other priority function.
    batch_size, batch_timeout:
        When ``batch_size > 1``, sources package that many refreshes into
        each message (Sec 10.1 future work), flushing a partial batch
        after ``batch_timeout``.
    feedback_ttl:
        Staleness bound on feedback (graceful degradation under faults):
        a source that has heard no feedback for this long stops treating
        the silence as flood pressure and instead decays its threshold
        by ``1/omega`` per TTL elapsed, drifting back toward the uniform
        allocation.  ``None`` (default) keeps the paper's pure protocol.
    rebalance:
        A :class:`~repro.rebalance.controller.RebalanceConfig` to run a
        shard rebalancer over this policy's caches (multi-cache sharded
        topologies; inert on a star).  ``None`` (default) leaves every
        code path exactly as without the feature -- the same pin
        discipline as the fault injector's empty plan.

    Sources and caches are woken per entity by a
    :class:`~repro.sim.events.WakeupSet` only when they have work (pending
    bandwidth-blocked refreshes, sampling deadlines, a time-varying
    priority, feedback targets, queued messages), and idle steady-profile
    source links skip the network tick.  ``tests/test_equivalence.py``
    pins this one schedule against the paper-literal full scan of
    ``tests/oracles.py``.
    """

    name = "cooperative"

    def __init__(self, cache_bandwidth: BandwidthProfile,
                 source_bandwidths: list[BandwidthProfile],
                 priority_fn: PriorityFunction,
                 alpha: float = DEFAULT_ALPHA,
                 omega: float = DEFAULT_OMEGA,
                 initial_threshold: float = 1.0,
                 feedback_period: float | None = None,
                 monitor: str = "trigger",
                 sampling_interval: float = 10.0,
                 predictive_sampling: bool = False,
                 batch_size: int = 1,
                 batch_timeout: float = 5.0,
                 feedback_ttl: float | None = None,
                 rebalance=None) -> None:
        if monitor not in ("trigger", "sampling"):
            raise ValueError(f"unknown monitor kind {monitor!r}; expected "
                             f"'trigger' or 'sampling'")
        # Negated comparisons, so a NaN fails them too.
        if not batch_size >= 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if not batch_timeout > 0:
            raise ValueError(f"batch_timeout must be > 0, got {batch_timeout}")
        if not sampling_interval > 0:
            raise ValueError(
                f"sampling_interval must be > 0, got {sampling_interval}")
        if predictive_sampling and not isinstance(priority_fn, AreaPriority):
            raise ValueError(
                f"predictive_sampling projects the area priority only, "
                f"got priority {priority_fn.name!r}")
        self.cache_bandwidth = cache_bandwidth
        self.source_bandwidths = source_bandwidths
        self.priority_fn = priority_fn
        self.alpha = alpha
        self.omega = omega
        self.initial_threshold = initial_threshold
        self.feedback_period = feedback_period
        self.monitor_kind = monitor
        self.sampling_interval = sampling_interval
        self.predictive_sampling = predictive_sampling
        self.batch_size = batch_size
        self.batch_timeout = batch_timeout
        self.feedback_ttl = feedback_ttl
        self.rebalance = rebalance
        # Whether a source can ask to be woken (a sampling deadline, every
        # fire under a time-varying priority, a TTL decay): only then does
        # an update that left the source unblocked re-arm it.
        self._wakes = (monitor == "sampling" or priority_fn.time_varying
                       or feedback_ttl is not None)
        self.rebalancer = None
        self.topology: Topology | None = None
        self.caches: list[CacheNode] = []
        self.stores: list[CacheStore] = []
        self.feedbacks: list[FeedbackController] = []
        self.sources: SourceNode | None = None
        self._source_wakeups = WakeupSet()
        self._cache_wakeups = WakeupSet()

    # ------------------------------------------------------------------
    # Single-cache conveniences (the star special case)
    # ------------------------------------------------------------------
    @property
    def cache(self) -> CacheNode | None:
        return self.caches[0] if self.caches else None

    @property
    def store(self) -> CacheStore | None:
        return self.stores[0] if self.stores else None

    @property
    def feedback(self) -> FeedbackController | None:
        return self.feedbacks[0] if self.feedbacks else None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, ctx: SimulationContext) -> None:
        workload = ctx.workload
        if len(self.source_bandwidths) != workload.num_sources:
            raise ValueError(
                f"expected {workload.num_sources} source bandwidth "
                f"profiles, got {len(self.source_bandwidths)}")
        self._ctx = ctx
        self.topology = ctx.build_topology(self.cache_bandwidth,
                                           self.source_bandwidths)
        topology = self.topology
        self.caches = []
        self.stores = []
        self.feedbacks = []
        for k in range(topology.num_caches):
            owned = topology.owned_sources_of(k)
            # Per-source refresh value: r-way replicated sources are r
            # times cheaper per unit of divergence removed under
            # multicast.  All-ones (every gain under unicast) collapses
            # to None so the unicast ranking arithmetic is untouched.
            gains = None
            if topology.delivery == "multicast":
                gains = [topology.feedback_gain(j) for j in owned]
                if all(g == 1.0 for g in gains):
                    gains = None
            feedback = FeedbackController(
                topology, self.omega, cache_id=k,
                source_ids=owned, gains=gains)
            store = CacheStore(workload.num_objects,
                               workload.trace.initial_values)
            cache = CacheNode(ctx.objects, ctx.metric, topology,
                              collector=ctx.collector, store=store,
                              feedback=feedback,
                              sim=ctx.sim, cache_id=k)
            self.feedbacks.append(feedback)
            self.stores.append(store)
            self.caches.append(cache)

        m = workload.num_sources
        # The derived feedback period depends only on a source's primary
        # cache: one value per cache, repeated down the column.
        periods: list[float | None] = [None] * m
        for k in range(topology.num_caches):
            owned = topology.owned_sources_of(k)
            if owned:
                period = self._feedback_period_for(owned[0], ctx)
                for j in owned:
                    periods[j] = period
        thresholds = ThresholdTable(
            m, initial=self.initial_threshold, alpha=self.alpha,
            omega=self.omega, feedback_period=periods,
            feedback_ttl=self.feedback_ttl)
        # A trigger monitor keeps no per-source state, so one serves
        # every source.
        if self.monitor_kind == "trigger":
            monitors = [TriggerMonitor(self.priority_fn,
                                       workload.weights)] * m
        else:
            monitors = [self._sampling_monitor(workload.weights, ctx.metric,
                                               thresholds, j)
                        for j in range(m)]
        args = (ctx.objects, workload.objects_per_source, monitors,
                thresholds, topology)
        if self.batch_size > 1:
            self.sources = BatchingSource(
                *args, batch_size=self.batch_size,
                batch_timeout=self.batch_timeout)
        else:
            self.sources = SourceNode(*args)
        sources = self.sources
        receiver = self._on_source_message
        for j in range(m):
            topology.set_source_receiver(j, receiver)
        if topology.reliable is not None:
            topology.reliable.register_sources(sources)

        self._source_wakeups = WakeupSet()
        self._cache_wakeups = WakeupSet()
        if self._wakes:
            for j in range(m):
                sources.monitors[j].prime(sources.indices(j))
                self._rearm_source(j, 0.0, blocked=False)
        for k in range(topology.num_caches):
            self._cache_wakeups.arm(k, 0.0)
            # Every delivery arms its cache; a partial runs no Python
            # frame of its own.
            self.caches[k].activity_hook = partial(
                self._cache_wakeups.arm, k)
            topology.cache_links[k].on_queue = self._make_queue_hook(k)

        ctx.add_update_hook(self._on_update)
        ctx.sim.every(ctx.dt, topology.on_network_tick,
                      phase=Phase.NETWORK)
        ctx.sim.every(ctx.dt, self._sources_tick, phase=Phase.SOURCES)
        ctx.sim.every(ctx.dt, self._caches_tick, phase=Phase.CACHE)
        self.rebalancer = None
        if self.rebalance is not None:
            # Local import: the rebalance package imports cache/topology
            # modules, and policies must stay importable without it.
            from repro.rebalance.controller import Rebalancer
            self.rebalancer = Rebalancer(self.rebalance, topology,
                                         self.caches)
            self.rebalancer.install(ctx)

    def _feedback_period_for(self, source_id: int,
                             ctx: SimulationContext) -> float | None:
        """Expected feedback period for one source's ``gamma`` factor.

        The paper's rough estimate is m / mean cache bandwidth, taken here
        per cache node: the sources sharing the primary cache of
        ``source_id`` over that link's mean rate.  At the alpha/omega
        equilibrium one feedback balances ln(omega)/ln(alpha) refreshes
        (~24 at the default settings), so the *expected* period between
        feedback messages to one source is that many times longer.
        Scaling the estimate (and flooring it at a few ticks) keeps gamma
        measuring genuine feedback droughts across bandwidth regimes --
        the paper notes the estimate "need only be a rough estimate".
        """
        if self.feedback_period is not None:
            return self.feedback_period
        if self.topology is None:
            raise self._not_attached()
        primary = self.topology.primary_cache_of(source_id)
        mean_rate = self.topology.cache_links[primary].profile.mean_rate
        if mean_rate <= 0:
            return None
        slack = refreshes_per_feedback(self.alpha, self.omega)
        peers = len(self.topology.owned_sources_of(primary))
        return max(slack * peers / mean_rate, 5.0 * ctx.dt)

    def _sampling_monitor(self, weights, metric: DivergenceMetric,
                          thresholds: ThresholdTable,
                          j: int) -> SamplingMonitor:
        """Source ``j``'s sampling monitor, reading its threshold."""
        values = thresholds.value
        return SamplingMonitor(
            self.priority_fn, weights, metric,
            interval=self.sampling_interval,
            predictive=self.predictive_sampling,
            threshold=lambda: values[j])

    def _on_source_message(self, message) -> None:
        """The one receiver every source id is registered with."""
        now = self._ctx.sim.now
        self._rearm_source(message.source_id, now,
                           self.sources.on_message(message, now))

    def _make_queue_hook(self, cache_id: int):
        def hook(message) -> None:
            self._cache_wakeups.arm(cache_id, message.sent_at)
        return hook

    # ------------------------------------------------------------------
    # Event routing
    #
    # The per-tick dispatchers below wake only the entities whose
    # WakeupSet entry is due, in the same ascending-id order a full scan
    # visits them; every source entry point (update, feedback, wake)
    # re-arms the source's wakeup from its blocked status, its monitor's
    # next wake time (a sampling deadline, or every fire for a
    # time-varying priority) and its next TTL decay.  An update skips
    # the re-arm when it left the source unblocked in a run where no
    # source can ask for a wake: the re-arm would arm nothing.  A source
    # is parked exactly when a full-scan visit would be a no-op, which
    # is what keeps the run bit-for-bit identical to the reference
    # schedule of tests/oracles.py.
    # ------------------------------------------------------------------
    def _on_update(self, obj: DataObject, now: float) -> None:
        blocked = self.sources.on_update(obj, now)
        if blocked or self._wakes:
            self._rearm_source(obj.source_id, now, blocked)

    def _rearm_source(self, j: int, now: float, blocked: bool) -> None:
        if blocked:
            # Out of bandwidth with over-threshold work: credit accrues by
            # the next tick, so wake at the next dispatcher fire.
            self._source_wakeups.arm(j, now)
        sources = self.sources
        next_wake = sources.monitors[j].next_wake_time()
        if next_wake is not None:
            self._source_wakeups.arm(j, next_wake)
        decay = sources.thresholds.next_decay_time(j)
        if decay is not None:
            # TTL decay must fire even while the source is otherwise
            # parked, or a blacked-out source would never drift.
            self._source_wakeups.arm(j, decay)

    def _sources_tick(self, now: float) -> None:
        sources = self.sources
        for j in self._source_wakeups.pop_due(now, eps=1e-12):
            self._rearm_source(j, now, sources.on_wake(j, now))

    def _caches_tick(self, now: float) -> None:
        for k in self._cache_wakeups.pop_due(now):
            cache = self.caches[k]
            cache.on_tick(now)
            if self._cache_needs_tick(cache):
                self._cache_wakeups.arm(k, now)

    def _cache_needs_tick(self, cache: CacheNode) -> bool:
        """A cache keeps its per-tick wakeup while it has queued messages
        to drain or feedback-eligible sources to pay surplus credit to."""
        if self.topology is None:
            raise self._not_attached()
        if self.topology.cache_links[cache.cache_id].queue:
            return True
        return cache.feedback is not None and cache.feedback.has_targets()

    def close(self) -> None:
        """Unwire the finished run so it frees without the cyclic GC.

        Drops the caches' simulator references and hooks and the
        context, then closes the topology; read every result first
        (the fault counters live on the topology's fault machinery).
        Close the context too: its simulator holds this policy's
        tickers.
        """
        for cache in self.caches:
            cache.sim = None
            cache.activity_hook = None
            cache.refresh_hooks.clear()
        self._ctx = None
        if self.topology is not None:
            self.topology.close()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def refreshes(self) -> int:
        return sum(cache.refreshes_applied for cache in self.caches)

    def feedback_messages(self) -> int:
        return sum(fb.feedback_sent for fb in self.feedbacks)

    def refreshes_sent(self) -> int:
        if self.sources is None:
            return 0
        return sum(self.sources.refreshes_sent)

    def mean_threshold(self) -> float:
        """Left-to-right mean in ascending source order (the shard merge
        folds in the same order)."""
        if self.sources is None:
            return 0.0
        thresholds = self.sources.thresholds.value
        return sum(thresholds) / len(thresholds) if thresholds else 0.0

    def migrations(self) -> int:
        return self.rebalancer.migrations if self.rebalancer else 0

    def samples_taken(self) -> int:
        if self.sources is None or self.monitor_kind != "sampling":
            return 0
        return sum(monitor.samples_taken for monitor in self.sources.monitors)
