"""The idealized cooperative scheduler (paper Sec 3.3).

"Each time there is enough cache-side bandwidth to accept a refresh, the
object with the highest refresh priority among all objects at all sources
should be refreshed.  If the source containing the highest priority object
does not have enough source-side bandwidth available to perform the
refresh, then the object with the second highest priority overall should be
refreshed instead, and so on."

This policy is deliberately unrealistic -- it assumes free global knowledge
and zero-cost coordination -- and serves as the theoretical reference curve
("ideal cooperative" / "theoretically achievable divergence") in Figures
4-6.  Refreshes are applied instantly (no queueing) but still consume the
bandwidth budget.

With a different priority function plugged in, the same machinery realizes
the Sec 4.3 validation runs (general priority vs. the ``D * W`` strawman)
and the Sec 9 bound-minimizing scheduler.
"""

from __future__ import annotations

from repro.core.objects import DataObject
from repro.core.priority import PriorityFunction
from repro.core.tracking import PriorityTable
from repro.network.bandwidth import BandwidthProfile
from repro.policies.base import SimulationContext, SyncPolicy
from repro.sim.events import Phase
from repro.source.monitor import TriggerMonitor


class _CreditBucket:
    """Token-bucket bandwidth accounting for the virtual ideal links.

    Refillable at arbitrary times (the ideal scheduler reacts to every
    update, not just to ticks); the burst cap bounds how much idle capacity
    can be banked, mirroring the real links' one-tick carry-over.
    """

    __slots__ = ("profile", "credit", "burst_cap", "_last")

    def __init__(self, profile: BandwidthProfile,
                 burst_cap: float = 1.0) -> None:
        self.profile = profile
        self.credit = 0.0
        self.burst_cap = max(1.0, burst_cap)
        self._last = 0.0

    def refill(self, now: float) -> None:
        added = self.profile.capacity(self._last, now)
        self._last = now
        self.credit = min(self.credit + added, self.burst_cap)

    def take(self) -> bool:
        if self.credit >= 1.0:
            self.credit -= 1.0
            return True
        return False


class IdealCooperativePolicy(SyncPolicy):
    """Omniscient global-priority scheduling with instant refreshes.

    Parameters
    ----------
    cache_bandwidth:
        The shared refresh budget ``C(t)`` in refreshes per time unit.
    priority_fn:
        Any :class:`PriorityFunction`; the paper's general area priority by
        default behavior is chosen by the caller.
    source_bandwidths:
        Optional per-source budgets ``B_j(t)``; ``None`` means unlimited
        source-side bandwidth.

    The per-tick drain is parked while the global priority queue is
    empty -- updates re-drain immediately anyway, and skipped bucket
    refills are replayed exactly on the next drain (a fixed burst cap
    makes ``min`` caps telescope for *any* bandwidth profile).
    Time-varying priority functions re-prioritize and drain every tick.
    """

    name = "ideal-cooperative"

    def __init__(self, cache_bandwidth: BandwidthProfile,
                 priority_fn: PriorityFunction,
                 source_bandwidths: list[BandwidthProfile] | None = None
                 ) -> None:
        self.cache_bandwidth = cache_bandwidth
        self.priority_fn = priority_fn
        self.source_bandwidths = source_bandwidths
        #: the one global queue: row 0 of a one-row table
        self.tracker: PriorityTable | None = None
        self._monitor: TriggerMonitor | None = None
        self._refreshes = 0
        self._ctx: SimulationContext | None = None
        self._cache_buckets: list[_CreditBucket] = []
        self._primary_cache: list[int] = []
        self._source_buckets: list[_CreditBucket] | None = None
        self._armed = False
        #: callbacks invoked as ``hook(obj, now)`` after each refresh
        self.refresh_hooks: list = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, ctx: SimulationContext) -> None:
        self._ctx = ctx
        burst = 2.0 * ctx.dt
        # One virtual credit bucket per cache node; an object's refresh
        # spends its source's *primary* cache budget, so the idealized
        # curve faces the same per-cache capacity partition as the
        # practical algorithm (budget cannot shift between caches).
        config = ctx.topology_config
        profiles = config.cache_profiles(self.cache_bandwidth)
        self._cache_buckets = [
            _CreditBucket(p, p.mean_rate * burst) for p in profiles
        ]
        assignment = config.assignment_for(ctx.workload.num_sources)
        self._primary_cache = [targets[0] for targets in assignment]
        # Object -> owning source, precomputed: the drain loop below runs
        # per refresh opportunity and must not call source_of per object.
        self._owner = ctx.workload.owner
        if self.source_bandwidths is not None:
            if len(self.source_bandwidths) != ctx.workload.num_sources:
                raise ValueError(
                    f"expected {ctx.workload.num_sources} source bandwidth "
                    f"profiles, got {len(self.source_bandwidths)}")
            self._source_buckets = [
                _CreditBucket(p, p.mean_rate * burst)
                for p in self.source_bandwidths
            ]
        self._armed = False
        # Exact priorities on every update, as a trigger monitor keeps them.
        self.tracker = PriorityTable(1, [0] * ctx.workload.num_objects)
        self._monitor = TriggerMonitor(self.priority_fn,
                                       ctx.workload.weights)
        ctx.add_update_hook(self._on_update)
        ctx.sim.every(ctx.dt, self._on_tick, phase=Phase.SOURCES)

    def _on_update(self, obj: DataObject, now: float) -> None:
        self._monitor.on_update(self.tracker, 0, obj, now)
        # "Each time there is enough cache-side bandwidth to accept a
        # refresh" (Sec 3.3): the idealized scheduler reacts immediately,
        # not at the next tick.
        self._drain(now)
        self._armed = self.tracker.peek(0) is not None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _on_tick(self, now: float) -> None:
        if self.priority_fn.time_varying:
            # Every object's priority moves every tick: re-evaluate all.
            self._refill(now)
            for obj in self._ctx.objects:
                self._monitor.on_update(self.tracker, 0, obj, now)
            self._drain(now)
            return
        # Parked whenever the queue is empty: a tick's drain would be a
        # no-op, and the skipped bucket refills replay exactly at the next
        # drain (fixed-cap min refills telescope).
        if not self._armed:
            return
        self._drain(now)
        self._armed = self.tracker.peek(0) is not None

    def _refill(self, now: float) -> None:
        for bucket in self._cache_buckets:
            bucket.refill(now)
        if self._source_buckets is not None:
            for bucket in self._source_buckets:
                bucket.refill(now)

    def _drain(self, now: float) -> None:
        ctx = self._ctx
        if ctx is None or not self._cache_buckets:
            raise self._not_attached()
        self._refill(now)
        deferred: list[tuple[int, float]] = []
        while any(bucket.credit >= 1.0 for bucket in self._cache_buckets):
            top = self.tracker.pop(0)
            if top is None:
                break
            index, priority = top
            if priority <= 0.0:
                break
            source_id = int(self._owner[index])
            cache_bucket = self._cache_buckets[self._primary_cache[source_id]]
            if cache_bucket.credit < 1.0:
                # This object's cache partition is out of budget; the
                # next-highest priority object may live on another cache.
                deferred.append(top)
                continue
            if (self._source_buckets is not None
                    and not self._source_buckets[source_id].take()):
                # Source-side bandwidth exhausted: skip to the next-highest
                # priority object (paper Sec 3.3), revisit next tick.
                deferred.append(top)
                continue
            cache_bucket.take()
            self._apply_refresh(index, now)
        for index, priority in deferred:
            self.tracker.update(0, index, priority)

    def _apply_refresh(self, index: int, now: float) -> None:
        ctx = self._ctx
        obj = ctx.objects[index]
        obj.sync_views(now)
        ctx.collector.record(index, now, 0.0)
        self._refreshes += 1
        for hook in self.refresh_hooks:
            hook(obj, now)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def refreshes(self) -> int:
        return self._refreshes
