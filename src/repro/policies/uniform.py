"""Static uniform refresh allocation -- the non-adaptive baseline.

The classic strawman against which cooperative scheduling is measured:
every object is refreshed at the same frequency, round-robin per source,
regardless of update rates, weights or observed divergence.  Each source's
send rate is a static, even share of its primary cache link's mean
capacity (``C_k / m_k`` for the ``m_k`` sources owned by cache ``k``),
which is precisely the "uniform allocation" a provisioning system would
pick without divergence feedback.

Sends are real messages over the constrained topology links, so source-side
limits and cache-link congestion still apply; the cache side is a plain
:class:`CacheNode` per cache with no feedback controller.  The multi-cache
scenario experiments compare this baseline against
:class:`repro.policies.cooperative.CooperativePolicy` as caches are added.
"""

from __future__ import annotations

from repro.cache.cache import CacheNode
from repro.cache.store import CacheStore
from repro.network.bandwidth import (
    BandwidthProfile,
    replay_credit_ticks,
    ticks_until_credit,
)
from repro.network.messages import RefreshMessage
from repro.network.topology import Topology
from repro.policies.base import SimulationContext, SyncPolicy
from repro.sim.events import Phase, WakeupSet

#: Fraction of its cache-link share each source schedules: uniform
#: allocation spends the whole budget.
UTILIZATION = 1.0


class UniformAllocationPolicy(SyncPolicy):
    """Round-robin refreshes at a static per-source rate.

    Parameters
    ----------
    cache_bandwidth:
        Aggregate cache-side profile; the context's topology splits it
        across cache links, and each source's budget is an even share of
        its primary cache's mean rate.
    source_bandwidths:
        One profile per source; sends still respect source-side credit.

    Each source wakes only on the tick its credit crosses one message,
    replaying the skipped per-tick accruals in the same float-operation
    order a per-tick scan performs them (bit-for-bit identical; the scan
    itself lives in ``tests/oracles.py``).
    """

    name = "uniform"

    def __init__(self, cache_bandwidth: BandwidthProfile,
                 source_bandwidths: list[BandwidthProfile]) -> None:
        self.cache_bandwidth = cache_bandwidth
        self.source_bandwidths = source_bandwidths
        self.topology: Topology | None = None
        self.caches: list[CacheNode] = []
        self.stores: list[CacheStore] = []
        self._rates: list[float] = []
        self._credit: list[float] = []
        self._cursor: list[int] = []
        self._sent = 0
        self._ctx: SimulationContext | None = None
        self._tick_no = 0
        self._credit_tick: list[int] = []
        self._wakeups = WakeupSet()
        self._cache_wakeups = WakeupSet()

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
        for k in range(topology.num_caches):
            store = CacheStore(workload.num_objects,
                               workload.trace.initial_values)
            self.stores.append(store)
            self.caches.append(
                CacheNode(ctx.objects, ctx.metric, topology,
                          collector=ctx.collector, store=store,
                          sim=ctx.sim, cache_id=k))
        self._rates = []
        for j in range(workload.num_sources):
            primary = topology.primary_cache_of(j)
            peers = len(topology.owned_sources_of(primary))
            mean_rate = topology.cache_links[primary].profile.mean_rate
            self._rates.append(UTILIZATION * mean_rate / max(peers, 1))
        self._credit = [0.0] * workload.num_sources
        self._cursor = [0] * workload.num_sources
        self._tick_no = 0
        self._credit_tick = [0] * workload.num_sources
        self._wakeups = WakeupSet()
        self._cache_wakeups = WakeupSet()
        for j in range(workload.num_sources):
            self._arm_crossing(j)
        for k in range(topology.num_caches):
            topology.cache_links[k].on_queue = self._make_queue_hook(k)
        ctx.sim.every(ctx.dt, topology.on_network_tick,
                      phase=Phase.NETWORK)
        ctx.sim.every(ctx.dt, self._sources_tick, phase=Phase.SOURCES)
        ctx.sim.every(ctx.dt, self._caches_tick, phase=Phase.CACHE)

    def _make_queue_hook(self, cache_id: int):
        def hook(message) -> None:
            self._cache_wakeups.arm(cache_id, message.sent_at)
        return hook

    # ------------------------------------------------------------------
    # Scheduling
    #
    # Wakeups are keyed by *tick number* (exact integers, immune to
    # accumulated-float drift in tick times).  Every tick a source earns
    # ``rate * dt`` credit, its bank capped at one tick's worth plus one
    # message (mirroring the links' burst cap).  The accruals skipped
    # while a source sleeps are replayed at wake time with the identical
    # sequence of ``min(credit + earned, cap)`` operations a per-tick
    # scan performs -- float-for-float the same credits, so send ticks
    # match exactly.  The replay short-circuits once the credit saturates
    # at the cap (parked or bandwidth-blocked sources), keeping it
    # O(gap between sends).
    # ------------------------------------------------------------------
    def _sources_tick(self, now: float) -> None:
        ctx = self._ctx
        if ctx is None or self.topology is None:
            raise self._not_attached()
        self._tick_no += 1
        for j in self._wakeups.pop_due(self._tick_no):
            self._replay_accrual(j, ctx.dt)
            if self._send_while_credit(j, now):
                # The link, not the token bucket, is dry.
                ticks = self.topology.source_retry_ticks(j, now, ctx.dt)
                if ticks is not None:
                    self._wakeups.arm(j, self._tick_no + ticks)
            else:
                self._arm_crossing(j)

    def _replay_accrual(self, j: int, dt: float) -> None:
        """Catch up the per-tick accruals skipped since the last wake."""
        earned = self._rates[j] * dt
        self._credit[j] = replay_credit_ticks(
            self._credit[j], earned, max(1.0, earned) + earned,
            self._tick_no - self._credit_tick[j])
        self._credit_tick[j] = self._tick_no

    def _send_while_credit(self, j: int, now: float) -> bool:
        """Round-robin sends while credit lasts; True when send-blocked."""
        ctx = self._ctx
        per_source = ctx.workload.objects_per_source
        while self._credit[j] >= 1.0:
            local = self._cursor[j] % per_source
            obj = ctx.objects[j * per_source + local]
            message = RefreshMessage(
                source_id=j, sent_at=now, object_index=obj.index,
                value=obj.value, update_count=obj.update_count)
            if not self.topology.send_upstream(message):
                return True  # out of source-side bandwidth this tick
            obj.mark_sent(now)
            self._cursor[j] += 1
            self._credit[j] -= 1.0
            self._sent += 1
        return False

    def _arm_crossing(self, j: int) -> None:
        """Arm source ``j`` at the tick its credit next reaches 1.0.

        A ``None`` crossing (zero rate, or a float fixpoint below one
        message) parks the source forever -- a per-tick scan would stall
        on it identically.
        """
        earned = self._rates[j] * self._ctx.dt
        ticks = ticks_until_credit(self._credit[j], earned,
                                   max(1.0, earned) + earned)
        if ticks is not None:
            self._wakeups.arm(j, self._tick_no + ticks)

    def _caches_tick(self, now: float) -> None:
        # Without a feedback controller the cache tick only re-drains its
        # link queue; wake only the caches whose link actually queued.
        for k in self._cache_wakeups.pop_due(now):
            cache = self.caches[k]
            cache.on_tick(now)
            if self.topology.cache_links[k].queue:
                self._cache_wakeups.arm(k, now)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def refreshes(self) -> int:
        return sum(cache.refreshes_applied for cache in self.caches)

    def refreshes_sent(self) -> int:
        return self._sent
