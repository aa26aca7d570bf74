"""Cache-driven synchronization baselines (paper Sec 6.3, Figure 6).

Three variants of the Cho & Garcia-Molina (CGM) approach, in which the
cache schedules all refreshes and the sources are passive:

* :class:`IdealCacheBasedPolicy` -- "CGM under two theoretical assumptions:
  that the cache can request refreshes without performing any communication
  to sources, and that the cache is aware of the exact update rates".
  Frequencies are allocated once from the true rates; refreshes apply
  instantly and only the total budget constrains them.
* :class:`CGMPollingPolicy` (variants ``"cgm1"`` / ``"cgm2"``) -- the
  practical implementations: every refresh is a poll *round trip* over the
  shared cache link (request + response, two messages), and update rates
  must be estimated from poll outcomes.  CGM1 sees the time of the most
  recent update; CGM2 only sees a boolean "changed?".  The allocation is
  re-solved periodically as estimates improve.

Per the paper, the polling model assumes no source-side bandwidth limits,
so poll responses bypass the source links.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.cache.cache import CacheNode
from repro.cgm.allocation import solve_refresh_frequencies
from repro.cgm.estimators import (
    BinaryChangeEstimator,
    LastUpdateAgeEstimator,
    RateEstimator,
)
from repro.cgm.poller import PollScheduler
from repro.network.bandwidth import BandwidthProfile, ConstantBandwidth
from repro.network.messages import Message, PollRequest, PollResponse
from repro.network.topology import Topology
from repro.policies.base import SimulationContext, SyncPolicy
from repro.sim.events import Phase

#: Link cost of one polled refresh: a request plus a response.
MESSAGES_PER_REFRESH = 2.0


class IdealCacheBasedPolicy(SyncPolicy):
    """Freshness-optimal polling with oracle rates and free communication."""

    name = "ideal-cache-based"

    def __init__(self, budget: float) -> None:
        """``budget`` is the total refresh frequency (refreshes/second)."""
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.budget = budget
        self._refreshes = 0
        self._heap: list[tuple[float, int]] = []
        self._periods: np.ndarray | None = None
        self._ctx: SimulationContext | None = None

    def _solve_allocation(self, ctx: SimulationContext) -> np.ndarray:
        """Refresh frequencies under the context's topology.

        Each cache solves the paper's freshness-optimal allocation over
        the objects of the sources it is primary for, with its 1/N share
        of the budget -- budget cannot be shifted between cache nodes,
        which is exactly the constraint the multi-cache scenario
        experiments probe.  One cache is the paper's global allocation.
        """
        workload = ctx.workload
        rates = np.asarray(workload.rates, dtype=float)
        config = ctx.topology_config
        assignment = config.assignment_for(workload.num_sources)
        freqs = np.zeros(len(rates))
        share = self.budget / config.num_caches
        # Vectorized object -> primary-cache map via the precomputed owner
        # array (no per-object source_of calls).
        primaries = np.array([targets[0] for targets in assignment],
                             dtype=np.int64)
        primary_of_object = primaries[workload.owner]
        for k in range(config.num_caches):
            indices = np.nonzero(primary_of_object == k)[0]
            if len(indices):
                freqs[indices] = solve_refresh_frequencies(
                    rates[indices], share)
        return freqs

    def attach(self, ctx: SimulationContext) -> None:
        self._ctx = ctx
        freqs = self._solve_allocation(ctx)
        with np.errstate(divide="ignore"):
            self._periods = np.where(freqs > 0, 1.0 / np.where(
                freqs > 0, freqs, 1.0), np.inf)
        rng = ctx.rngs.stream("ideal-cache-based")
        for index in np.nonzero(freqs > 0)[0]:
            first = float(rng.uniform(0.0, self._periods[index]))
            heapq.heappush(self._heap, (first, int(index)))
        ctx.sim.every(ctx.dt, self._on_tick, phase=Phase.CACHE)

    def _on_tick(self, now: float) -> None:
        ctx = self._ctx
        if ctx is None or self._periods is None:
            raise self._not_attached()
        while self._heap and self._heap[0][0] <= now:
            _, index = heapq.heappop(self._heap)
            obj = ctx.objects[index]
            obj.sync_views(now)
            ctx.collector.record(index, now, 0.0)
            self._refreshes += 1
            heapq.heappush(self._heap,
                           (now + float(self._periods[index]), index))

    def refreshes(self) -> int:
        return self._refreshes


class CGMPollingPolicy(SyncPolicy):
    """Practical CGM: poll round trips plus estimated update rates.

    Parameters
    ----------
    cache_bandwidth:
        Profile of the shared cache link; every poll costs one request and
        one response message on it.
    variant:
        ``"cgm1"`` (last-update timestamps visible) or ``"cgm2"``
        (boolean change observations only).
    resolve_interval:
        How often the frequency allocation is re-solved from the current
        rate estimates.

    The allocator budgets ``mean_bandwidth / MESSAGES_PER_REFRESH``
    total poll frequency.
    """

    def __init__(self, cache_bandwidth: BandwidthProfile,
                 variant: str = "cgm1",
                 resolve_interval: float = 50.0) -> None:
        if variant not in ("cgm1", "cgm2"):
            raise ValueError(f"unknown CGM variant {variant!r}")
        self.cache_bandwidth = cache_bandwidth
        self.variant = variant
        self.name = variant
        self.resolve_interval = resolve_interval
        self.topology: Topology | None = None
        self.caches: list[CacheNode] = []
        self.scheduler = PollScheduler()
        self.estimators: list[RateEstimator] = []
        self._last_poll_time: np.ndarray | None = None
        self._last_poll_count: np.ndarray | None = None
        self._polls_sent = 0
        self._ctx: SimulationContext | None = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, ctx: SimulationContext) -> None:
        self._ctx = ctx
        workload = ctx.workload
        n = workload.num_objects
        # Source links are irrelevant (poll responses are unconstrained on
        # the source side per the paper); zero-capacity placeholders.
        self.topology = ctx.build_topology(
            self.cache_bandwidth,
            [ConstantBandwidth(0.0)] * workload.num_sources)
        self.caches = []
        for k in range(self.topology.num_caches):
            cache = CacheNode(ctx.objects, ctx.metric, self.topology,
                              collector=ctx.collector,
                              sim=ctx.sim, cache_id=k)
            cache.set_poll_handler(self._on_poll_response)
            self.caches.append(cache)
        for j in range(workload.num_sources):
            self.topology.set_source_receiver(j, self._on_source_message)

        if self.variant == "cgm1":
            self.estimators = [LastUpdateAgeEstimator() for _ in range(n)]
        else:
            self.estimators = [BinaryChangeEstimator() for _ in range(n)]
        self._last_poll_time = np.zeros(n)
        self._last_poll_count = np.zeros(n, dtype=np.int64)

        # Until estimates exist, poll uniformly across all objects.
        budget = self.poll_budget()
        rng = ctx.rngs.stream("cgm-poller")
        uniform = np.full(n, budget / n if n else 0.0)
        self.scheduler.set_frequencies(uniform, 0.0, rng)
        self._rng = rng

        ctx.sim.every(ctx.dt, self.topology.on_network_tick,
                      phase=Phase.NETWORK)
        ctx.sim.every(ctx.dt, self._on_cache_tick, phase=Phase.CACHE)
        ctx.sim.every(self.resolve_interval, self._resolve,
                      phase=Phase.CACHE)

    def poll_budget(self) -> float:
        """Total poll frequency affordable on the cache link."""
        return self.cache_bandwidth.mean_rate / MESSAGES_PER_REFRESH

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def _on_cache_tick(self, now: float) -> None:
        if not self.caches or self.topology is None:
            raise self._not_attached()
        for cache in self.caches:
            cache.on_tick(now)
        for index in self.scheduler.due(now):
            obj = self._ctx.objects[index]
            request = PollRequest(
                source_id=obj.source_id, sent_at=now, object_index=index,
                cache_id=self.topology.primary_cache_of(obj.source_id))
            if self.topology.send_downstream(request):
                self._polls_sent += 1
                self.scheduler.reschedule(index, now)
            else:
                # Out of credit: retry next tick without losing the slot.
                self.scheduler.reschedule(index, now, delay=self._ctx.dt)

    def _on_source_message(self, message: Message) -> None:
        """A source answers a poll immediately (no source-side limit)."""
        if not isinstance(message, PollRequest):
            return
        ctx = self._ctx
        if ctx is None or self.topology is None:
            raise self._not_attached()
        now = ctx.sim.now
        obj = ctx.objects[message.object_index]
        changed = bool(
            obj.update_count > self._last_poll_count[obj.index])
        response = PollResponse(
            source_id=obj.source_id,
            sent_at=now,
            cache_id=message.cache_id,  # answer the cache that asked
            object_index=obj.index,
            value=obj.value,
            update_count=obj.update_count,
            changed=changed,
            last_update_time=(obj.last_update_time if self.variant == "cgm1"
                              and changed else None),
        )
        self.topology.send_upstream_unconstrained(response)

    def _on_poll_response(self, response: PollResponse, now: float) -> None:
        index = response.object_index
        obj = self._ctx.objects[index]
        obj.apply_refresh(now, response.value, response.update_count,
                          self._ctx.metric)
        self._ctx.collector.record(index, now, obj.truth.divergence)
        interval = now - float(self._last_poll_time[index])
        self.estimators[index].observe_poll(
            poll_time=now, changed=response.changed,
            last_update_time=response.last_update_time, interval=interval)
        self._last_poll_time[index] = now
        self._last_poll_count[index] = response.update_count

    # ------------------------------------------------------------------
    # Re-allocation
    # ------------------------------------------------------------------
    def estimated_rates(self) -> np.ndarray:
        """Current rate estimates (unobserved objects fall back to the mean)."""
        estimates = [est.estimate() for est in self.estimators]
        known = [e for e in estimates if e is not None]
        fallback = float(np.mean(known)) if known else 0.1
        return np.array([fallback if e is None else e for e in estimates])

    def _resolve(self, now: float) -> None:
        freqs = solve_refresh_frequencies(self.estimated_rates(),
                                          self.poll_budget())
        self.scheduler.set_frequencies(freqs, now, self._rng)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def refreshes(self) -> int:
        """Every delivered poll response refreshes the cached copy."""
        return sum(cache.poll_responses for cache in self.caches)

    def poll_messages(self) -> int:
        """Coordination overhead: the request half of each round trip.

        Responses carry the refreshed value, so they are counted as useful
        refresh traffic rather than overhead.
        """
        return self._polls_sent
