"""Cooperation in competitive environments (paper Sec 7).

When sources and the cache disagree on refresh priorities (different
divergence functions or weights), the cache dedicates a fraction ``Psi`` of
its bandwidth to satisfying *source* priorities and ``1 - Psi`` to its own.
The paper sketches three ways to divide the source share:

1. ``"equal"`` -- every source gets the same slice of ``Psi * C``.
2. ``"proportional"`` -- slices proportional to each source's number of
   cached objects (identical to option 1 when all sources have equal n).
3. ``"contribution"`` -- no fixed slices; instead, for every refresh a
   source earns under the cache's threshold policy it may piggyback
   ``Psi / (1 - Psi)`` refreshes of its own choosing, so sources that serve
   the cache's objectives well earn proportionally more autonomy.

Implementation: the cache-priority flow is the ordinary
:class:`CooperativePolicy` threshold algorithm using the cache's weight
model (``workload.weights``).  Source-priority sends are paced separately
(token buckets for options 1-2, an earned-credit counter for option 3) and
pick the top object under the *source's own* weight model; they are
ordinary refresh messages on the same constrained links, so the adaptive
threshold algorithm automatically shrinks the cache-priority flow into the
remaining ``(1 - Psi)`` of the bandwidth.

Both objectives are measured: the context collector uses the cache's
weights, and this policy maintains a second collector under the sources'
weights, so experiments can plot the Psi trade-off curve.
"""

from __future__ import annotations

from repro.core.objects import DataObject
from repro.core.tracking import PriorityTable
from repro.core.weights import WeightModel
from repro.metrics.collector import DivergenceCollector
from repro.network.bandwidth import replay_credit_ticks, ticks_until_credit
from repro.policies.base import SimulationContext
from repro.policies.cooperative import CooperativePolicy
from repro.sim.events import Phase, WakeupSet
from repro.source.monitor import TriggerMonitor


class CompetitivePolicy(CooperativePolicy):
    """Psi-split bandwidth sharing between cache and source priorities."""

    name = "competitive"

    def __init__(self, *args, source_weights: WeightModel,
                 psi: float = 0.25, option: str = "equal",
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not 0.0 <= psi < 1.0:
            raise ValueError(f"psi must be in [0, 1), got {psi}")
        if option not in ("equal", "proportional", "contribution"):
            raise ValueError(f"unknown split option {option!r}")
        self.source_weights = source_weights
        self.psi = psi
        self.option = option
        self.own_refreshes_sent = 0
        self._own_tracker: PriorityTable | None = None
        self._own_monitor: TriggerMonitor | None = None
        self._own_credit: list[float] = []
        self._own_rate: list[float] = []
        self.source_collector: DivergenceCollector | None = None
        # Own-send wakeups keyed by (integer) tick number of the
        # own-sends dispatcher, and each source's last-accrual tick.
        self._own_wakeups = WakeupSet()
        self._own_tick_no = 0
        self._own_credit_tick: list[int] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, ctx: SimulationContext) -> None:
        super().attach(ctx)
        workload = ctx.workload
        if self.source_weights.n != workload.num_objects:
            raise ValueError(
                f"source weight model covers {self.source_weights.n} "
                f"objects, expected {workload.num_objects}")
        m = workload.num_sources
        # The own-priority queues: a table of their own, one row per
        # source.
        self._own_tracker = PriorityTable(m, [0] * workload.num_objects)
        # Each source keeps its own-priority queue exact on every update,
        # under the shared priority function and its own weights.
        self._own_monitor = TriggerMonitor(self.priority_fn,
                                           self.source_weights)
        self._own_credit = [0.0] * m
        self._own_rate = self._allocate_rates(workload)
        self.source_collector = DivergenceCollector(
            workload.num_objects, self.source_weights, warmup=ctx.warmup)
        ctx.add_update_hook(self._on_update_competitive)
        for cache in self.caches:
            cache.add_refresh_hook(self._on_refresh_applied)
        self.sources.send_hooks += (self._on_refresh_sent,)
        self._own_wakeups = WakeupSet()
        self._own_tick_no = 0
        self._own_credit_tick = [0] * m
        ctx.sim.every(ctx.dt, self._own_sends_tick, phase=Phase.SOURCES)

    def _allocate_rates(self, workload) -> list[float]:
        """Per-source own-priority send rates for options 1 and 2."""
        total = self.psi * self.cache_bandwidth.mean_rate
        m = workload.num_sources
        if self.option == "equal":
            return [total / m] * m
        if self.option == "proportional":
            per_source = workload.objects_per_source
            counts = [per_source] * m
            total_objects = sum(counts)
            return [total * c / total_objects for c in counts]
        return [0.0] * m  # contribution: earned, not allocated

    # ------------------------------------------------------------------
    # Event routing
    # ------------------------------------------------------------------
    def _on_update_competitive(self, obj: DataObject, now: float) -> None:
        self._own_monitor.on_update(self._own_tracker, obj.source_id, obj,
                                    now)
        # Fresh own-priority work: wake at the next own-sends fire (the
        # same tick when the update lands before SOURCES phase).
        self._own_wakeups.arm(obj.source_id, self._own_tick_no + 1)
        if self.source_collector is not None:
            self.source_collector.record(obj.index, now,
                                         obj.truth_divergence)

    def _on_refresh_applied(self, obj: DataObject, now: float) -> None:
        if self.source_collector is not None:
            self.source_collector.record(obj.index, now,
                                         obj.truth_divergence)
        self._own_tracker.remove(obj.index)

    def _on_refresh_sent(self, obj: DataObject, now: float,
                         threshold_driven: bool) -> None:
        # Any send synchronizes the object; drop it from the own-priority
        # queue immediately rather than waiting for cache-side application
        # (which lags under congestion and would allow duplicate sends).
        self._own_tracker.remove(obj.index)
        if (threshold_driven and self.option == "contribution"
                and self.psi > 0):
            # Sec 7 option 3: each *cache-priority* refresh earns the
            # source Psi / (1 - Psi) piggybacked refreshes of its own
            # choosing.  Own-priority sends must not earn credit (the
            # piggyback loop would feed itself), and banked credit is
            # capped so a warm-up burst cannot flood the link later.
            earned = self._own_credit[obj.source_id] \
                + self.psi / (1.0 - self.psi)
            self._own_credit[obj.source_id] = min(earned, 4.0)
            # Earned credit may now cover a piggybacked send.
            self._own_wakeups.arm(obj.source_id, self._own_tick_no + 1)

    # ------------------------------------------------------------------
    # Own-priority sends
    #
    # The uniform policy's exact-replay trick: wakeups are keyed by
    # own-dispatcher tick number, and the per-tick token accruals a
    # parked source skipped are replayed float-for-float at wake time
    # (short-circuiting once the credit saturates at its cap), so
    # own-priority sends land on exactly the ticks the per-tick scan of
    # tests/oracles.py chooses.
    # ------------------------------------------------------------------
    def _own_sends_tick(self, now: float) -> None:
        self._own_tick_no += 1
        for j in self._own_wakeups.pop_due(self._own_tick_no):
            self._own_replay_accrual(j)
            if self._own_send_while_credit(j, now):
                ticks = self.topology.source_retry_ticks(
                    j, now, self._ctx.dt)
                if ticks is not None:
                    self._own_wakeups.arm(j, self._own_tick_no + ticks)
            elif self._own_tracker.peek(j) is not None:
                self._own_arm_crossing(j)

    def _own_replay_accrual(self, j: int) -> None:
        if self.option in ("equal", "proportional"):
            rate_dt = self._own_rate[j] * self._ctx.dt
            self._own_credit[j] = replay_credit_ticks(
                self._own_credit[j], rate_dt,
                self._own_tick_no - self._own_credit_tick[j])
        self._own_credit_tick[j] = self._own_tick_no

    def _own_send_while_credit(self, j: int, now: float) -> bool:
        """Drain own-priority sends; True when source-bandwidth-blocked."""
        ctx = self._ctx
        sources = self.sources
        tracker = self._own_tracker
        while self._own_credit[j] >= 1.0:
            top = tracker.peek(j)
            if top is None:
                break
            index, _ = top
            obj = ctx.objects[index]
            if obj.belief_divergence == 0.0:
                # Already synchronized by the cache-priority flow.
                tracker.pop(j)
                continue
            if not sources._send_refresh(j, obj, now,
                                         adjust_threshold=False):
                return True  # out of source-side bandwidth
            tracker.pop(j)
            self._own_credit[j] -= 1.0
            self.own_refreshes_sent += 1
        return False

    def _own_arm_crossing(self, j: int) -> None:
        """Arm source ``j`` at the tick its own-credit next reaches 1.0."""
        if self.option not in ("equal", "proportional"):
            return  # contribution credit is earned, not accrued: park
        rate_dt = self._own_rate[j] * self._ctx.dt
        ticks = ticks_until_credit(self._own_credit[j], rate_dt)
        if ticks is not None:
            self._own_wakeups.arm(j, self._own_tick_no + ticks)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def source_objective_divergence(self, end_time: float) -> float:
        """Mean per-object divergence under the *sources'* weight scheme."""
        if self.source_collector is None:
            raise self._not_attached()
        self.source_collector.finalize(end_time)
        return self.source_collector.mean_weighted_average()

    def own_refreshes(self) -> int:
        return self.own_refreshes_sent

    def source_divergence(self) -> float:
        """The source objective at the end of the run."""
        if self.source_collector is None:
            raise self._not_attached()
        return self.source_objective_divergence(self._ctx.sim.now)
