"""Cooperation in competitive environments (paper Sec 7).

When sources and the cache disagree on refresh priorities (different
divergence functions or weights), the cache dedicates a fraction ``Psi`` of
its bandwidth to satisfying *source* priorities and ``1 - Psi`` to its own.
The paper sketches three ways to divide the source share; two are built:

* ``"equal"`` (option 1) -- every source gets the same slice of
  ``Psi * C``.
* ``"contribution"`` (option 3) -- no fixed slices; instead, for every
  refresh a source earns under the cache's threshold policy it may
  piggyback ``Psi / (1 - Psi)`` refreshes of its own choosing, so sources
  that serve the cache's objectives well earn proportionally more
  autonomy.

Option 2 -- slices proportional to each source's number of cached
objects -- equals option 1 on every workload here, because every source
holds ``objects_per_source`` objects; it is not built.

Implementation: the cache-priority flow is the ordinary
:class:`CooperativePolicy` threshold algorithm using the cache's weight
model (``workload.weights``).  Source-priority sends are paced separately
(one :class:`~repro.network.link.Pacer` row per source, earning its equal
slice every tick, or nothing but the piggyback deposits) and pick the top
object under the *source's own* weight model; they are ordinary refresh
messages on the same constrained links, so the adaptive threshold
algorithm automatically shrinks the cache-priority flow into the
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
from repro.network.link import Pacer
from repro.policies.base import SimulationContext
from repro.policies.cooperative import CooperativePolicy
from repro.sim.events import Phase
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
        if option not in ("equal", "contribution"):
            raise ValueError(f"unknown split option {option!r}")
        self.source_weights = source_weights
        self.psi = psi
        self.option = option
        self.own_refreshes_sent = 0
        self._own_tracker: PriorityTable | None = None
        self._own_monitor: TriggerMonitor | None = None
        self._own_pacer: Pacer | None = None
        self.source_collector: DivergenceCollector | None = None

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
        # Option 1 splits Psi * C evenly; option 3's credit is earned by
        # piggybacking, not allocated.
        rate = (self.psi * self.cache_bandwidth.mean_rate / m
                if self.option == "equal" else 0.0)
        self._own_pacer = Pacer(self.topology, [rate] * m, ctx.dt)
        self.source_collector = DivergenceCollector(
            workload.num_objects, self.source_weights, warmup=ctx.warmup)
        ctx.add_update_hook(self._on_update_competitive)
        for cache in self.caches:
            cache.add_refresh_hook(self._on_refresh_applied)
        self.sources.send_hooks += (self._on_refresh_sent,)
        ctx.sim.every(ctx.dt, self._own_sends_tick, phase=Phase.SOURCES)

    # ------------------------------------------------------------------
    # Event routing
    # ------------------------------------------------------------------
    def _on_update_competitive(self, obj: DataObject, now: float) -> None:
        self._own_monitor.on_update(self._own_tracker, obj.source_id, obj,
                                    now)
        # Fresh own-priority work: run at the next own-sends fire (the
        # same tick when the update lands before SOURCES phase).
        self._own_pacer.wake(obj.source_id)
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
            pacer = self._own_pacer
            j = obj.source_id
            pacer.credit[j] = min(
                pacer.credit[j] + self.psi / (1.0 - self.psi), 4.0)
            # Earned credit may now cover a piggybacked send.
            pacer.wake(j)

    # ------------------------------------------------------------------
    # Own-priority sends: the pacer wakes a source on the tick its slice
    # affords a message, while its own-priority queue holds an object.
    # ------------------------------------------------------------------
    def _own_sends_tick(self, now: float) -> None:
        self._own_pacer.dispatch(now, self._own_send_while_credit,
                                 self._has_own_work)

    def _has_own_work(self, j: int) -> bool:
        return self._own_tracker.peek(j) is not None

    def _own_send_while_credit(self, j: int, now: float) -> bool:
        """Drain own-priority sends; True when source-bandwidth-blocked."""
        ctx = self._ctx
        sources = self.sources
        tracker = self._own_tracker
        credit = self._own_pacer.credit
        while credit[j] >= 1.0:
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
            credit[j] -= 1.0
            self.own_refreshes_sent += 1
        return False

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
