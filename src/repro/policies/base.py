"""Policy plumbing: the simulation context and the policy interface.

A :class:`SimulationContext` owns everything one run needs -- the event
engine, the materialized :class:`DataObject` instances, the divergence
collector and the trace replayer.  A :class:`SyncPolicy` wires its machinery
(topology, nodes, tickers) into the context in :meth:`SyncPolicy.attach`.

The same workload trace can be replayed through any policy; the collector
then yields directly comparable divergence numbers, which is exactly the
experimental design of the paper's Figures 4-6.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np

from repro.core.divergence import DivergenceMetric
from repro.core.objects import DataObject
from repro.core.weights import float_list
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.retry import ReliableDelivery, RetryPolicy
from repro.metrics.collector import DivergenceCollector
from repro.network.bandwidth import BandwidthProfile
from repro.network.topology import Topology, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.events import Phase
from repro.sim.random import RngRegistry
from repro.workloads.synthetic import Workload
from repro.workloads.trace import TraceReplayer

UpdateHook = Callable[[DataObject, float], None]


class SimulationContext:
    """All shared state for one policy run over one workload.

    ``topology`` selects the cache-side network layout for every policy
    attached to this context; policies that need a network call
    :meth:`build_topology` instead of hard-wiring a star, so the same
    policy code runs unchanged on one cache or many.
    """

    def __init__(self, workload: Workload, metric: DivergenceMetric,
                 warmup: float = 0.0, dt: float = 1.0,
                 seed: int = 0,
                 topology: TopologyConfig | None = None,
                 faults: FaultPlan | None = None,
                 retry: RetryPolicy | None = None) -> None:
        if not dt > 0:  # a NaN fails it too
            raise ValueError(f"dt must be > 0, got {dt}")
        self.workload = workload
        self.metric = metric
        self.warmup = warmup
        self.dt = dt
        self.topology_config = topology if topology is not None \
            else TopologyConfig()
        # An empty plan is normalized to None so the fault-free delivery
        # paths stay instruction-identical (the empty-plan ≡ baseline pin).
        self.faults = faults if faults is not None and not faults.is_empty() \
            else None
        self.retry = retry
        self.sim = Simulator()
        self.rngs = RngRegistry(seed)
        trace = workload.trace
        # Python scalars up front: one .tolist() per array beats a numpy
        # scalar extraction per object when m ~ 10^5.  One int object per
        # id: an object's index and its owner's source id share it (they
        # are equal when each source has one object), not 28 B each; and
        # equal rates or initial values share one float.
        ids = list(range(max(workload.num_objects, workload.num_sources)))
        owners = workload.owner.tolist()
        rates = float_list(np.asarray(workload.rates, dtype=float))
        initial_values = float_list(trace.initial_values)
        self.objects = [
            DataObject(index=index, source_id=ids[owner], rate=rate,
                       value=value)
            for index, owner, rate, value in zip(ids, owners, rates,
                                                 initial_values)
        ]
        self.collector = DivergenceCollector(workload.num_objects,
                                             workload.weights,
                                             warmup=warmup)
        self._update_hooks: list[UpdateHook] = []
        self.replayer = TraceReplayer(
            self.sim, (trace.times, trace.object_indices, trace.values),
            self.apply_update_batch, Phase.UPDATES)

    def build_topology(self, cache_bandwidth: BandwidthProfile,
                       source_profiles: Sequence[BandwidthProfile]
                       ) -> Topology:
        """Materialize this context's topology for a policy.

        ``cache_bandwidth`` is the *aggregate* cache-side profile; the
        configured topology splits it across its cache links (an even 1/N
        share each) so runs with different ``num_caches`` are
        budget-comparable.

        When the context carries a fault plan and/or a retry policy they
        are installed on the topology here, so every policy picks up the
        fault machinery without knowing it exists.  Crash events become
        ordinary NETWORK-phase simulator events.
        """
        topology = self.topology_config.build(cache_bandwidth,
                                              source_profiles)
        injector = None
        if self.faults is not None:
            for crash in self.faults.crashes:
                if crash.cache_id >= topology.num_caches:
                    raise ValueError(
                        f"crash cache_id {crash.cache_id} out of range for "
                        f"a {topology.num_caches}-cache topology")
            injector = FaultInjector(self.faults,
                                     clock=lambda: self.sim.now)
        reliable = None
        if self.retry is not None:
            reliable = ReliableDelivery(self.retry, self.sim,
                                        objects=self.objects)
        if injector is not None or reliable is not None:
            topology.install_faults(injector, reliable)
        if self.faults is not None:
            for crash in self.faults.crashes:
                self.sim.at(
                    crash.time,
                    lambda cid=crash.cache_id: topology.crash_cache(
                        cid, self.sim.now),
                    phase=Phase.NETWORK)
        return topology

    def add_update_hook(self, hook: UpdateHook) -> None:
        """Register a callback invoked after every applied update."""
        self._update_hooks.append(hook)

    def apply_update(self, now: float, index: int, value: float) -> None:
        """Apply one trace update and notify the policy."""
        obj = self.objects[index]
        obj.apply_update(now, value, self.metric)
        self.collector.record(index, now, obj.truth_divergence)
        for hook in self._update_hooks:
            hook(obj, now)

    def apply_update_batch(self, times: np.ndarray, indices: np.ndarray,
                           values: np.ndarray) -> None:
        """Apply a run of consecutive trace updates in one call.

        The replayer hands over every trace event strictly before the
        simulator's next foreign event.  Each runs the full per-event
        sequence of :meth:`apply_update`, with ``sim.now`` advanced per
        event exactly as one firing per event would: update hooks can
        send messages whose delivery reads the simulator clock.  Hooks
        may mutate any policy or network state but must not schedule
        new simulator events; every built-in policy routes its
        scheduling through :class:`~repro.sim.events.WakeupSet`
        dispatchers precisely so that replay batching stays exact (see
        DESIGN.md Sec 10).
        """
        sim = self.sim
        apply = self.apply_update
        for now, index, value in zip(times.tolist(), indices.tolist(),
                                     values.tolist()):
            sim.now = now
            apply(now, index, value)

    def run(self, end_time: float,
            resample_interval: float | None = None) -> None:
        """Run the simulation to ``end_time`` and close the measurement.

        ``resample_interval`` adds a periodic re-break of the collector's
        integration pieces, needed for accuracy under fluctuating weights.
        The collector samples on its own cadence (vectorized over all
        objects), independent of the simulation tick.
        """
        if resample_interval is not None:
            self.collector.schedule_resample(self.sim, resample_interval)
        self.sim.run_until(end_time)
        self.collector.finalize(end_time)

    def close(self) -> None:
        """Release the run's callbacks once its results have been read.

        Closes the simulator and drops the update hooks and the trace
        replayer, so nothing this context holds reaches back into the
        policy.  Objects, collector and workload stay readable.
        """
        self.sim.close()
        self._update_hooks.clear()
        self.replayer = None


class SyncPolicy(ABC):
    """A synchronization scheduling policy."""

    #: short machine-readable policy name used in configs and reports
    name: str = "abstract"
    #: the run's network and cache nodes, built in :meth:`attach` (None
    #: and empty: the analytic ideal schedulers, which build neither)
    topology: Topology | None = None
    caches: Sequence = ()

    @abstractmethod
    def attach(self, ctx: SimulationContext) -> None:
        """Wire the policy's nodes and tickers into the context."""

    # ------------------------------------------------------------------
    # Reporting hooks (defaults are fine for simple policies)
    # ------------------------------------------------------------------
    def refreshes(self) -> int:
        """Refreshes applied at the cache."""
        return 0

    def feedback_messages(self) -> int:
        return 0

    def poll_messages(self) -> int:
        return 0

    def messages_total(self) -> int:
        """All messages that crossed the cache links (the virtual link's
        refreshes, feedback and polls for a policy without a network)."""
        if self.topology is None:
            return (self.refreshes() + self.feedback_messages()
                    + self.poll_messages())
        return self.topology.cache_messages_total()

    def refreshes_sent(self) -> int:
        """Refresh messages handed to the network; a batch counts once."""
        return self.refreshes()

    def mean_threshold(self) -> float | None:
        """Mean final source threshold (None: the policy keeps none)."""
        return None

    def migrations(self) -> int:
        """Sources moved between caches by a rebalancer."""
        return 0

    def _not_attached(self) -> RuntimeError:
        name = type(self).__name__
        return RuntimeError(f"{name} is not attached: call attach() first")
