"""Run one policy over one workload and collect a :class:`RunResult`.

This is the single entry point every experiment and example uses; it
guarantees that all policies are measured identically (same warm-up, same
measurement window, same collector).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.divergence import DivergenceMetric
from repro.experiments.readmodel import ReadRun
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.metrics.report import ReadStats, RunResult
from repro.network.topology import TopologyConfig
from repro.policies.base import SimulationContext, SyncPolicy
from repro.policies.bounded import BoundMeter, assign_max_rates
from repro.sim.engine import gc_paused
from repro.source.rates import OnlineRateEstimator
from repro.workloads.read_process import ReadTrace
from repro.workloads.synthetic import Workload


@dataclass
class RunSpec:
    """Timing and topology parameters shared by all policies in a comparison."""

    warmup: float  #: divergence before this time is discarded
    measure: float  #: length of the measured window
    dt: float = 1.0  #: tick length (the paper's unit is 1 second)
    seed: int = 0  #: seed for any policy-internal randomness
    resample_interval: float | None = None  #: collector re-break period
    topology: TopologyConfig | None = None  #: cache layout (None = star)
    faults: FaultPlan | None = None  #: deterministic fault plan (None = off)
    retry: RetryPolicy | None = None  #: reliable delivery (None = best-effort)

    @property
    def end_time(self) -> float:
        return self.warmup + self.measure

    def __post_init__(self) -> None:
        # Negated comparisons, so a NaN fails them too.
        if not self.warmup >= 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if not self.measure > 0:
            raise ValueError(f"measure must be > 0, got {self.measure}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if (self.resample_interval is not None
                and not self.resample_interval > 0):
            raise ValueError(f"resample_interval must be > 0, "
                             f"got {self.resample_interval}")
        # A retry timer armed by an update hook must not land inside the
        # replay batch being applied; a timeout of one tick or more lands
        # at or after the batch's end (DESIGN.md Sec 10).
        if self.retry is not None and self.retry.timeout < self.dt:
            raise ValueError(f"retry timeout must be >= dt ({self.dt}), "
                             f"got {self.retry.timeout}")


def make_context(workload: Workload, metric: DivergenceMetric,
                 spec: RunSpec) -> SimulationContext:
    """The simulation context one spec'd run uses (shared by every
    harness, so read-model runs cannot drift from plain ones)."""
    return SimulationContext(workload, metric, warmup=spec.warmup,
                             dt=spec.dt, seed=spec.seed,
                             topology=spec.topology, faults=spec.faults,
                             retry=spec.retry)


def build_result(workload: Workload, metric: DivergenceMetric,
                 policy: SyncPolicy, ctx: SimulationContext,
                 reads: ReadStats | None = None,
                 mean_bound: float | None = None) -> RunResult:
    """Assemble the :class:`RunResult` of a finished run."""
    collector = ctx.collector
    topology = policy.topology
    network = {}
    if topology is not None:
        dropped, retransmitted, duplicates = topology.fault_counters()
        network = dict(units=topology.cache_units_total(),
                       queued=topology.cache_queued(),
                       queued_peak=topology.cache_queued_peak(),
                       dropped=dropped, retransmitted=retransmitted,
                       duplicates=duplicates)
    return RunResult(
        policy=policy.name,
        metric=metric.name,
        num_sources=workload.num_sources,
        num_objects=workload.num_objects,
        duration=collector.duration,
        weighted_divergence=collector.mean_weighted_average(),
        unweighted_divergence=collector.mean_unweighted_average(),
        refreshes=policy.refreshes(),
        feedback_messages=policy.feedback_messages(),
        poll_messages=policy.poll_messages(),
        messages_total=policy.messages_total(),
        refreshes_sent=policy.refreshes_sent(),
        migrations=policy.migrations(),
        mean_threshold=policy.mean_threshold(),
        samples=policy.samples_taken(),
        own_refreshes=policy.own_refreshes(),
        source_divergence=policy.source_divergence(),
        mean_bound=mean_bound,
        reads=reads,
        **network,
    )


def run_policy(workload: Workload, metric: DivergenceMetric,
               policy: SyncPolicy, spec: RunSpec,
               reads: ReadTrace | None = None,
               read_policy: str = "any",
               rates: OnlineRateEstimator | None = None,
               bound_latency: float | None = None) -> RunResult:
    """Replay ``workload`` through ``policy`` and measure divergence.

    ``reads`` adds a client read stream served by ``read_policy`` (see
    :class:`~repro.experiments.readmodel.ReadRun`); reads never perturb
    the simulation, and the result's ``reads`` holds what they saw.

    ``rates`` observes every update before the policy does, so a
    priority that reads its estimates (Sec 8.1) sees the update it is
    evaluated for.  ``bound_latency`` installs the workload's rates as
    each object's maximum divergence rate ``R_i`` and meters the Sec 9
    bound ``R_i ((t - t_last) + L)`` over the ideal scheduler's
    refreshes, with this refresh latency ``L``; the result's
    ``mean_bound`` holds it.

    Runs with the cyclic garbage collector paused: one run allocates a
    large, mostly-acyclic object graph (data objects, events,
    messages) and generational re-scans of it dominate wall clock at
    m ~ 10^5 without changing any result.
    """
    with gc_paused():
        ctx = make_context(workload, metric, spec)
        if rates is not None:
            ctx.add_update_hook(
                lambda obj, now: rates.observe_update(obj.index, now))
        meter = None
        if bound_latency is not None:
            max_rates = np.asarray(workload.rates)
            assign_max_rates(ctx.objects, max_rates)
            meter = BoundMeter(max_rates,
                               np.full(len(max_rates), bound_latency),
                               warmup=spec.warmup)
        policy.attach(ctx)
        if meter is not None:
            policy.refresh_hooks.append(meter.on_refresh)
        read_run = (None if reads is None else
                    ReadRun(ctx, policy, reads, read_policy=read_policy))
        ctx.run(spec.end_time, resample_interval=spec.resample_interval)
        stats = None if read_run is None else read_run.stats(spec.end_time)
        mean_bound = None
        if meter is not None:
            meter.finalize(spec.end_time)
            mean_bound = meter.average_bound(spec.end_time)
        return build_result(workload, metric, policy, ctx, reads=stats,
                            mean_bound=mean_bound)
