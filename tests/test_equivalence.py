"""Bit-for-bit equivalence of the default schedule and the reference one.

The simulator's event-driven wakeups, lazy link refills and batched
replay must be an *optimization only*: on the paper's default
configurations every policy has to produce exactly the metrics of the
literal schedule in ``tests/oracles.py`` (scan every source and cache
every tick, refill every link eagerly, fire once per trace event) --
same divergence floats, same refresh/feedback/poll/message counts.
These tests pin that across:

* all five policies (cooperative, uniform, competitive, cache-driven CGM,
  ideal cooperative);
* the Figure 4 settings (random-walk workload with fluctuating weights
  and collector resampling, constant and fluctuating bandwidth);
* the Figure 5 settings (buoy workload, 60 s ticks, fluctuating link);
* one cache (the paper's star) and four caches (sharded and replicated);
* the sampling monitor (plain and predictive) and batching sources;
* the Sec 9 time-varying bound priority, whose trigger monitors ask for
  every dispatcher fire (``TestTimeVaryingPriority``, also pinned to
  the outputs of the per-tick scan the policies ran it on before);
* replicated topologies carrying a client *read stream*: every read-model
  metric (reads served, read-observed divergence, per-replica serving
  counts, per-replica time-averaged divergence) must be bit-for-bit
  identical across schedules, so the read model cannot silently depend
  on the wakeup layer;
* drawn combinations of topology, bandwidth condition, faults, retries,
  feedback TTL, batching, rebalancing and read streams
  (``TestFeatureCombinations``), where the reference schedule also makes
  every update drain and re-arm its source (no skip rule).
"""

import dataclasses
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from repro.core.divergence import ValueDeviation
from repro.core.priority import (
    AreaPriority,
    DivergenceBoundPriority,
    SimpleDivergencePriority,
)
from repro.core.weights import StaticWeights
from repro.experiments.matrix import POLICIES, Scenario, run_scenario
from repro.experiments.parallel import WorkloadSpec
from repro.experiments.runner import (
    RunSpec,
    build_result,
    make_context,
    run_policy,
)
from repro.faults.plan import (
    FAULT_SCENARIOS,
    CacheCrash,
    FaultPlan,
    LossRule,
    fault_scenario,
)
from repro.faults.retry import RetryPolicy
from repro.network.bandwidth import (
    ConstantBandwidth,
    SineBandwidth,
    TraceBandwidth,
)
from repro.network.topology import Topology, TopologyConfig
from repro.policies.bounded import assign_max_rates
from repro.policies.cache_driven import CGMPollingPolicy
from repro.policies.competitive import CompetitivePolicy
from repro.policies.cooperative import CooperativePolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.policies.uniform import UniformAllocationPolicy
from repro.rebalance import RebalanceConfig
from repro.sim.random import RngRegistry
from repro.source.source import SourceNode
from repro.workloads.bandwidth_traces import (
    SCENARIOS,
    diurnal_trace,
    heterogeneous_traces,
)
from repro.workloads.buoy import buoy_workload
from repro.workloads.hotspot import moving_hotspot
from repro.workloads.synthetic import uniform_random_walk

from oracles import reference_schedule

M_SOURCES = 10
N_PER_SOURCE = 10
HORIZON = 200.0
SPEC = dict(warmup=50.0, measure=150.0)


def fig4_workload(fluctuating_weights=True, seed=0):
    rng = np.random.default_rng(seed)
    return uniform_random_walk(num_sources=M_SOURCES,
                               objects_per_source=N_PER_SOURCE,
                               horizon=HORIZON, rng=rng,
                               fluctuating_weights=fluctuating_weights)


def cache_profile(mb=0.0):
    return (ConstantBandwidth(20.0) if mb == 0.0
            else SineBandwidth(20.0, mb))


def source_profiles(mb=0.0):
    if mb == 0.0:
        return [ConstantBandwidth(4.0) for _ in range(M_SOURCES)]
    return [SineBandwidth(4.0, mb, phase=float(j))
            for j in range(M_SOURCES)]


def run_both(make_policy, workload, spec):
    """Run the default and the reference schedule; return the two metric
    tuples."""
    results = []
    for reference in (True, False):
        with reference_schedule() if reference else nullcontext():
            result = run_policy(workload, ValueDeviation(), make_policy(),
                                spec)
        results.append((
            result.weighted_divergence,
            result.unweighted_divergence,
            result.refreshes,
            result.feedback_messages,
            result.poll_messages,
            result.messages_total,
        ))
    return tuple(results)


def assert_equivalent(make_policy, workload, spec):
    reference, default = run_both(make_policy, workload, spec)
    assert reference == default, (
        f"default schedule diverged from the reference schedule:\n"
        f"  reference: {reference}\n  default:   {default}")


TOPOLOGIES = [
    pytest.param(None, id="star"),
    pytest.param(TopologyConfig(kind="sharded", num_caches=4),
                 id="sharded-4"),
    pytest.param(TopologyConfig(kind="replicated", num_caches=4,
                                replication=2), id="replicated-4"),
    pytest.param(TopologyConfig(kind="replicated", num_caches=4,
                                replication=2, delivery="multicast"),
                 id="replicated-4-multicast"),
]


class TestCooperativeEquivalence:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_fig4_settings(self, topology):
        """Fig 4 shape: fluctuating weights + collector resampling."""
        workload = fig4_workload()
        spec = RunSpec(**SPEC, resample_interval=10.0, topology=topology)
        assert_equivalent(
            lambda: CooperativePolicy(
                cache_profile(), source_profiles(),
                priority_fn=AreaPriority()),
            workload, spec)

    def test_fluctuating_bandwidth(self):
        """Fig 4's mB = 0.25: non-steady links must stay eagerly exact."""
        workload = fig4_workload()
        spec = RunSpec(**SPEC, resample_interval=10.0)
        assert_equivalent(
            lambda: CooperativePolicy(
                cache_profile(mb=0.25), source_profiles(mb=0.25),
                priority_fn=AreaPriority()),
            workload, spec)

    def test_fig5_settings(self):
        """Fig 5 shape: buoy workload, 60 s ticks, fluctuating link."""
        rng = np.random.default_rng(5)
        workload = buoy_workload(rng, days=0.1)
        m = workload.num_sources
        mb = 0.25 / 60.0
        spec = RunSpec(warmup=1800.0, measure=0.1 * 86_400.0 - 1800.0,
                       dt=60.0)
        assert_equivalent(
            lambda: CooperativePolicy(
                SineBandwidth(10.0 / 60.0, mb),
                [SineBandwidth(10.0 / 60.0, mb, phase=float(j))
                 for j in range(m)],
                priority_fn=AreaPriority()),
            workload, spec)

    @pytest.mark.parametrize("predictive", [False, True])
    def test_sampling_monitor(self, predictive):
        workload = fig4_workload()
        spec = RunSpec(**SPEC)
        assert_equivalent(
            lambda: CooperativePolicy(
                cache_profile(), source_profiles(),
                priority_fn=AreaPriority(), monitor="sampling",
                sampling_interval=7.0, predictive_sampling=predictive),
            workload, spec)

    def test_batching_sources(self):
        workload = fig4_workload()
        spec = RunSpec(**SPEC)
        assert_equivalent(
            lambda: CooperativePolicy(
                cache_profile(), source_profiles(),
                priority_fn=AreaPriority(), batch_size=3,
                batch_timeout=4.0),
            workload, spec)


class TestWideSwingSourceLinks:
    """Source links whose per-tick capacity swings 0.3..5.7 (crossing one
    message and more than doubling): a row that saturated in a trough is
    below the peak's cap a few ticks later, so only a replay of every
    skipped refill is exact.  Rows sit idle between feedback rounds,
    and each feedback's burst of sends spends more than a trough's cap,
    so a sync that shortcut the idle ticks would send less."""

    @pytest.mark.parametrize("sources, rates, cache", [
        (20, (0.05, 0.15), 16.0),
        (20, (0.05, 0.15), 20.0),
        (20, (0.05, 0.15), 24.0),
        (16, (0.1, 0.2), 20.0),
    ])
    def test_cooperative(self, sources, rates, cache):
        rng = np.random.default_rng(4)
        workload = uniform_random_walk(
            num_sources=sources, objects_per_source=30, horizon=HORIZON,
            rng=rng, rate_range=rates)
        spec = RunSpec(**SPEC)
        assert_equivalent(
            lambda: CooperativePolicy(
                ConstantBandwidth(cache),
                [SineBandwidth(3.0, 0.25, amplitude=0.9, phase=float(j))
                 for j in range(sources)],
                priority_fn=AreaPriority()),
            workload, spec)


class TestUniformEquivalence:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_fig4_settings(self, topology):
        workload = fig4_workload()
        spec = RunSpec(**SPEC, topology=topology)
        assert_equivalent(
            lambda: UniformAllocationPolicy(
                cache_profile(), source_profiles()),
            workload, spec)

    def test_fractional_rates_cross_ticks(self):
        """Per-source shares < 1 msg/tick exercise the credit replay."""
        workload = fig4_workload()
        spec = RunSpec(**SPEC)
        assert_equivalent(
            lambda: UniformAllocationPolicy(
                ConstantBandwidth(3.0), source_profiles()),
            workload, spec)


class TestCompetitiveEquivalence:
    @pytest.mark.parametrize("option",
                             ["equal", "proportional", "contribution"])
    def test_all_split_options(self, option):
        workload = fig4_workload()
        n = workload.num_objects
        spec = RunSpec(**SPEC)

        def make():
            policy = CompetitivePolicy(
                cache_profile(), source_profiles(),
                priority_fn=AreaPriority(),
                source_weights=StaticWeights.uniform(n),
                psi=0.25, option=option)
            return policy

        reference, default = run_both(make, workload, spec)
        assert reference == default

    def test_four_caches(self):
        workload = fig4_workload()
        n = workload.num_objects
        spec = RunSpec(**SPEC,
                       topology=TopologyConfig(kind="sharded",
                                               num_caches=4))
        assert_equivalent(
            lambda: CompetitivePolicy(
                cache_profile(), source_profiles(),
                priority_fn=AreaPriority(),
                source_weights=StaticWeights.uniform(n),
                psi=0.25),
            workload, spec)


class TestCacheDrivenEquivalence:
    @pytest.mark.parametrize("variant", ["cgm1", "cgm2"])
    def test_cgm_polling(self, variant):
        workload = fig4_workload(fluctuating_weights=False)
        spec = RunSpec(**SPEC)
        assert_equivalent(
            lambda: CGMPollingPolicy(
                cache_profile(), variant=variant),
            workload, spec)

    def test_four_caches(self):
        workload = fig4_workload(fluctuating_weights=False)
        spec = RunSpec(**SPEC,
                       topology=TopologyConfig(kind="sharded",
                                               num_caches=4))
        assert_equivalent(
            lambda: CGMPollingPolicy(cache_profile()),
            workload, spec)


def trace_cache_profile():
    return diurnal_trace(20.0, HORIZON, num_breakpoints=40)


def trace_source_profiles():
    return heterogeneous_traces(M_SOURCES, 4.0, HORIZON, seed=3,
                                kind="diurnal")


def make_trace_policy(name):
    """One of the five policies on fresh non-steady trace profiles."""
    cache_bw = trace_cache_profile()
    source_bws = trace_source_profiles()
    if name == "cooperative":
        return CooperativePolicy(cache_bw, source_bws,
                                 priority_fn=AreaPriority())
    if name == "uniform":
        return UniformAllocationPolicy(cache_bw, source_bws)
    if name == "competitive":
        return CompetitivePolicy(
            cache_bw, source_bws, priority_fn=AreaPriority(),
            source_weights=StaticWeights.uniform(
                M_SOURCES * N_PER_SOURCE),
            psi=0.25)
    if name == "cgm":
        return CGMPollingPolicy(cache_bw, variant="cgm2")
    return IdealCooperativePolicy(cache_bw, AreaPriority(),
                                  source_bandwidths=source_bws)


class TestTraceProfileEquivalence:
    """Piecewise (trace) bandwidth on every link: the lazy segment-walk
    replay must keep the default schedule bit-for-bit against the eager
    reference for all five policies -- the exactness claim of the trace
    fast path."""

    TRACE_TOPOLOGIES = [
        pytest.param(None, id="star"),
        pytest.param(TopologyConfig(kind="sharded", num_caches=4),
                     id="sharded-4"),
    ]

    @pytest.mark.parametrize("topology", TRACE_TOPOLOGIES)
    @pytest.mark.parametrize(
        "policy", ["cooperative", "uniform", "competitive", "cgm",
                   "ideal"])
    def test_diurnal_traces(self, policy, topology):
        workload = fig4_workload()
        spec = RunSpec(**SPEC, topology=topology)
        assert_equivalent(
            lambda: make_trace_policy(policy),
            workload, spec)

    @pytest.mark.parametrize("policy", ["cooperative", "uniform"])
    def test_outage_traces(self, policy):
        """A mid-run blackout exercises the zero-rate run jump and the
        park/re-arm path of the blocked-sender prediction."""
        workload = fig4_workload()
        spec = RunSpec(**SPEC)

        def make():
            cache_bw = TraceBandwidth.with_outage(
                20.0, 80.0, 110.0, horizon=HORIZON)
            source_bws = [TraceBandwidth.with_outage(
                4.0, 80.0, 110.0, horizon=HORIZON)
                for _ in range(M_SOURCES)]
            if policy == "cooperative":
                return CooperativePolicy(cache_bw, source_bws,
                                         priority_fn=AreaPriority())
            return UniformAllocationPolicy(cache_bw, source_bws)

        assert_equivalent(make, workload, spec)

    def test_steady_trace_matches_constant_run(self):
        """All-equal-rate traces must take the steady lazy path and
        reproduce the ConstantBandwidth run bit for bit."""
        workload = fig4_workload()
        spec = RunSpec(**SPEC)

        def run(profiles):
            cache_bw, source_bws = profiles()
            result = run_policy(
                workload, ValueDeviation(),
                CooperativePolicy(cache_bw, source_bws,
                                  priority_fn=AreaPriority()),
                spec)
            return (result.weighted_divergence, result.refreshes,
                    result.feedback_messages)

        constant = run(lambda: (ConstantBandwidth(20.0),
                                [ConstantBandwidth(4.0)
                                 for _ in range(M_SOURCES)]))
        flat = run(lambda: (
            TraceBandwidth(times=[0.0, 50.0], rates=[20.0, 20.0]),
            [TraceBandwidth(times=[0.0, 50.0], rates=[4.0, 4.0])
             for _ in range(M_SOURCES)]))
        assert constant == flat


class TestIdealEquivalence:
    @pytest.mark.parametrize("mb", [0.0, 0.25])
    def test_fig4_settings(self, mb):
        workload = fig4_workload()
        spec = RunSpec(**SPEC)
        assert_equivalent(
            lambda: IdealCooperativePolicy(
                cache_profile(mb), AreaPriority(),
                source_bandwidths=source_profiles(mb)),
            workload, spec)

    def test_four_caches(self):
        workload = fig4_workload()
        spec = RunSpec(**SPEC,
                       topology=TopologyConfig(kind="sharded",
                                               num_caches=4))
        assert_equivalent(
            lambda: IdealCooperativePolicy(
                cache_profile(), AreaPriority(),
                source_bandwidths=source_profiles()),
            workload, spec)


class TestReadModelEquivalence:
    """Replicated topologies with client read streams, default vs
    reference schedule.

    The read path observes per-replica store state at read times, so any
    scheduler-dependent difference in *when* a replica applies a snapshot
    would surface here even if the aggregate divergence metrics happened
    to agree.  Pinned for replication 2 and 3 across the read-policy axis.
    """

    @pytest.mark.parametrize("replication", [2, 3])
    @pytest.mark.parametrize("read_policy",
                             ["any", "quorum-2", "freshest"])
    def test_cooperative_with_read_stream(self, replication, read_policy):
        workload = fig4_workload()
        reads = workload.read_stream(
            RngRegistry(0).stream("read-workload"), read_rate=0.5)
        spec = RunSpec(**SPEC,
                       topology=TopologyConfig(kind="replicated",
                                               num_caches=4,
                                               replication=replication))
        results = {}
        for schedule in ("reference", "default"):
            with (reference_schedule() if schedule == "reference"
                  else nullcontext()):
                policy = CooperativePolicy(
                    cache_profile(), source_profiles(),
                    priority_fn=AreaPriority())
                results[schedule] = run_policy(
                    workload, ValueDeviation(), policy, spec, reads=reads,
                    read_policy=read_policy)
        assert results["reference"].reads.count > 0
        assert results["reference"] == results["default"], (
            f"read-model metrics diverged across schedules:\n"
            f"  reference: {results['reference']}\n"
            f"  default:   {results['default']}")

    @pytest.mark.parametrize("replication", [2, 3])
    def test_uniform_with_read_stream(self, replication):
        """The store-backed uniform baseline carries the read path too."""
        workload = fig4_workload()
        reads = workload.read_stream(
            RngRegistry(0).stream("read-workload"), read_rate=0.5)
        spec = RunSpec(**SPEC,
                       topology=TopologyConfig(kind="replicated",
                                               num_caches=4,
                                               replication=replication))
        results = {}
        for schedule in ("reference", "default"):
            with (reference_schedule() if schedule == "reference"
                  else nullcontext()):
                policy = UniformAllocationPolicy(
                    cache_profile(), source_profiles())
                results[schedule] = run_policy(
                    workload, ValueDeviation(), policy, spec, reads=reads,
                    read_policy=f"quorum-{replication}")
        assert results["reference"].reads.count > 0
        assert results["reference"] == results["default"]

    def test_reads_never_perturb_the_simulation(self):
        """A read stream is measurement-only: attaching one changes no
        simulated outcome relative to a plain run."""
        workload = fig4_workload()
        reads = workload.read_stream(
            RngRegistry(0).stream("read-workload"), read_rate=0.5)
        spec = RunSpec(**SPEC,
                       topology=TopologyConfig(kind="replicated",
                                               num_caches=4,
                                               replication=2))

        def make():
            return CooperativePolicy(cache_profile(), source_profiles(),
                                     priority_fn=AreaPriority())

        plain = run_policy(workload, ValueDeviation(), make(), spec)
        with_reads = run_policy(workload, ValueDeviation(), make(), spec,
                                reads=reads, read_policy="freshest")
        assert with_reads.reads is not None
        assert dataclasses.replace(with_reads, reads=None) == plain


class TestNonDyadicRates:
    """Regression: non-dyadic steady rates (0.1, 0.3, ...) accumulate
    per-tick credit sums that no closed form reproduces in the last ulp;
    the lazy link sync must *replay* the eager refills, not shortcut
    them.  (Dyadic rates like 0.25 or 4.0 mask the bug.)"""

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.7])
    def test_cooperative_fractional_source_bandwidth(self, rate):
        rng = np.random.default_rng(3)
        workload = uniform_random_walk(
            num_sources=20, objects_per_source=2, horizon=HORIZON,
            rng=rng)
        spec = RunSpec(**SPEC)
        assert_equivalent(
            lambda: CooperativePolicy(
                ConstantBandwidth(10.0),
                [ConstantBandwidth(rate) for _ in range(20)],
                priority_fn=AreaPriority()),
            workload, spec)

    def test_uniform_fractional_cache_bandwidth(self):
        workload = fig4_workload()
        spec = RunSpec(**SPEC)
        assert_equivalent(
            lambda: UniformAllocationPolicy(
                ConstantBandwidth(1.1), source_profiles()),
            workload, spec)


class TestFaultEquivalence:
    """Fault plans are ordinary simulator state: drops are counter-keyed
    per delivery, crashes are NETWORK-phase events, and retransmit
    timers are scheduled at send time, so the default and reference
    schedules must stay bit-for-bit under every fault scenario -- the
    same exactness bar as the fault-free runs."""

    FAULT_TOPOLOGIES = [
        pytest.param(None, id="star"),
        pytest.param(TopologyConfig(kind="sharded", num_caches=4),
                     id="sharded-4"),
        pytest.param(TopologyConfig(kind="replicated", num_caches=4,
                                    replication=2), id="replicated-4"),
        pytest.param(TopologyConfig(kind="replicated", num_caches=4,
                                    replication=2, delivery="multicast"),
                     id="replicated-4-multicast"),
    ]

    @pytest.mark.parametrize("topology", FAULT_TOPOLOGIES)
    @pytest.mark.parametrize(
        "scenario", ["lossy-10", "crash-restart", "feedback-blackout"])
    def test_cooperative_fault_scenarios(self, scenario, topology):
        workload = fig4_workload()
        plan = fault_scenario(scenario, 50.0, 150.0)
        spec = RunSpec(**SPEC, topology=topology, faults=plan)
        assert_equivalent(
            lambda: CooperativePolicy(
                cache_profile(), source_profiles(),
                priority_fn=AreaPriority()),
            workload, spec)

    def test_uniform_under_loss_and_crash(self):
        """A hand-written plan mixing a loss window with a crash."""
        workload = fig4_workload()
        plan = FaultPlan(
            seed=1,
            loss=(LossRule(60.0, 140.0, 0.2, direction="upstream"),),
            crashes=(CacheCrash(90.0, cache_id=0),))
        spec = RunSpec(**SPEC, faults=plan)
        assert_equivalent(
            lambda: UniformAllocationPolicy(
                cache_profile(), source_profiles()),
            workload, spec)

    @pytest.mark.parametrize("topology", FAULT_TOPOLOGIES)
    def test_retry_under_loss(self, topology):
        """Reliable delivery: ack bookkeeping and retransmit timers."""
        workload = fig4_workload()
        plan = fault_scenario("lossy-10", 50.0, 150.0)
        spec = RunSpec(**SPEC, topology=topology, faults=plan,
                       retry=RetryPolicy(timeout=6.0, backoff=2.0,
                                         max_attempts=3))
        assert_equivalent(
            lambda: CooperativePolicy(
                cache_profile(), source_profiles(),
                priority_fn=AreaPriority()),
            workload, spec)

    @pytest.mark.parametrize("seed", range(4))
    def test_retry_timeout_of_one_tick(self, seed):
        """A retry timer armed by an update hook inside a replay batch
        lands at or after the next tick when ``timeout >= dt``, so the
        shortest timeout a run accepts keeps the default path on the
        reference schedule.  A 0.5 s timeout, now refused, landed inside
        the batch and diverged at each of these seeds."""
        workload = uniform_random_walk(8, 4, 200.0,
                                       np.random.default_rng(seed),
                                       rate_range=(0.5, 2.0))
        plan = fault_scenario("lossy-10", 50.0, 150.0, seed=seed)
        spec = RunSpec(**SPEC, seed=seed, faults=plan,
                       retry=RetryPolicy(timeout=1.0))
        assert_equivalent(
            lambda: CooperativePolicy(
                ConstantBandwidth(3.0), [ConstantBandwidth(1.5)] * 8,
                priority_fn=AreaPriority()),
            workload, spec)
        with pytest.raises(ValueError, match="retry timeout must be >= dt"):
            dataclasses.replace(spec, retry=RetryPolicy(timeout=0.5))

    def test_feedback_ttl_through_blackout(self):
        """The TTL decay deadline must fire identically on both schedules
        (the default one arms an explicit wakeup for it)."""
        workload = fig4_workload()
        plan = fault_scenario("feedback-blackout", 50.0, 150.0)
        spec = RunSpec(**SPEC, faults=plan)
        assert_equivalent(
            lambda: CooperativePolicy(
                cache_profile(), source_profiles(),
                priority_fn=AreaPriority(), feedback_ttl=25.0),
            workload, spec)


class TestSparseRegime:
    """The asymptotic-win regime: updates are rare, almost all ticks idle."""

    def test_sparse_sources_identical_and_parked(self):
        rng = np.random.default_rng(7)
        workload = uniform_random_walk(
            num_sources=50, objects_per_source=1, horizon=300.0,
            rng=rng, rate_range=(0.002, 0.002))
        spec = RunSpec(warmup=50.0, measure=250.0)
        assert_equivalent(
            lambda: CooperativePolicy(
                ConstantBandwidth(4.0),
                [ConstantBandwidth(1.0) for _ in range(50)],
                priority_fn=AreaPriority()),
            workload, spec)


BOUND_TOPOLOGIES = {
    "star": None,
    "sharded-2": TopologyConfig(kind="sharded", num_caches=2),
    "replicated-2-multicast": TopologyConfig(
        kind="replicated", num_caches=2, replication=2,
        delivery="multicast"),
}


def run_bound(policy, topology, monitor, batch_size, sine_weights, seed,
              priority_fn=DivergenceBoundPriority, source_bandwidth=1.5,
              cache_bandwidth=3.0, objects_per_source=3):
    """One small run, by default under the Sec 9 bound priority (known
    max rates installed), reduced to a tuple of its outputs."""
    m, n = 4, objects_per_source
    workload = uniform_random_walk(
        num_sources=m, objects_per_source=n, horizon=120.0,
        rng=np.random.default_rng(seed), rate_range=(0.05, 0.8),
        fluctuating_weights=sine_weights)
    spec = RunSpec(warmup=30.0, measure=90.0,
                   topology=BOUND_TOPOLOGIES[topology])
    ctx = make_context(workload, ValueDeviation(), spec)
    assign_max_rates(ctx.objects, np.asarray(workload.rates))
    knobs = dict(monitor=monitor, sampling_interval=4.0,
                 batch_size=batch_size, batch_timeout=4.0)
    args = (ConstantBandwidth(cache_bandwidth),
            [ConstantBandwidth(source_bandwidth) for _ in range(m)],
            priority_fn())
    if policy == "cooperative":
        made = CooperativePolicy(*args, **knobs)
    else:
        made = CompetitivePolicy(
            *args, **knobs, source_weights=StaticWeights.uniform(m * n),
            psi=0.25)
    made.attach(ctx)
    ctx.run(spec.end_time)
    result = build_result(workload, ValueDeviation(), made, ctx)
    return (result.weighted_divergence, result.unweighted_divergence,
            result.refreshes, result.feedback_messages,
            result.messages_total, result.refreshes_sent,
            result.mean_threshold,
            made.own_refreshes_sent if policy == "competitive" else None)


class TestTimeVaryingPriority:
    """The bound priority grows every object's priority every tick, so a
    trigger monitor asks its source to be woken at every dispatcher fire.
    Each run must equal the per-tick scan of the reference schedule, and
    the pin: (policy, topology, monitor, batch size, sine weights, seed)
    -> (weighted and unweighted divergence, refreshes, feedback,
    messages, refreshes sent, mean threshold, own-priority sends),
    captured when the policies ran this priority on a per-tick scan of
    their own.  The sampling pins were re-captured once sampling passed
    its estimate through the priority function: until then a sampling
    source ranked by the area priority whatever function it was given."""

    PINS = {
        ("cooperative", "star", "trigger", 1, False, 0):
            (0.8282954779864559, 0.8282954779864559, 345, 15, 362, 347,
             2.860660310528509, None),
        ("cooperative", "star", "trigger", 3, True, 3):
            (0.3325056780776376, 0.2818330080005591, 1020, 20, 361, 341,
             0.06936625945003551, None),
        ("cooperative", "star", "sampling", 1, True, 0):
            (0.7540138261205356, 0.599336561795773, 344, 16, 360, 344,
             0.6147538813784805, None),
        ("cooperative", "sharded-2", "trigger", 1, True, 0):
            (1.203191073103932, 0.9731723905750065, 345, 15, 363, 348,
             3.5891493327548245, None),
        ("cooperative", "sharded-2", "sampling", 3, False, 3):
            (0.4441376847710495, 0.4441376847710495, 360, 54, 174, 120,
             7.464095928677914e-12, None),
        ("cooperative", "replicated-2-multicast", "trigger", 1, True, 3):
            (0.7993833368771286, 0.6568590470933787, 685, 15, 711, 348,
             2.7422516478610306, None),
        ("cooperative", "replicated-2-multicast", "trigger", 3, False, 0):
            (0.4030729483092989, 0.4030729483092989, 1987, 20, 704, 342,
             0.050748241583704126, None),
        ("competitive", "star", "trigger", 1, True, 0):
            (1.250028280581999, 1.0336279672429343, 347, 13, 362, 349,
             3.6151620470306485, 66),
        ("competitive", "star", "sampling", 3, False, 3):
            (0.47144288023220077, 0.47144288023220077, 319, 52, 209, 157,
             2.7127003433085605e-12, 76),
        ("competitive", "sharded-2", "trigger", 3, True, 0):
            (0.5966890287661395, 0.4652791234767022, 945, 19, 362, 343,
             0.04028458997004446, 39),
        ("competitive", "replicated-2-multicast", "trigger", 1, False, 3):
            (0.8059822500639403, 0.8059822500639403, 690, 13, 717, 352,
             2.7606861192429673, 62),
        ("competitive", "replicated-2-multicast", "sampling", 1, True, 0):
            (0.8119316196416365, 0.6608606215634415, 679, 17, 705, 344,
             1.6853526832658494, 67),
    }

    @pytest.mark.parametrize("config", sorted(PINS), ids=lambda c: "-".join(
        map(str, c)))
    def test_matches_reference_and_pin(self, config):
        with reference_schedule():
            reference = run_bound(*config)
        default = run_bound(*config)
        assert repr(default) == repr(reference)
        assert repr(default) == repr(self.PINS[config])

    @pytest.mark.parametrize("monitor, priority_fn", [
        ("trigger", DivergenceBoundPriority), ("sampling", AreaPriority)])
    @pytest.mark.parametrize("policy", ["cooperative", "competitive"])
    def test_batching_with_full_batches_waiting(self, policy, monitor,
                                                priority_fn):
        """Roomy links with batches of two: a source re-evaluating or
        sampling many objects at once often holds two full batches and
        the credit for both, and sends one per visit on both schedules
        (a per-tick second flush changes these results)."""
        config = (policy, "star", monitor, 2, True, 1)
        knobs = dict(priority_fn=priority_fn, source_bandwidth=4.0,
                     cache_bandwidth=8.0, objects_per_source=8)
        with reference_schedule():
            reference = run_bound(*config, **knobs)
        assert repr(run_bound(*config, **knobs)) == repr(reference)


class TestSamplingPriorityFunction:
    """A sampling monitor hands its estimate -- the sampled divergence,
    the midpoint-rule integral and the time since the last refresh -- to
    the priority function it was given, so the function changes the run."""

    def test_three_priorities_three_runs(self):
        runs = {fn.__name__: run_bound("cooperative", "star", "sampling",
                                       1, True, 0, priority_fn=fn)
                for fn in (AreaPriority, DivergenceBoundPriority,
                           SimpleDivergencePriority)}
        assert len({repr(run) for run in runs.values()}) == 3, runs

    def test_predictive_sampling_needs_the_area_priority(self):
        with pytest.raises(ValueError, match="area priority only"):
            CooperativePolicy(ConstantBandwidth(3.0),
                              [ConstantBandwidth(1.0)],
                              priority_fn=SimpleDivergencePriority(),
                              monitor="sampling", predictive_sampling=True)


class TestReferenceSchedule:
    """The oracle really switches the run onto the literal schedule, and
    restores the package on exit."""

    def test_patches_apply_and_restore(self):
        workload = fig4_workload()
        spec = RunSpec(**SPEC)

        def run():
            policy = CooperativePolicy(cache_profile(), source_profiles(),
                                       priority_fn=AreaPriority())
            run_policy(workload, ValueDeviation(), policy, spec)
            return policy

        scans = [(CooperativePolicy, "_sources_tick"),
                 (CooperativePolicy, "_caches_tick"),
                 (CompetitivePolicy, "_own_sends_tick"),
                 (CooperativePolicy, "_on_update"),
                 (SourceNode, "on_update"),
                 (Topology, "on_network_tick")]
        originals = [owner.__dict__[name] for owner, name in scans]
        with reference_schedule():
            assert all(owner.__dict__[name] is not original
                       for (owner, name), original in zip(scans, originals))
            reference = run()
        default = run()
        assert [owner.__dict__[name] for owner, name in scans] == originals
        # The reference refills every source row on every tick; the
        # default leaves a row behind until something touches it.
        ticks = reference.topology._tick_no
        assert default.topology._tick_no == ticks > 0
        assert all(tick == ticks for tick in reference.topology._synced)
        assert any(tick < ticks for tick in default.topology._synced)


# ----------------------------------------------------------------------
# Features combined: drawn tiny scenarios, default vs reference
# ----------------------------------------------------------------------
TINY = dict(num_sources=4, objects_per_source=2)
WARMUP, MEASURE = 20.0, 60.0
COMBINED_TOPOLOGIES = {
    "star": None,
    "sharded-2": TopologyConfig(kind="sharded", num_caches=2),
    "replicated-2": TopologyConfig(kind="replicated", num_caches=2,
                                   replication=2),
    "replicated-2-multicast": TopologyConfig(
        kind="replicated", num_caches=2, replication=2,
        delivery="multicast"),
}
#: policies that take the feedback-TTL and rebalance knobs
THRESHOLD_POLICIES = ("cooperative", "competitive")
#: policies with per-cache stores a read stream can be served from
STORE_POLICIES = ("cooperative", "uniform", "competitive")


@st.composite
def scenarios(draw):
    # A quarter of the draws rebalance: a threshold policy on sharded-2
    # under a moving hotspot with enough bandwidth for a cold cache to
    # absorb migrated shards (scarcer links saturate both caches).
    rebalance = draw(st.integers(0, 3)) == 0
    if rebalance:
        policy = draw(st.sampled_from(THRESHOLD_POLICIES))
        topology = "sharded-2"
        builder = moving_hotspot
        cache_bandwidth = draw(st.sampled_from([3.0, 6.0]))
    else:
        policy = draw(st.sampled_from(POLICIES))
        topology = draw(st.sampled_from(sorted(COMBINED_TOPOLOGIES)))
        builder = draw(st.sampled_from([uniform_random_walk,
                                        moving_hotspot]))
        cache_bandwidth = draw(st.sampled_from([1.5, 3.0, 6.0]))
    ttl = (draw(st.sampled_from([None, 15.0]))
           if policy in THRESHOLD_POLICIES else None)
    batch_size = (draw(st.sampled_from([1, 3]))
                  if policy in THRESHOLD_POLICIES else 1)
    read_policy = (draw(st.sampled_from([None, "any", "quorum-2",
                                         "freshest"]))
                   if policy in STORE_POLICIES else None)
    # A 2-replica quorum needs two replicas to draw from.
    assume(read_policy != "quorum-2" or topology.startswith("replicated"))
    seed = draw(st.integers(0, 3))
    kwargs = dict(rate_range=(0.05, 0.4))
    if builder is moving_hotspot:
        kwargs.update(num_phases=2, hot_boost=6.0)
    policy_kwargs = []
    if ttl is not None:
        policy_kwargs.append(("feedback_ttl", ttl))
    if batch_size > 1:
        policy_kwargs += [("batch_size", batch_size),
                          ("batch_timeout", 4.0)]
    if rebalance:
        policy_kwargs.append(("rebalance", RebalanceConfig(
            interval=10.0, max_moves=2, saturation_queue=1)))
    return Scenario(
        workload=WorkloadSpec.make(builder, seed,
                                   horizon=WARMUP + MEASURE, **TINY,
                                   **kwargs),
        policy=policy,
        cache_bandwidth=cache_bandwidth,
        source_bandwidth=draw(st.sampled_from([0.7, 1.5])),
        warmup=WARMUP, measure=MEASURE, seed=seed,
        policy_kwargs=tuple(policy_kwargs),
        bandwidth=draw(st.sampled_from(("constant",) + SCENARIOS)),
        topology=COMBINED_TOPOLOGIES[topology],
        faults=fault_scenario(draw(st.sampled_from(FAULT_SCENARIOS)),
                              WARMUP, MEASURE, seed=seed),
        # timeout=1.0 is the shortest RunSpec accepts at dt=1: a timer
        # armed at an update lands on the next tick, never inside the
        # replay batch being applied.
        retry=draw(st.sampled_from([None, RetryPolicy(timeout=4.0),
                                    RetryPolicy(timeout=1.0)])),
        read_policy=read_policy,
        read_rate=0.5 if read_policy is not None else 0.0)


class TestFeatureCombinations:
    """Policy x topology x bandwidth condition x fault scenario x retry x
    feedback TTL x batching x rebalancing x read stream, drawn as tiny
    :class:`~repro.experiments.matrix.Scenario`\\ s: every field of the
    default run's record must equal the reference schedule's."""

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=scenarios())
    def test_default_matches_reference(self, scenario):
        with reference_schedule():
            reference = run_scenario(scenario)
        default = run_scenario(scenario)
        # repr: a NaN field (no reads measured) must still compare equal
        assert repr(default) == repr(reference)
        for feature in ("dropped", "retransmitted", "migrations", "reads"):
            if default.get(feature):
                event(f"{feature} > 0")
        if dict(scenario.policy_kwargs).get("batch_size", 1) > 1:
            event("batching")
