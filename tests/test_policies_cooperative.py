"""Tests for the full threshold-based cooperative policy."""

import numpy as np
import pytest

from repro.core.divergence import Staleness, ValueDeviation
from repro.core.priority import AreaPriority, PoissonStalenessPriority
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth, SineBandwidth
from repro.policies.cooperative import CooperativePolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.workloads.synthetic import uniform_random_walk


def workload(seed=0, m=4, n=10, horizon=300.0, **kwargs):
    return uniform_random_walk(num_sources=m, objects_per_source=n,
                               horizon=horizon,
                               rng=np.random.default_rng(seed), **kwargs)


def cooperative(cache_rate=20.0, m=4, source_rate=10.0, **kwargs):
    return CooperativePolicy(
        cache_bandwidth=ConstantBandwidth(cache_rate),
        source_bandwidths=[ConstantBandwidth(source_rate)] * m,
        priority_fn=kwargs.pop("priority_fn", PoissonStalenessPriority()),
        **kwargs)


SPEC = RunSpec(warmup=50.0, measure=250.0)


class TestEndToEnd:
    def test_refreshes_flow_and_divergence_bounded(self):
        result = run_policy(workload(), Staleness(), cooperative(), SPEC)
        assert result.refreshes > 0
        assert 0.0 <= result.unweighted_divergence <= 1.0

    def test_tracks_ideal_within_modest_factor(self):
        """The Figure 4 claim: in bandwidth-starved regimes the practical
        algorithm's divergence stays within a small factor of the
        idealized scenario."""
        bandwidth = 10.0  # roughly half the aggregate update rate
        ideal = run_policy(workload(seed=1), Staleness(),
                           IdealCooperativePolicy(
                               ConstantBandwidth(bandwidth),
                               PoissonStalenessPriority()), SPEC)
        ours = run_policy(workload(seed=1), Staleness(),
                          cooperative(cache_rate=bandwidth), SPEC)
        assert ours.unweighted_divergence <= 4.0 * ideal.unweighted_divergence

    def test_small_absolute_gap_at_critical_load(self):
        """At the critical point (bandwidth ~ update rate) the ratio blows
        up because the ideal goes to ~0, but -- as the paper argues for
        Figure 4 -- the *absolute* difference stays small."""
        bandwidth = 20.0  # ~ the aggregate update rate of this workload
        ideal = run_policy(workload(seed=1), Staleness(),
                           IdealCooperativePolicy(
                               ConstantBandwidth(bandwidth),
                               PoissonStalenessPriority()), SPEC)
        ours = run_policy(workload(seed=1), Staleness(),
                          cooperative(cache_rate=bandwidth), SPEC)
        assert ideal.unweighted_divergence < 0.05
        assert ours.unweighted_divergence \
            - ideal.unweighted_divergence < 0.25

    def test_feedback_overhead_is_modest(self):
        """Sec 6: the protocol must not eat the bandwidth it manages."""
        result = run_policy(workload(seed=2), Staleness(), cooperative(),
                            SPEC)
        assert 0.0 < result.overhead_fraction < 0.4

    def test_message_budget_respected(self):
        cache_rate = 15.0
        result = run_policy(workload(seed=3), Staleness(),
                            cooperative(cache_rate=cache_rate), SPEC)
        # Everything crossing the cache link fits in the capacity budget.
        assert result.messages_total <= cache_rate * SPEC.end_time \
            + cache_rate  # one tick of carry-over slack

    def test_divergence_decreases_with_bandwidth(self):
        values = []
        for cache_rate in (4.0, 16.0, 64.0):
            result = run_policy(workload(seed=4), Staleness(),
                                cooperative(cache_rate=cache_rate), SPEC)
            values.append(result.unweighted_divergence)
        assert values[0] > values[1] > values[2]

    def test_adapts_to_fluctuating_bandwidth(self):
        policy = CooperativePolicy(
            cache_bandwidth=SineBandwidth(20.0, 0.25),
            source_bandwidths=[SineBandwidth(10.0, 0.25, phase=float(j))
                               for j in range(4)],
            priority_fn=PoissonStalenessPriority())
        result = run_policy(workload(seed=5), Staleness(), policy, SPEC)
        assert result.refreshes > 0
        assert result.unweighted_divergence < 1.0

    def test_no_unbounded_queue_growth(self):
        """Flood avoidance: even with sources able to overwhelm the cache
        link, the queue must stay bounded (gamma back-off)."""
        w = workload(seed=6, m=8, n=20, rate_range=(0.5, 1.0))
        policy = CooperativePolicy(
            cache_bandwidth=ConstantBandwidth(10.0),
            source_bandwidths=[ConstantBandwidth(50.0)] * 8,
            priority_fn=PoissonStalenessPriority())
        result = run_policy(w, Staleness(), policy, SPEC)
        peak = result.queued_peak
        assert peak < 10.0 * 20  # far below sources' aggregate ability

    def test_thresholds_converge_across_sources(self):
        """Sources under symmetric load should end with thresholds in a
        similar range (the feedback loop equalizes them)."""
        w = workload(seed=7, m=6, n=10, rate_range=(0.4, 0.6))
        policy = cooperative(m=6)
        run_policy(w, Staleness(), policy, SPEC)
        thresholds = policy.sources.thresholds.value
        assert max(thresholds) / max(min(thresholds), 1e-9) < 1e3

    def test_wrong_source_count_rejected(self):
        from repro.policies.base import SimulationContext
        ctx = SimulationContext(workload(m=4), Staleness())
        with pytest.raises(ValueError):
            cooperative(m=3).attach(ctx)

    def test_alpha_one_rejected_when_deriving_feedback_period(self):
        """The derived gamma period divides by ln(alpha): alpha = 1 is a
        ValueError with a message, not a ZeroDivisionError."""
        from repro.policies.base import SimulationContext
        ctx = SimulationContext(workload(), Staleness())
        with pytest.raises(ValueError, match="alpha must be > 1"):
            cooperative(alpha=1.0).attach(ctx)
        # An explicit period needs no derivation, so alpha = 1 attaches.
        ctx = SimulationContext(workload(), Staleness())
        cooperative(alpha=1.0, feedback_period=10.0).attach(ctx)

    def test_extras_reported(self):
        """The typed counters a cooperative run reports."""
        result = run_policy(workload(seed=8), Staleness(), cooperative(),
                            SPEC)
        assert result.mean_threshold > 0
        assert result.refreshes_sent >= result.refreshes


class TestMonitorVariants:
    def test_sampling_monitor_runs(self):
        policy = cooperative(priority_fn=AreaPriority(),
                             monitor="sampling", sampling_interval=5.0)
        result = run_policy(workload(seed=9), ValueDeviation(), policy,
                            SPEC)
        assert result.refreshes > 0

    def test_sampling_worse_or_equal_to_triggers(self):
        """Exact monitoring can only help (Sec 8.2.1 trades accuracy for
        cheaper monitoring)."""
        trigger = run_policy(workload(seed=10), ValueDeviation(),
                             cooperative(priority_fn=AreaPriority()), SPEC)
        sampled = run_policy(workload(seed=10), ValueDeviation(),
                             cooperative(priority_fn=AreaPriority(),
                                         monitor="sampling",
                                         sampling_interval=20.0), SPEC)
        assert sampled.unweighted_divergence \
            >= 0.8 * trigger.unweighted_divergence

    def test_unknown_monitor_rejected(self):
        from repro.policies.base import SimulationContext
        ctx = SimulationContext(workload(), Staleness())
        with pytest.raises(ValueError):
            cooperative(monitor="telepathy").attach(ctx)


class TestKnobValidation:
    """Bad knobs fail at construction, before any topology is built."""

    @pytest.mark.parametrize("knobs, match", [
        ({"monitor": "telepathy"}, "monitor kind 'telepathy'"),
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"batch_size": -3}, "batch_size must be >= 1, got -3"),
        ({"batch_timeout": 0.0}, "batch_timeout must be > 0"),
        ({"batch_timeout": -1.0}, "batch_timeout must be > 0"),
        ({"sampling_interval": 0.0}, "sampling_interval must be > 0"),
        ({"sampling_interval": -5.0}, "sampling_interval must be > 0"),
    ])
    def test_rejected_at_construction(self, knobs, match):
        with pytest.raises(ValueError, match=match):
            cooperative(**knobs)

    def test_defaults_and_edges_accepted(self):
        cooperative(batch_size=1, batch_timeout=1e-9,
                    monitor="sampling", sampling_interval=1e-9)
