"""Tests for the idealized cooperative scheduler."""

import numpy as np
import pytest

from repro.core.divergence import Staleness, ValueDeviation, make_metric
from repro.core.priority import (
    AreaPriority,
    PoissonStalenessPriority,
    SimpleDivergencePriority,
)
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth
from repro.policies.ideal import IdealCooperativePolicy
from repro.workloads.synthetic import uniform_random_walk


def workload(seed=0, m=2, n=10, horizon=200.0, **kwargs):
    return uniform_random_walk(num_sources=m, objects_per_source=n,
                               horizon=horizon,
                               rng=np.random.default_rng(seed), **kwargs)


class TestScheduling:
    def test_enough_bandwidth_gives_near_zero_divergence(self):
        """With bandwidth >> update rate every update propagates
        immediately: divergence stays ~0 (paper Sec 1.2.1)."""
        w = workload()
        policy = IdealCooperativePolicy(ConstantBandwidth(1000.0),
                                        AreaPriority())
        result = run_policy(w, ValueDeviation(), policy,
                            RunSpec(warmup=20.0, measure=180.0))
        assert result.unweighted_divergence < 0.01

    def test_zero_bandwidth_never_refreshes(self):
        w = workload()
        policy = IdealCooperativePolicy(ConstantBandwidth(0.0),
                                        AreaPriority())
        result = run_policy(w, ValueDeviation(), policy,
                            RunSpec(warmup=20.0, measure=180.0))
        assert result.refreshes == 0
        assert result.unweighted_divergence > 0.0

    def test_divergence_decreases_with_bandwidth(self):
        divergences = []
        for bandwidth in (1.0, 5.0, 20.0):
            w = workload(seed=3)
            policy = IdealCooperativePolicy(ConstantBandwidth(bandwidth),
                                            PoissonStalenessPriority())
            result = run_policy(w, Staleness(), policy,
                                RunSpec(warmup=20.0, measure=180.0))
            divergences.append(result.unweighted_divergence)
        assert divergences[0] > divergences[1] > divergences[2]

    def test_refresh_budget_respected(self):
        w = workload(seed=1, m=1, n=30)
        bandwidth = 7.0
        policy = IdealCooperativePolicy(ConstantBandwidth(bandwidth),
                                        SimpleDivergencePriority())
        spec = RunSpec(warmup=0.0, measure=100.0)
        result = run_policy(w, ValueDeviation(), policy, spec)
        assert result.refreshes <= bandwidth * spec.end_time + 1

    def test_source_bandwidth_skips_to_next_priority(self):
        """When the top object's source is exhausted, the next-highest
        object from another source must still refresh (Sec 3.3)."""
        w = workload(seed=2, m=2, n=5, rate_range=(0.9, 1.0))
        policy = IdealCooperativePolicy(
            ConstantBandwidth(100.0), SimpleDivergencePriority(),
            source_bandwidths=[ConstantBandwidth(0.0),
                               ConstantBandwidth(50.0)])
        result = run_policy(w, ValueDeviation(), policy,
                            RunSpec(warmup=10.0, measure=90.0))
        assert result.refreshes > 0
        # Source 0 can never send: its objects stay diverged.
        assert result.unweighted_divergence > 0.0

    def test_wrong_source_profile_count_rejected(self):
        w = workload(m=3)
        policy = IdealCooperativePolicy(
            ConstantBandwidth(1.0), AreaPriority(),
            source_bandwidths=[ConstantBandwidth(1.0)] * 2)
        from repro.policies.base import SimulationContext
        ctx = SimulationContext(w, ValueDeviation())
        with pytest.raises(ValueError):
            policy.attach(ctx)

    def test_refresh_hooks_invoked(self):
        w = workload(seed=4, m=1, n=5)
        policy = IdealCooperativePolicy(ConstantBandwidth(50.0),
                                        AreaPriority())
        seen = []
        policy.refresh_hooks.append(lambda obj, now: seen.append(obj.index))
        run_policy(w, ValueDeviation(), policy,
                   RunSpec(warmup=10.0, measure=50.0))
        assert len(seen) == policy.refreshes()
        assert len(seen) > 0


class TestPriorityOrdering:
    def test_higher_weight_objects_served_first(self):
        """Under scarce bandwidth the weighted priority must favor heavy
        objects: their divergence should end up lower."""
        from repro.core.weights import StaticWeights
        w = workload(seed=5, m=1, n=20, rate_range=(0.5, 0.6))
        weights = np.ones(20)
        weights[:10] = 25.0
        w.weights = StaticWeights(weights)
        policy = IdealCooperativePolicy(ConstantBandwidth(4.0),
                                        AreaPriority())
        result = run_policy(w, ValueDeviation(), policy,
                            RunSpec(warmup=50.0, measure=200.0))
        ctx_collector_avg = None  # per-object data not in RunResult
        # Re-run manually to inspect per-object averages.
        from repro.policies.base import SimulationContext
        w2 = workload(seed=5, m=1, n=20, rate_range=(0.5, 0.6))
        w2.weights = StaticWeights(weights)
        ctx = SimulationContext(w2, ValueDeviation(), warmup=50.0)
        policy2 = IdealCooperativePolicy(ConstantBandwidth(4.0),
                                         AreaPriority())
        policy2.attach(ctx)
        ctx.run(250.0)
        per_object = ctx.collector.per_object_weighted_average()
        unweighted = per_object / weights
        assert unweighted[:10].mean() < unweighted[10:].mean()

    def test_staleness_priority_prefers_slow_objects(self):
        """Ds/lambda: with staleness and scarce bandwidth, slow-changing
        objects end up fresher than fast ones."""
        from repro.policies.base import SimulationContext
        w = workload(seed=6, m=1, n=20, rate_range=(0.01, 1.0))
        ctx = SimulationContext(w, Staleness(), warmup=50.0)
        policy = IdealCooperativePolicy(ConstantBandwidth(3.0),
                                        PoissonStalenessPriority())
        policy.attach(ctx)
        ctx.run(300.0)
        per_object = ctx.collector.per_object_weighted_average()
        slow = w.rates < np.median(w.rates)
        assert per_object[slow].mean() < per_object[~slow].mean()
