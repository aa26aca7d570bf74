"""Tests for the cache-driven CGM baselines."""

import numpy as np
import pytest

from repro.core.divergence import Staleness
from repro.core.priority import PoissonStalenessPriority
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth
from repro.policies.cache_driven import CGMPollingPolicy, IdealCacheBasedPolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.workloads.synthetic import uniform_random_walk


def workload(seed=0, m=5, n=10, horizon=400.0):
    return uniform_random_walk(num_sources=m, objects_per_source=n,
                               horizon=horizon,
                               rng=np.random.default_rng(seed))


SPEC = RunSpec(warmup=100.0, measure=300.0)


class TestIdealCacheBased:
    def test_runs_and_respects_budget(self):
        budget = 20.0
        policy = IdealCacheBasedPolicy(budget)
        result = run_policy(workload(), Staleness(), policy, SPEC)
        assert result.refreshes > 0
        assert result.refreshes <= budget * SPEC.end_time * 1.05 + 1

    def test_divergence_decreases_with_budget(self):
        values = []
        for budget in (5.0, 20.0, 45.0):
            result = run_policy(workload(seed=1), Staleness(),
                                IdealCacheBasedPolicy(budget), SPEC)
            values.append(result.unweighted_divergence)
        assert values[0] > values[1] > values[2]

    def test_worse_than_ideal_cooperative(self):
        """The paper's theoretical comparison: cooperative scheduling
        dominates cache-based scheduling at equal budgets."""
        budget = 25.0
        cache_based = run_policy(workload(seed=2), Staleness(),
                                 IdealCacheBasedPolicy(budget), SPEC)
        cooperative = run_policy(
            workload(seed=2), Staleness(),
            IdealCooperativePolicy(ConstantBandwidth(budget),
                                   PoissonStalenessPriority()), SPEC)
        assert cooperative.unweighted_divergence \
            < cache_based.unweighted_divergence

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            IdealCacheBasedPolicy(-1.0)


class TestCGMPolling:
    def test_polls_cost_round_trips(self):
        policy = CGMPollingPolicy(ConstantBandwidth(20.0), variant="cgm1")
        result = run_policy(workload(seed=3), Staleness(), policy, SPEC)
        assert result.refreshes > 0
        # one request per delivered response...
        assert result.poll_messages >= result.refreshes
        # ...and the full round trip (request + response) on the link.
        assert result.messages_total >= 2 * result.refreshes

    def test_cache_link_budget_respected(self):
        rate = 20.0
        policy = CGMPollingPolicy(ConstantBandwidth(rate), variant="cgm2")
        result = run_policy(workload(seed=4), Staleness(), policy, SPEC)
        assert result.messages_total <= rate * SPEC.end_time + rate

    def test_estimates_improve_over_time(self):
        policy = CGMPollingPolicy(ConstantBandwidth(40.0), variant="cgm1",
                                  resolve_interval=50.0)
        w = workload(seed=5)
        run_policy(w, Staleness(), policy, SPEC)
        rates = np.asarray(w.rates, dtype=float)
        seen = rates > 0
        rel_err = (np.abs(policy.estimated_rates()[seen] - rates[seen])
                   / rates[seen])
        assert float(np.mean(rel_err)) < 2.0

    def test_cgm1_beats_cgm2(self):
        """More estimator information must not hurt (Figure 6 ordering)."""
        r1 = run_policy(workload(seed=6), Staleness(),
                        CGMPollingPolicy(ConstantBandwidth(25.0), "cgm1"),
                        SPEC)
        r2 = run_policy(workload(seed=6), Staleness(),
                        CGMPollingPolicy(ConstantBandwidth(25.0), "cgm2"),
                        SPEC)
        assert r1.unweighted_divergence <= r2.unweighted_divergence * 1.15

    def test_ideal_cache_beats_practical_cgm(self):
        budget = 25.0
        ideal = run_policy(workload(seed=7), Staleness(),
                           IdealCacheBasedPolicy(budget), SPEC)
        cgm1 = run_policy(workload(seed=7), Staleness(),
                          CGMPollingPolicy(ConstantBandwidth(budget),
                                           "cgm1"), SPEC)
        assert ideal.unweighted_divergence < cgm1.unweighted_divergence

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            CGMPollingPolicy(ConstantBandwidth(1.0), variant="cgm3")

    def test_policy_name_reflects_variant(self):
        assert CGMPollingPolicy(ConstantBandwidth(1.0), "cgm2").name == "cgm2"


class TestFigure6Ordering:
    def test_full_policy_ordering_at_mid_bandwidth(self):
        """The paper's headline: ideal-coop < ours < ideal-cache < CGM1
        (CGM2 close to CGM1)."""
        from repro.policies.cooperative import CooperativePolicy
        w_args = dict(seed=8, m=5, n=10)
        bandwidth = 25.0  # 0.5 of 50 objects
        results = {}
        results["ideal-coop"] = run_policy(
            workload(**w_args), Staleness(),
            IdealCooperativePolicy(ConstantBandwidth(bandwidth),
                                   PoissonStalenessPriority()), SPEC)
        results["ours"] = run_policy(
            workload(**w_args), Staleness(),
            CooperativePolicy(
                cache_bandwidth=ConstantBandwidth(bandwidth),
                source_bandwidths=[ConstantBandwidth(1e9)] * 5,
                priority_fn=PoissonStalenessPriority()), SPEC)
        results["ideal-cache"] = run_policy(
            workload(**w_args), Staleness(),
            IdealCacheBasedPolicy(bandwidth), SPEC)
        results["cgm1"] = run_policy(
            workload(**w_args), Staleness(),
            CGMPollingPolicy(ConstantBandwidth(bandwidth), "cgm1"), SPEC)
        d = {k: v.unweighted_divergence for k, v in results.items()}
        assert d["ideal-coop"] <= d["ours"]
        assert d["ours"] < d["ideal-cache"]
        assert d["ideal-cache"] < d["cgm1"]
