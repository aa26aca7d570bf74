"""Tests for competitive environments (paper Sec 7)."""

import numpy as np
import pytest

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.core.weights import StaticWeights
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth
from repro.policies.competitive import CompetitivePolicy
from repro.workloads.synthetic import uniform_random_walk


def conflicting_weights(n, seed=0):
    """Cache and sources value *disjoint* halves of the objects."""
    rng = np.random.default_rng(seed)
    cache = np.ones(n)
    cache[: n // 2] = 10.0
    source = np.ones(n)
    source[n // 2:] = 10.0
    return StaticWeights(cache), StaticWeights(source)


def make_policy(psi, option="equal", m=4, n_per=10, bandwidth=8.0,
                source_weights=None):
    return CompetitivePolicy(
        ConstantBandwidth(bandwidth),
        [ConstantBandwidth(5.0)] * m,
        AreaPriority(),
        source_weights=source_weights,
        psi=psi,
        option=option,
    )


def make_workload(seed=0, m=4, n_per=10):
    w = uniform_random_walk(num_sources=m, objects_per_source=n_per,
                            horizon=400.0,
                            rng=np.random.default_rng(seed),
                            rate_range=(0.2, 0.8))
    return w


SPEC = RunSpec(warmup=100.0, measure=300.0)


class TestValidation:
    def test_psi_out_of_range(self):
        _, source_w = conflicting_weights(40)
        with pytest.raises(ValueError):
            make_policy(psi=1.0, source_weights=source_w)
        with pytest.raises(ValueError):
            make_policy(psi=-0.1, source_weights=source_w)

    def test_unknown_option(self):
        _, source_w = conflicting_weights(40)
        with pytest.raises(ValueError):
            make_policy(psi=0.5, option="auction",
                        source_weights=source_w)

    def test_mismatched_source_weights(self):
        cache_w, _ = conflicting_weights(40)
        policy = make_policy(psi=0.5,
                             source_weights=StaticWeights.uniform(7))
        from repro.policies.base import SimulationContext
        w = make_workload()
        w.weights = cache_w
        ctx = SimulationContext(w, ValueDeviation())
        with pytest.raises(ValueError):
            policy.attach(ctx)


class TestPsiTradeoff:
    def run_psi(self, psi, option="equal", seed=3):
        w = make_workload(seed=seed)
        cache_w, source_w = conflicting_weights(w.num_objects, seed)
        w.weights = cache_w
        policy = make_policy(psi=psi, option=option,
                             source_weights=source_w)
        result = run_policy(w, ValueDeviation(), policy, SPEC)
        source_side = policy.source_objective_divergence(SPEC.end_time)
        return result.weighted_divergence, source_side, policy

    def test_psi_zero_is_pure_cache_priority(self):
        _, _, policy = self.run_psi(0.0)
        assert policy.own_refreshes_sent == 0

    def test_psi_gives_sources_bandwidth(self):
        _, _, policy = self.run_psi(0.5)
        assert policy.own_refreshes_sent > 0

    def test_higher_psi_helps_source_objective(self):
        """More Psi -> lower divergence under the sources' weights."""
        _, source_low, _ = self.run_psi(0.0)
        _, source_high, _ = self.run_psi(0.6)
        assert source_high < source_low

    def test_higher_psi_costs_cache_objective(self):
        cache_low, _, _ = self.run_psi(0.0)
        cache_high, _, _ = self.run_psi(0.6)
        assert cache_high >= cache_low * 0.95  # allow small noise

    def test_contribution_option_piggybacks(self):
        _, _, policy = self.run_psi(0.5, option="contribution")
        assert policy.own_refreshes_sent > 0
        # Roughly Psi/(1-Psi) piggybacks per threshold refresh (every
        # send that is not an own-priority one).
        threshold_sends = (sum(policy.sources.refreshes_sent)
                           - policy.own_refreshes_sent)
        assert policy.own_refreshes_sent \
            <= 1.2 * threshold_sends * (0.5 / 0.5) + 5

    def test_proportional_equals_equal_for_uniform_sources(self):
        """With equal object counts per source, options 1 and 2 must
        allocate identical rates."""
        w = make_workload(seed=4)
        cache_w, source_w = conflicting_weights(w.num_objects)
        w.weights = cache_w
        equal = make_policy(psi=0.4, option="equal",
                            source_weights=source_w)
        prop = make_policy(psi=0.4, option="proportional",
                           source_weights=source_w)
        from repro.policies.base import SimulationContext
        ctx1 = SimulationContext(w, ValueDeviation())
        equal.attach(ctx1)
        w2 = make_workload(seed=4)
        w2.weights = cache_w
        ctx2 = SimulationContext(w2, ValueDeviation())
        prop.attach(ctx2)
        assert equal._own_rate == prop._own_rate


class TestFractionalSlice:
    """A Psi slice that is not a whole number of messages a tick is sent
    in full: own-send credit is refilled by the links' rule, so its
    fraction carries over instead of being clipped at the next tick."""

    @pytest.mark.parametrize("per_tick", [0.4, 1.5])
    def test_slice_is_sent_in_full(self, per_tick):
        # One source whose objects always change, on a roomy link: the
        # Psi slice of the cache link is the only limit on own sends.
        w = uniform_random_walk(num_sources=1, objects_per_source=40,
                                horizon=200.0,
                                rng=np.random.default_rng(0),
                                rate_range=(0.8, 1.0))
        policy = CompetitivePolicy(
            ConstantBandwidth(2.0 * per_tick), [ConstantBandwidth(100.0)],
            AreaPriority(), source_weights=StaticWeights.uniform(40),
            psi=0.5)
        result = run_policy(w, ValueDeviation(), policy,
                            RunSpec(warmup=0.0, measure=200.0))
        assert result.own_refreshes == round(per_tick * 200)
