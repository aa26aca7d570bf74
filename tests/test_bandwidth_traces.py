"""Tests for the network-condition trace generators (E11 inputs)."""

import numpy as np
import pytest

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import TraceBandwidth
from repro.policies.cooperative import CooperativePolicy
from repro.workloads.bandwidth_traces import (
    SCENARIOS,
    diurnal_trace,
    heterogeneous_traces,
    random_walk_rates_batch,
    random_walk_trace,
    scenario_profile,
    with_bursts,
    with_outages,
)
from repro.workloads.synthetic import uniform_random_walk

from oracles import random_walk_rates


class TestDiurnalTrace:
    def test_mean_rate_matches_request(self):
        trace = diurnal_trace(10.0, 600.0, num_breakpoints=200)
        assert trace.mean_rate == pytest.approx(10.0, rel=1e-3)

    def test_amplitude_bounds(self):
        trace = diurnal_trace(10.0, 600.0, amplitude=0.6)
        assert trace.rates.min() >= 10.0 * 0.4 - 1e-9
        assert trace.rates.max() <= 10.0 * 1.6 + 1e-9

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            diurnal_trace(10.0, 600.0, jitter=0.1)

    def test_jittered_is_seeded(self):
        a = diurnal_trace(10.0, 600.0, rng=np.random.default_rng(3),
                          jitter=0.1)
        b = diurnal_trace(10.0, 600.0, rng=np.random.default_rng(3),
                          jitter=0.1)
        assert np.array_equal(a.rates, b.rates)

    def test_validation(self):
        with pytest.raises(ValueError):
            diurnal_trace(0.0, 600.0)
        with pytest.raises(ValueError):
            diurnal_trace(10.0, -1.0)
        with pytest.raises(ValueError):
            diurnal_trace(10.0, 600.0, num_breakpoints=0)
        with pytest.raises(ValueError):
            diurnal_trace(10.0, 600.0, amplitude=1.0)


class TestRandomWalkRates:
    def test_batch_matches_legacy_bitwise(self):
        """The bulk draw consumes the generator stream exactly as the
        per-call reference loop of tests/oracles.py does."""
        for seed in (0, 7, 123):
            legacy = random_walk_rates(
                257, np.random.default_rng(seed), 5.0)
            batch = random_walk_rates_batch(
                257, np.random.default_rng(seed), 5.0)
            assert np.array_equal(legacy, batch)

    def test_bounds_respected(self):
        rates = random_walk_rates_batch(
            1000, np.random.default_rng(1), 4.0, step_frac=0.5,
            lo_frac=0.25, hi_frac=2.0)
        assert rates.min() >= 1.0 - 1e-12
        assert rates.max() <= 8.0 + 1e-12

    def test_starts_at_mean(self):
        rates = random_walk_rates_batch(10, np.random.default_rng(2), 3.0)
        assert rates[0] == 3.0

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_walk_rates_batch(0, rng, 1.0)
        with pytest.raises(ValueError):
            random_walk_rates_batch(5, rng, -1.0)
        with pytest.raises(ValueError):
            random_walk_rates_batch(5, rng, 1.0, step_frac=0.0)
        with pytest.raises(ValueError):
            random_walk_rates_batch(5, rng, 1.0, lo_frac=2.0, hi_frac=1.0)
        with pytest.raises(ValueError):
            random_walk_trace(1.0, 0.0, 5, rng)


class TestWindows:
    def base(self):
        return diurnal_trace(8.0, 100.0, num_breakpoints=20)

    def test_outage_zeroes_window(self):
        trace = with_outages(self.base(), [(30.0, 50.0)])
        assert trace.rate(30.0) == 0.0
        assert trace.rate(49.9) == 0.0
        assert trace.rate(29.9) > 0.0
        assert trace.rate(50.0) > 0.0
        assert trace.capacity(30.0, 50.0) == 0.0

    def test_burst_scales_window(self):
        base = self.base()
        burst = with_bursts(base, [(20.0, 40.0)], 0.5)
        assert burst.capacity(20.0, 40.0) == pytest.approx(
            base.capacity(20.0, 40.0) * 0.5)
        assert burst.capacity(50.0, 90.0) == pytest.approx(
            base.capacity(50.0, 90.0))

    def test_windows_validate(self):
        base = self.base()
        with pytest.raises(ValueError, match="empty"):
            with_outages(base, [(10.0, 10.0)])
        with pytest.raises(ValueError, match="overlap"):
            with_outages(base, [(10.0, 30.0), (20.0, 40.0)])
        with pytest.raises(ValueError, match="past trace end"):
            with_outages(base, [(90.0, 120.0)])
        with pytest.raises(ValueError, match="factor"):
            with_bursts(base, [(10.0, 20.0)], -1.0)


class TestHeterogeneousTraces:
    def test_per_link_seeding_is_stable(self):
        """Adding links must never reshuffle earlier links' traces."""
        four = heterogeneous_traces(4, 5.0, 200.0, seed=9)
        eight = heterogeneous_traces(8, 5.0, 200.0, seed=9)
        for a, b in zip(four, eight[:4]):
            assert np.array_equal(a.rates, b.rates)

    def test_links_differ(self):
        traces = heterogeneous_traces(3, 5.0, 200.0, seed=9)
        assert not np.array_equal(traces[0].rates, traces[1].rates)

    def test_diurnal_kind_rotates_phase(self):
        traces = heterogeneous_traces(4, 5.0, 200.0, seed=9,
                                      kind="diurnal")
        assert all(t.mean_rate == pytest.approx(5.0, rel=0.2)
                   for t in traces)
        assert not np.array_equal(traces[0].rates, traces[2].rates)

    def test_validation(self):
        with pytest.raises(ValueError):
            heterogeneous_traces(0, 5.0, 200.0, seed=1)
        with pytest.raises(ValueError):
            heterogeneous_traces(2, 5.0, 200.0, seed=1, kind="nope")


class TestScenarioProfile:
    def test_all_scenarios_build(self):
        for kind in SCENARIOS:
            trace = scenario_profile(kind, 10.0, 600.0)
            assert isinstance(trace, TraceBandwidth)
            assert trace.horizon == 600.0

    def test_steady_is_flat(self):
        trace = scenario_profile("steady", 10.0, 600.0)
        assert trace.steady_rate == 10.0

    def test_outage_severs_window(self):
        trace = scenario_profile("outage", 10.0, 600.0)
        assert trace.capacity(0.55 * 600.0, 0.70 * 600.0) == 0.0
        assert trace.rate(0.5 * 600.0) > 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_profile("foggy", 10.0, 600.0)


class TestOutageEndToEnd:
    def test_queue_drains_after_recovery(self):
        """A severed cache link stalls refreshes; after recovery the
        backlog drains and divergence comes back down."""
        rng = np.random.default_rng(0)
        workload = uniform_random_walk(num_sources=4,
                                       objects_per_source=4,
                                       horizon=200.0, rng=rng)

        def run(cache_profile):
            policy = CooperativePolicy(
                cache_profile,
                [TraceBandwidth([0.0], [4.0], horizon=200.0)
                 for _ in range(4)],
                priority_fn=AreaPriority())
            return run_policy(workload, ValueDeviation(), policy,
                              RunSpec(warmup=50.0, measure=150.0))

        healthy = run(TraceBandwidth([0.0], [10.0], horizon=200.0))
        cut = run(TraceBandwidth.with_outage(10.0, 100.0, 140.0,
                                             horizon=200.0))
        assert cut.refreshes > 0  # traffic resumes after the blackout
        assert cut.refreshes < healthy.refreshes
        assert cut.weighted_divergence > healthy.weighted_divergence
