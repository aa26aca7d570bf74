"""Tests for divergence bounding (paper Sec 9)."""

import numpy as np
import pytest

from repro.core.divergence import ValueDeviation
from repro.core.objects import DataObject
from repro.core.priority import AreaPriority, DivergenceBoundPriority
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth
from repro.policies.base import SimulationContext
from repro.policies.bounded import BoundMeter, assign_max_rates
from repro.policies.ideal import IdealCooperativePolicy
from repro.workloads.synthetic import uniform_random_walk


class TestBoundMeter:
    def test_single_segment_integral(self):
        meter = BoundMeter(max_rates=np.array([2.0]),
                           latencies=np.array([0.5]))
        obj = DataObject(index=0, source_id=0)
        meter.on_refresh(obj, 4.0)  # segment [0, 4]: R=2, L=0.5
        meter.finalize(4.0)
        # integral = 2 * (16/2 + 0.5*4) = 20; average over 4s = 5; /1 obj
        assert meter.average_bound(4.0) == pytest.approx(5.0)

    def test_multiple_segments(self):
        meter = BoundMeter(max_rates=np.array([1.0]),
                           latencies=np.array([0.0]))
        obj = DataObject(index=0, source_id=0)
        meter.on_refresh(obj, 2.0)  # [0,2]: integral 2
        meter.on_refresh(obj, 6.0)  # [2,6]: integral 8
        meter.finalize(8.0)  # [6,8]: integral 2
        assert meter.average_bound(8.0) == pytest.approx(12.0 / 8.0)

    def test_warmup_straddling_segment(self):
        meter = BoundMeter(max_rates=np.array([1.0]),
                           latencies=np.array([0.0]), warmup=3.0)
        obj = DataObject(index=0, source_id=0)
        meter.on_refresh(obj, 5.0)  # counted part: ages 3..5
        meter.finalize(5.0)
        assert meter.average_bound(5.0) == pytest.approx(
            (5.0 ** 2 / 2 - 3.0 ** 2 / 2) / 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundMeter(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            BoundMeter(np.array([-1.0]), np.array([0.0]))


class TestAssignMaxRates:
    def test_assignment(self):
        objects = [DataObject(index=i, source_id=0) for i in range(3)]
        assign_max_rates(objects, np.array([1.0, 2.0, 3.0]))
        assert [o.max_rate for o in objects] == [1.0, 2.0, 3.0]

    def test_length_mismatch(self):
        objects = [DataObject(index=0, source_id=0)]
        with pytest.raises(ValueError):
            assign_max_rates(objects, np.array([1.0, 2.0]))


class TestBoundMinimizingPolicy:
    def run_with_priority(self, priority_fn, seed=0):
        """Run the ideal scheduler with a priority function and measure
        both the average bound and the actual divergence."""
        workload = uniform_random_walk(
            num_sources=1, objects_per_source=20, horizon=400.0,
            rng=np.random.default_rng(seed), rate_range=(0.05, 1.0))
        ctx = SimulationContext(workload, ValueDeviation(), warmup=100.0)
        max_rates = workload.rates  # walk steps are +-1 per update
        assign_max_rates(ctx.objects, max_rates)
        meter = BoundMeter(max_rates, np.zeros(20), warmup=100.0)
        policy = IdealCooperativePolicy(ConstantBandwidth(4.0), priority_fn)
        policy.attach(ctx)
        policy.refresh_hooks.append(meter.on_refresh)
        ctx.run(400.0)
        meter.finalize(400.0)
        return (meter.average_bound(400.0),
                ctx.collector.mean_unweighted_average())

    def test_bound_priority_minimizes_bound(self):
        """The Sec 9 priority must beat actual-divergence prioritization
        on the bound objective (that is what it optimizes)."""
        bound_obj, _ = self.run_with_priority(DivergenceBoundPriority())
        area_obj, _ = self.run_with_priority(AreaPriority())
        assert bound_obj < area_obj

    def test_area_priority_better_on_actual_divergence(self):
        """And vice versa: optimizing the bound costs some actual
        divergence -- the trade-off the paper highlights."""
        _, bound_actual = self.run_with_priority(DivergenceBoundPriority())
        _, area_actual = self.run_with_priority(AreaPriority())
        assert area_actual <= bound_actual * 1.1

    def test_guarantee_holds_pointwise(self):
        """The Sec 9 guarantee itself: the actual divergence never exceeds
        ``B(O, t) = R_i ((t - t_last) + L)`` at any update instant.

        Bernoulli arrivals make at most one +-1 step per second, so
        ``R_i = 1`` per second with ``L = 1`` tick of granularity (a step
        can land the same instant a refresh completes, which is exactly
        the latency allowance ``L`` exists for)."""
        workload = uniform_random_walk(
            num_sources=1, objects_per_source=15, horizon=300.0,
            rng=np.random.default_rng(3), rate_range=(0.1, 1.0),
            arrivals="bernoulli")
        ctx = SimulationContext(workload, ValueDeviation())
        max_rates = np.ones(15)  # 1 value-unit per second, worst case
        assign_max_rates(ctx.objects, max_rates)
        policy = IdealCooperativePolicy(ConstantBandwidth(3.0),
                                        DivergenceBoundPriority())
        policy.attach(ctx)
        latency_allowance = 1.0
        violations = []

        def check(obj, now):
            elapsed = now - obj.belief_refresh_time
            bound = obj.max_rate * (elapsed + latency_allowance)
            if obj.truth_divergence > bound + 1e-9:
                violations.append((obj.index, now))

        ctx.add_update_hook(check)
        ctx.run(300.0)
        assert violations == []

    def test_bound_priority_refreshes_periodically(self):
        """Bound priority ignores actual updates entirely: even objects
        that never change get refreshed (their bound still grows)."""
        workload = uniform_random_walk(
            num_sources=1, objects_per_source=5, horizon=100.0,
            rng=np.random.default_rng(1), rate_range=(0.0, 0.001))
        ctx = SimulationContext(workload, ValueDeviation())
        assign_max_rates(ctx.objects, np.ones(5))
        policy = IdealCooperativePolicy(ConstantBandwidth(2.0),
                                        DivergenceBoundPriority())
        policy.attach(ctx)
        ctx.run(100.0)
        assert policy.refreshes() > 100
