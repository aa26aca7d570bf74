"""Focused tests for the Sec 8.2.1 predictive sampling mathematics.

The paper derives the projected threshold-crossing time

    t_future = t_last + sqrt((t_now - t_last)^2
                             + 2 (T - P(O, t_now)) / (rho_i W))

for divergence growing linearly at rate ``rho_i``.  These tests verify the
algebra end-to-end: when divergence really does grow linearly, sampling an
object exactly at the predicted time must find its priority at the
threshold.
"""

import math

import numpy as np
import pytest

from repro.core.divergence import ValueDeviation
from repro.core.objects import DataObject
from repro.core.priority import AreaPriority
from repro.core.tracking import PriorityTable
from repro.core.weights import StaticWeights
from repro.source.monitor import MIN_SAMPLING_INTERVAL, SamplingMonitor

from oracles import belief_priority


def linear_divergence_object(rate: float, until: float,
                             step: float = 0.25) -> DataObject:
    """An object whose deviation grows at exactly ``rate`` per second."""
    obj = DataObject(index=0, source_id=0, value=0.0)
    metric = ValueDeviation()
    t = step
    while t <= until + 1e-9:
        obj.apply_update(t, rate * t, metric)
        t += step
    return obj


class TestProjectedCrossing:
    def test_area_priority_of_linear_divergence(self):
        """For D(t) = rho * t the area priority is rho * t^2 / 2."""
        rho = 0.8
        obj = linear_divergence_object(rho, until=10.0, step=0.01)
        priority = belief_priority(AreaPriority(), obj, 10.0)
        assert priority == pytest.approx(rho * 100.0 / 2.0, rel=0.01)

    def test_paper_formula_inverts_the_priority(self):
        """Solving the paper's t_future formula forward: the priority at
        t_future equals the threshold for linear divergence."""
        rho, weight, threshold = 0.5, 2.0, 40.0
        t_now = 6.0
        priority_now = weight * rho * t_now ** 2 / 2.0
        t_future = math.sqrt(t_now ** 2
                             + 2.0 * (threshold - priority_now)
                             / (rho * weight))
        priority_future = weight * rho * t_future ** 2 / 2.0
        assert priority_future == pytest.approx(threshold)

    def test_sampler_prediction_lands_near_threshold(self):
        """Drive a SamplingMonitor over a linearly diverging object and
        check the predicted next-sample time against the true crossing."""
        rho, threshold = 0.5, 30.0
        monitor = SamplingMonitor(
            AreaPriority(), StaticWeights.uniform(1),
            ValueDeviation(), interval=100.0, predictive=True,
            threshold=lambda: threshold)
        obj = DataObject(index=0, source_id=0, value=0.0)
        metric = ValueDeviation()
        t = 0.05
        while t <= 2.0 + 1e-9:  # divergence grows to rho * 2 by t = 2
            obj.apply_update(t, rho * t, metric)
            t += 0.05
        monitor.sample(PriorityTable(), 0, obj, 2.0)
        while t <= 4.0 + 1e-9:  # ...and to rho * 4 by t = 4
            obj.apply_update(t, rho * t, metric)
            t += 0.05
        # two samples establish the rate
        monitor.sample(PriorityTable(), 0, obj, 4.0)
        predicted = monitor._deadlines.wake_time(0)
        # True crossing: rho t^2 / 2 = threshold  =>  t = sqrt(2T/rho)
        true_crossing = math.sqrt(2.0 * threshold / rho)
        assert predicted == pytest.approx(true_crossing, rel=0.1)

    def test_prediction_clamped_to_regular_interval(self):
        """Far-from-threshold objects fall back to the regular interval."""
        monitor = SamplingMonitor(
            AreaPriority(), StaticWeights.uniform(1),
            ValueDeviation(), interval=7.0, predictive=True,
            threshold=lambda: 1e12)
        obj = linear_divergence_object(0.1, until=2.0)
        monitor.sample(PriorityTable(), 0, obj, 1.0)
        monitor.sample(PriorityTable(), 0, obj, 2.0)
        assert monitor._deadlines.wake_time(0) - 2.0 <= 7.0 + 1e-9

    def test_over_threshold_object_sampled_immediately(self):
        monitor = SamplingMonitor(
            AreaPriority(), StaticWeights.uniform(1),
            ValueDeviation(), interval=50.0, predictive=True,
            threshold=lambda: 0.001)
        obj = linear_divergence_object(1.0, until=5.0)
        monitor.sample(PriorityTable(), 0, obj, 5.0)
        assert monitor._deadlines.wake_time(0) - 5.0 == pytest.approx(
            MIN_SAMPLING_INTERVAL)

    def test_shrinking_divergence_uses_regular_interval(self):
        """Negative observed rate (divergence falling) cannot predict a
        crossing; the monitor must not crash or schedule in the past."""
        monitor = SamplingMonitor(
            AreaPriority(), StaticWeights.uniform(1),
            ValueDeviation(), interval=5.0, predictive=True,
            threshold=lambda: 100.0)
        obj = DataObject(index=0, source_id=0, value=0.0)
        metric = ValueDeviation()
        obj.apply_update(1.0, 4.0, metric)
        monitor.sample(PriorityTable(), 0, obj, 1.0)
        obj.apply_update(2.0, 1.0, metric)  # walked back toward cache
        monitor.sample(PriorityTable(), 0, obj, 2.0)
        assert monitor._deadlines.wake_time(0) - 2.0 == pytest.approx(5.0)


def make_monitor(threshold=100.0, interval=5.0, weights=None):
    return SamplingMonitor(
        AreaPriority(), weights or StaticWeights.uniform(1),
        ValueDeviation(),
        interval=interval, predictive=True,
        threshold=lambda: threshold)


def sample_linear(monitor, rho, sample_times, step=0.01):
    """Walk an object's divergence up at ``rho``/s, sampling along the way
    (two samples give the monitor a nonzero rate estimate)."""
    obj = DataObject(index=0, source_id=0, value=0.0)
    metric = ValueDeviation()
    t = step
    for when in sample_times:
        while t <= when + 1e-9:
            obj.apply_update(t, rho * t, metric)
            t += step
        monitor.sample(PriorityTable(), 0, obj, when)
    return obj


class TestPredictiveFallbacks:
    """The `_next_delay` guard rails: every code path must land the next
    sample inside [MIN_SAMPLING_INTERVAL, interval] and never schedule
    into the
    past, whatever the estimator state looks like."""

    def test_zero_rate_uses_regular_interval(self):
        """rho == 0 (divergence unchanged between samples) cannot project
        a crossing; the regular interval applies."""
        monitor = make_monitor(interval=5.0)
        obj = DataObject(index=0, source_id=0, value=0.0)
        metric = ValueDeviation()
        obj.apply_update(1.0, 3.0, metric)
        monitor.sample(PriorityTable(), 0, obj, 1.0)
        # same divergence: rho == 0
        monitor.sample(PriorityTable(), 0, obj, 2.0)
        assert monitor._deadlines.wake_time(0) - 2.0 == pytest.approx(5.0)

    def test_zero_weight_uses_regular_interval(self):
        """weight <= 0 makes the projection formula singular; fall back."""
        monitor = make_monitor(interval=6.0,
                               weights=StaticWeights(np.zeros(1)))
        sample_linear(monitor, 0.5, [1.0, 2.0])
        assert monitor._deadlines.wake_time(0) - 2.0 == pytest.approx(6.0)

    def test_repeated_sample_at_same_instant_uses_regular_interval(self):
        """elapsed_since_last == 0 would divide by zero estimating rho."""
        monitor = make_monitor(interval=4.0)
        obj = linear_divergence_object(0.5, until=2.0)
        monitor.sample(PriorityTable(), 0, obj, 2.0)
        monitor.sample(PriorityTable(), 0, obj, 2.0)
        assert monitor._deadlines.wake_time(0) - 2.0 == pytest.approx(4.0)

    def test_imminent_crossing_clamped_to_min_interval(self):
        """A projection closer than MIN_SAMPLING_INTERVAL clamps up to it
        (the lower edge of the [MIN_SAMPLING_INTERVAL, interval] clamp)."""
        rho = 2.0
        monitor = make_monitor(threshold=4.2, interval=50.0)
        sample_linear(monitor, rho, [1.0, 2.0])
        # Priority at t=2 is ~rho*t^2/2 = 4; crossing t=sqrt(4.2)~2.05,
        # i.e. 0.05s away -- far below the minimum interval.
        assert monitor._deadlines.wake_time(0) - 2.0 == pytest.approx(
            MIN_SAMPLING_INTERVAL)

    def test_far_crossing_clamped_to_interval(self):
        """A projection beyond the regular interval clamps down to it
        (the upper edge of the clamp)."""
        monitor = make_monitor(threshold=1e9, interval=8.0)
        sample_linear(monitor, 0.1, [1.0, 2.0])
        assert monitor._deadlines.wake_time(0) - 2.0 == pytest.approx(8.0)

    def test_radicand_guard_returns_min_interval(self):
        """The negative-radicand branch is defensive (with one threshold
        evaluation per call, priority < T forces a positive radicand) but
        must fail safe: sample soon, never crash or schedule backwards."""
        monitor = make_monitor(threshold=10.0, interval=20.0)
        obj = linear_divergence_object(0.5, until=4.0)
        delay = monitor._next_delay(obj, priority=5.0, divergence=2.0,
                                    last_t=2.0, last_d=-1e9, now=4.0,
                                    weight=-0.0)
        assert delay == pytest.approx(20.0)  # weight <= 0 guard first
        # Every randomized estimator state stays inside the clamp.
        rng = np.random.default_rng(0)
        for _ in range(200):
            priority = float(rng.uniform(-5.0, 9.999))
            divergence = float(rng.uniform(0.0, 10.0))
            last_d = float(rng.uniform(-10.0, divergence))
            last_t = float(rng.uniform(0.0, 4.0))
            weight = float(rng.uniform(0.0, 3.0))
            delay = monitor._next_delay(
                obj, priority=priority, divergence=divergence,
                last_t=last_t, last_d=last_d, now=4.0, weight=weight)
            assert MIN_SAMPLING_INTERVAL <= delay <= 20.0

    def test_next_delay_feeds_the_wakeup_deadlines(self):
        """The predictive schedule and the event-driven deadline heap
        must agree: next_wake_time tracks the earliest deadline."""
        monitor = make_monitor(threshold=30.0, interval=9.0)
        obj = linear_divergence_object(0.5, until=2.0)
        monitor.prime([obj.index])
        assert monitor.next_wake_time() == pytest.approx(0.0)
        monitor.sample(PriorityTable(), 0, obj, 2.0)
        assert monitor.next_wake_time() == pytest.approx(
            monitor._deadlines.wake_time(0))
