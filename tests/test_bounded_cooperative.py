"""The Sec 9 bound-minimizing priority through the *practical* protocol.

The paper notes "the threshold-based algorithm from Section 5 for
coordinating refreshes from multiple sources can be used in conjunction
with this priority policy"; these tests exercise exactly that composition
(time-varying priority + trigger monitors, which re-evaluate every object
at each dispatcher fire).
"""

import numpy as np

from repro.core.divergence import ValueDeviation
from repro.core.priority import DivergenceBoundPriority
from repro.experiments.runner import RunSpec
from repro.network.bandwidth import ConstantBandwidth
from repro.policies.base import SimulationContext
from repro.policies.bounded import BoundMeter, assign_max_rates
from repro.policies.cooperative import CooperativePolicy
from repro.workloads.synthetic import uniform_random_walk


def run_bounded_cooperative(seed=0, bandwidth=6.0):
    workload = uniform_random_walk(
        num_sources=3, objects_per_source=10, horizon=400.0,
        rng=np.random.default_rng(seed), rate_range=(0.05, 0.8))
    ctx = SimulationContext(workload, ValueDeviation(), warmup=100.0)
    max_rates = np.asarray(workload.rates)
    assign_max_rates(ctx.objects, max_rates)
    meter = BoundMeter(max_rates, np.full(30, 0.5), warmup=100.0)
    policy = CooperativePolicy(
        ConstantBandwidth(bandwidth), [ConstantBandwidth(4.0)] * 3,
        DivergenceBoundPriority())
    policy.attach(ctx)
    policy.cache.add_refresh_hook(meter.on_refresh)
    counts = np.zeros(workload.num_objects, dtype=np.int64)

    def count(obj, now):
        counts[obj.index] += 1

    policy.cache.add_refresh_hook(count)
    ctx.run(400.0)
    meter.finalize(400.0)
    return meter, policy, ctx, counts


class TestBoundedThroughThresholdProtocol:
    def test_refreshes_flow_despite_zero_divergence_priority(self):
        """The bound priority must drive refreshes even for objects whose
        values never actually changed (their *bound* still grows)."""
        meter, policy, ctx, _ = run_bounded_cooperative()
        assert policy.refreshes() > 50

    def test_synchronized_objects_reenter_the_queue(self):
        """After a refresh, the object's bound priority regrows and the
        per-tick re-evaluation must put it back in the queue."""
        meter, policy, ctx, counts = run_bounded_cooperative()
        refreshed_more_than_once = sum(1 for count in counts if count >= 2)
        assert refreshed_more_than_once > 10

    def test_more_bandwidth_lowers_average_bound(self):
        low, _, _, _ = run_bounded_cooperative(seed=1, bandwidth=3.0)
        high, _, _, _ = run_bounded_cooperative(seed=1, bandwidth=12.0)
        assert high.average_bound(400.0) < low.average_bound(400.0)

    def test_high_max_rate_objects_refreshed_more(self):
        """The bound priority R (t - t_last)^2 / 2 allocates more
        refreshes to objects with larger known max rates."""
        meter, policy, ctx, counts = run_bounded_cooperative(seed=2)
        rates = np.asarray(ctx.workload.rates)
        fast = rates > np.median(rates)
        assert counts[fast].mean() > counts[~fast].mean()
