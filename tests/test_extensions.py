"""Tests for the Sec 8.1 / Sec 10.1 extensions: trace bandwidth, batching,
online rate estimation, cost-adjusted weights."""

import numpy as np
import pytest

from repro.core.divergence import Staleness, ValueDeviation
from repro.core.objects import DataObject
from repro.core.priority import PoissonStalenessPriority
from repro.core.threshold import ThresholdTable
from repro.core.weights import CostAdjustedWeights, StaticWeights
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth, TraceBandwidth
from repro.network.messages import BatchRefreshMessage
from repro.network.topology import Topology
from repro.policies.cooperative import CooperativePolicy
from repro.source.batching import BatchingSource
from repro.source.monitor import TriggerMonitor
from repro.source.rates import EstimatedRatePriority, OnlineRateEstimator
from repro.workloads.synthetic import uniform_random_walk

from oracles import belief_priority


class TestTraceBandwidth:
    def test_step_lookup(self):
        profile = TraceBandwidth(times=[0.0, 10.0, 20.0],
                                 rates=[5.0, 0.0, 2.0])
        assert profile.rate(3.0) == 5.0
        assert profile.rate(10.0) == 0.0
        assert profile.rate(25.0) == 2.0
        assert profile.rate(-1.0) == 5.0  # clamp before first breakpoint

    def test_capacity_across_breakpoints(self):
        profile = TraceBandwidth(times=[0.0, 10.0, 20.0],
                                 rates=[5.0, 0.0, 2.0])
        assert profile.capacity(5.0, 25.0) == pytest.approx(
            5.0 * 5 + 0.0 * 10 + 2.0 * 5)

    def test_capacity_additive(self):
        profile = TraceBandwidth(times=[0.0, 7.0], rates=[3.0, 1.0])
        whole = profile.capacity(2.0, 12.0)
        split = profile.capacity(2.0, 7.0) + profile.capacity(7.0, 12.0)
        assert whole == pytest.approx(split)

    def test_mean_rate(self):
        profile = TraceBandwidth(times=[0.0, 10.0, 30.0],
                                 rates=[6.0, 3.0, 99.0])
        # The trailing rate applies forever, so it must carry weight.
        # Without a horizon it gets one mean breakpoint spacing (15):
        # (6*10 + 3*20 + 99*15) / 45.
        assert profile.mean_rate == pytest.approx(1605.0 / 45.0)

    def test_mean_rate_with_horizon(self):
        profile = TraceBandwidth(times=[0.0, 10.0, 30.0],
                                 rates=[6.0, 3.0, 99.0], horizon=40.0)
        assert profile.mean_rate == pytest.approx(
            (6.0 * 10 + 3.0 * 20 + 99.0 * 10) / 40.0)

    def test_with_outage(self):
        profile = TraceBandwidth.with_outage(8.0, 10.0, 15.0)
        assert profile.rate(12.0) == 0.0
        assert profile.rate(9.0) == 8.0
        assert profile.rate(16.0) == 8.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceBandwidth(times=[], rates=[])
        with pytest.raises(ValueError):
            TraceBandwidth(times=[0.0, 0.0], rates=[1.0, 2.0])
        with pytest.raises(ValueError):
            TraceBandwidth(times=[0.0], rates=[-1.0])
        with pytest.raises(ValueError):
            TraceBandwidth.with_outage(1.0, 5.0, 5.0)


class TestBatchingSource:
    def make(self, batch_size=3, batch_timeout=5.0, source_rate=10.0):
        topology = Topology([ConstantBandwidth(100.0)],
                            [ConstantBandwidth(source_rate)])
        objects = [DataObject(index=i, source_id=0, rate=0.5)
                   for i in range(6)]
        monitor = TriggerMonitor(PoissonStalenessPriority(),
                                 StaticWeights.uniform(6))
        source = BatchingSource(objects, 6, [monitor],
                                ThresholdTable(1, initial=0.5), topology,
                                batch_size=batch_size,
                                batch_timeout=batch_timeout)
        received = []
        topology.set_cache_receiver(received.append)
        topology.on_network_tick(1.0)
        return source, objects, topology, received

    def stale(self, source, objects, indices, now):
        metric = Staleness()
        for i in indices:
            objects[i].apply_update(now, float(i + 1), metric)
            source.on_update(objects[i], now)

    def test_holds_until_batch_full(self):
        source, objects, topo, received = self.make(batch_size=3)
        self.stale(source, objects, [0, 1], 1.0)
        assert source.staged(0) == 2
        assert received == []
        self.stale(source, objects, [2], 1.0)
        assert source.staged(0) == 0
        assert len(received) == 1
        assert isinstance(received[0], BatchRefreshMessage)
        assert len(received[0].items) == 3

    def test_timeout_flushes_partial_batch(self):
        source, objects, topo, received = self.make(batch_size=4,
                                                    batch_timeout=3.0)
        self.stale(source, objects, [0], 1.0)
        source.on_wake(0, 2.0)
        assert received == []
        topo.on_network_tick(5.0)
        source.on_wake(0, 5.0)  # 4 seconds elapsed >= timeout
        assert len(received) == 1
        assert len(received[0].items) == 1

    def test_batch_costs_one_message_unit(self):
        source, objects, topo, received = self.make(batch_size=3,
                                                    source_rate=1.0)
        topo.on_network_tick(2.0)
        self.stale(source, objects, [0, 1, 2], 2.0)
        # Only one unit of source bandwidth, but the whole batch went out.
        assert len(received) == 1
        assert len(received[0].items) == 3
        assert source.refreshes_sent[0] == 1  # one message on the wire
        assert source.items_sent == 3

    def test_threshold_rises_once_per_batch(self):
        source, objects, topo, received = self.make(batch_size=3)
        before = source.thresholds.value[0]
        self.stale(source, objects, [0, 1, 2], 1.0)
        assert source.thresholds.value[0] == pytest.approx(before * 1.1)

    def test_no_duplicate_staging(self):
        source, objects, topo, received = self.make(batch_size=4)
        metric = Staleness()
        objects[0].apply_update(1.0, 1.0, metric)
        source.on_update(objects[0], 1.0)
        objects[0].apply_update(1.5, 2.0, metric)
        source.on_update(objects[0], 1.5)
        assert source.staged(0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(batch_size=0)
        with pytest.raises(ValueError):
            self.make(batch_timeout=0.0)

    def test_cache_applies_each_item(self):
        """End-to-end through the cooperative policy with batching."""
        workload = uniform_random_walk(
            num_sources=2, objects_per_source=10, horizon=200.0,
            rng=np.random.default_rng(0))
        policy = CooperativePolicy(
            ConstantBandwidth(10.0), [ConstantBandwidth(5.0)] * 2,
            PoissonStalenessPriority(), batch_size=4, batch_timeout=3.0)
        result = run_policy(workload, Staleness(), policy,
                            RunSpec(warmup=40.0, measure=160.0))
        assert result.refreshes > 0
        items = policy.sources.items_sent
        batches = sum(policy.sources.refreshes_sent)
        assert items >= batches  # batches amortize multiple items

    def test_batching_tradeoff_visible(self):
        """Sec 10.1's trade-off: under *scarce* bandwidth batching helps
        (amortization); the delay penalty exists but is bounded."""
        def run(batch_size):
            workload = uniform_random_walk(
                num_sources=2, objects_per_source=20, horizon=400.0,
                rng=np.random.default_rng(1), rate_range=(0.3, 1.0))
            policy = CooperativePolicy(
                ConstantBandwidth(4.0), [ConstantBandwidth(4.0)] * 2,
                PoissonStalenessPriority(), batch_size=batch_size,
                batch_timeout=2.0)
            return run_policy(workload, Staleness(), policy,
                              RunSpec(warmup=100.0, measure=300.0))

        unbatched = run(1)
        batched = run(4)
        assert batched.unweighted_divergence \
            < unbatched.unweighted_divergence


class TestOnlineRateEstimator:
    def test_initial_rate_before_observations(self):
        est = OnlineRateEstimator(initial_rate=0.25)
        assert est.rate(0) == 0.25
        assert not est.observed(0)

    def test_converges_to_true_rate(self):
        rng = np.random.default_rng(0)
        est = OnlineRateEstimator(horizon=50.0)
        now = 0.0
        for _ in range(2000):
            now += rng.exponential(1.0 / 0.4)
            est.observe_update(3, now)
        assert est.rate(3) == pytest.approx(0.4, rel=0.25)

    def test_short_horizon_tracks_changes_faster(self):
        slow = OnlineRateEstimator(horizon=100.0)
        fast = OnlineRateEstimator(horizon=2.0)
        now = 0.0
        for _ in range(50):  # rate 1.0 regime
            now += 1.0
            slow.observe_update(0, now)
            fast.observe_update(0, now)
        for _ in range(10):  # rate drops to 0.1
            now += 10.0
            slow.observe_update(0, now)
            fast.observe_update(0, now)
        assert abs(fast.rate(0) - 0.1) < abs(slow.rate(0) - 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineRateEstimator(horizon=0.5)
        with pytest.raises(ValueError):
            OnlineRateEstimator(initial_rate=0.0)

    def test_estimated_priority_wraps_inner(self):
        est = OnlineRateEstimator(initial_rate=0.5)
        priority = EstimatedRatePriority(PoissonStalenessPriority(), est)
        obj = DataObject(index=0, source_id=0, rate=123.0)  # oracle unused
        obj.apply_update(1.0, 1.0, Staleness())
        assert belief_priority(priority, obj, 2.0) == pytest.approx(1.0 / 0.5)
        assert obj.rate == 123.0  # oracle rate restored after evaluation

    def test_estimated_close_to_oracle_after_warmup(self):
        """Scheduling with measured rates should approach oracle-rate
        scheduling once estimates converge (Sec 8.1)."""
        from repro.network.bandwidth import ConstantBandwidth
        from repro.policies.ideal import IdealCooperativePolicy

        def run(priority_factory):
            workload = uniform_random_walk(
                num_sources=1, objects_per_source=30, horizon=900.0,
                rng=np.random.default_rng(5), rate_range=(0.05, 1.0))
            est = OnlineRateEstimator(horizon=20.0)
            priority = priority_factory(est)
            policy = IdealCooperativePolicy(ConstantBandwidth(8.0),
                                            priority)
            # Feed the estimator from the update stream.
            from repro.policies.base import SimulationContext
            from repro.core.divergence import Staleness as S
            ctx = SimulationContext(workload, S(), warmup=400.0)
            ctx.add_update_hook(
                lambda obj, now: est.observe_update(obj.index, now))
            policy.attach(ctx)
            ctx.run(900.0)
            return ctx.collector.mean_unweighted_average()

        oracle = run(lambda est: PoissonStalenessPriority())
        estimated = run(lambda est: EstimatedRatePriority(
            PoissonStalenessPriority(), est))
        assert estimated <= oracle * 1.3 + 0.02


class TestCostAdjustedWeights:
    def test_divides_by_cost(self):
        base = StaticWeights(np.array([4.0, 4.0]))
        weights = CostAdjustedWeights(base, np.array([1.0, 2.0]))
        assert weights.weight(0, 0.0) == 4.0
        assert weights.weight(1, 0.0) == 2.0
        np.testing.assert_allclose(weights.weights(0.0), [4.0, 2.0])

    def test_validation(self):
        base = StaticWeights.uniform(2)
        with pytest.raises(ValueError):
            CostAdjustedWeights(base, np.array([1.0]))
        with pytest.raises(ValueError):
            CostAdjustedWeights(base, np.array([1.0, 0.0]))

    def test_expensive_objects_deprioritized(self):
        """Under equal divergence behavior, higher-cost objects should be
        refreshed less and end with higher divergence."""
        from repro.network.bandwidth import ConstantBandwidth
        from repro.policies.base import SimulationContext
        from repro.policies.ideal import IdealCooperativePolicy
        from repro.core.priority import AreaPriority

        workload = uniform_random_walk(
            num_sources=1, objects_per_source=20, horizon=400.0,
            rng=np.random.default_rng(2), rate_range=(0.4, 0.6))
        costs = np.ones(20)
        costs[:10] = 8.0  # first half expensive
        workload.weights = CostAdjustedWeights(StaticWeights.uniform(20),
                                               costs)
        ctx = SimulationContext(workload, ValueDeviation(), warmup=100.0)
        policy = IdealCooperativePolicy(ConstantBandwidth(3.0),
                                        AreaPriority())
        policy.attach(ctx)
        ctx.run(400.0)
        per_object = ctx.collector.per_object_weighted_average()
        unweighted = per_object * costs  # undo the 1/cost factor
        assert unweighted[:10].mean() > unweighted[10:].mean()
