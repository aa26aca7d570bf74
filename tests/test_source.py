"""Tests for the cooperating source node and priority monitors."""

import pytest

from repro.core.divergence import ValueDeviation
from repro.core.objects import DataObject
from repro.core.priority import AreaPriority, SimpleDivergencePriority
from repro.core.threshold import ThresholdController
from repro.core.tracking import PriorityTracker
from repro.core.weights import StaticWeights
from repro.network.bandwidth import ConstantBandwidth
from repro.network.messages import FeedbackMessage, RefreshMessage
from repro.network.topology import Topology
from repro.source.monitor import SamplingMonitor, TriggerMonitor
from repro.source.source import SourceNode

import numpy as np


def make_source(num_objects=3, source_rate=5.0, cache_rate=100.0,
                initial_threshold=1.0, priority_fn=None):
    topology = Topology([ConstantBandwidth(cache_rate)],
                        [ConstantBandwidth(source_rate)])
    objects = [DataObject(index=i, source_id=0, rate=0.5)
               for i in range(num_objects)]
    tracker = PriorityTracker()
    monitor = TriggerMonitor(tracker,
                             priority_fn or SimpleDivergencePriority(),
                             StaticWeights.uniform(num_objects))
    threshold = ThresholdController(initial=initial_threshold)
    source = SourceNode(0, objects, monitor, threshold, topology)
    return source, objects, topology


class TestRefreshDecisions:
    def test_refresh_sent_when_priority_exceeds_threshold(self):
        source, objects, topo = make_source()
        topo.on_network_tick(1.0)
        metric = ValueDeviation()
        objects[0].apply_update(1.0, 5.0, metric)
        source.on_update(objects[0], 1.0)
        assert source.refreshes_sent == 1
        assert topo.cache_links[0].total_delivered == 1  # in-tick delivery

    def test_no_refresh_below_threshold(self):
        source, objects, topo = make_source(initial_threshold=100.0)
        topo.on_network_tick(1.0)
        objects[0].apply_update(1.0, 5.0, ValueDeviation())
        source.on_update(objects[0], 1.0)
        assert source.refreshes_sent == 0

    def test_threshold_raised_after_each_refresh(self):
        source, objects, topo = make_source()
        topo.on_network_tick(1.0)
        objects[0].apply_update(1.0, 50.0, ValueDeviation())
        before = source.threshold.value
        source.on_update(objects[0], 1.0)
        assert source.threshold.value == pytest.approx(before * 1.1)

    def test_drain_sends_in_priority_order(self):
        source, objects, topo = make_source(source_rate=10.0)
        received = []
        topo.set_cache_receiver(received.append)
        topo.on_network_tick(1.0)
        metric = ValueDeviation()
        source.threshold.value = 1e9  # hold refreshes back
        for i, dv in enumerate([2.0, 9.0, 5.0]):
            objects[i].apply_update(1.0, dv, metric)
            source.on_update(objects[i], 1.0)
        source.threshold.value = 1.0
        source.on_tick(1.0)
        topo.on_network_tick(2.0)
        assert [m.object_index for m in received] == [1, 2, 0]

    def test_source_bandwidth_limits_sends(self):
        source, objects, topo = make_source(source_rate=2.0)
        topo.on_network_tick(1.0)
        metric = ValueDeviation()
        for i in range(3):
            objects[i].apply_update(1.0, 10.0 + i, metric)
            source.on_update(objects[i], 1.0)
        assert source.refreshes_sent == 2  # only 2 credits this tick
        topo.on_network_tick(2.0)
        source.on_tick(2.0)
        assert source.refreshes_sent == 3

    def test_refresh_resets_belief_and_queue(self):
        source, objects, topo = make_source()
        topo.on_network_tick(1.0)
        objects[0].apply_update(1.0, 5.0, ValueDeviation())
        source.on_update(objects[0], 1.0)
        assert objects[0].belief.divergence == 0.0
        assert source.monitor.tracker.peek() is None

    def test_refresh_message_carries_snapshot_and_threshold(self):
        source, objects, topo = make_source()
        received = []
        topo.set_cache_receiver(received.append)
        topo.on_network_tick(1.0)
        objects[0].apply_update(1.0, 5.0, ValueDeviation())
        source.on_update(objects[0], 1.0)
        topo.on_network_tick(2.0)
        (message,) = received
        assert isinstance(message, RefreshMessage)
        assert message.value == 5.0
        assert message.update_count == 1
        # Threshold piggybacked *at send time* (before the alpha increase
        # applies it is the pre-send value; either is within one factor).
        assert message.threshold > 0


class TestFeedbackHandling:
    def test_feedback_lowers_threshold(self):
        source, objects, topo = make_source(initial_threshold=100.0)
        topo.on_network_tick(1.0)
        source.on_message(FeedbackMessage(source_id=0), 1.0)
        assert source.threshold.value == pytest.approx(10.0)
        assert source.feedback_received == 1

    def test_feedback_at_capacity_ignored(self):
        source, objects, topo = make_source(source_rate=1.0,
                                            initial_threshold=100.0)
        topo.on_network_tick(1.0)
        objects[0].apply_update(1.0, 500.0, ValueDeviation())
        source.on_update(objects[0], 1.0)  # spends the only credit
        assert topo.source_at_capacity(0)
        source.on_message(FeedbackMessage(source_id=0), 1.0)
        # 100 * 1.1 (refresh) then feedback ignored
        assert source.threshold.value == pytest.approx(110.0)

    def test_feedback_triggers_immediate_drain(self):
        source, objects, topo = make_source(initial_threshold=50.0)
        topo.on_network_tick(1.0)
        objects[0].apply_update(1.0, 20.0, ValueDeviation())
        source.on_update(objects[0], 1.0)
        assert source.refreshes_sent == 0  # 20 < 50
        source.on_message(FeedbackMessage(source_id=0), 1.0)
        assert source.refreshes_sent == 1  # 20 >= 5 after /omega


class TestObjectLayout:
    """A source finds its objects by offset from its first index."""

    @staticmethod
    def build(indices, source_id=1):
        topology = Topology([ConstantBandwidth(100.0)],
                            [ConstantBandwidth(5.0)] * 2)
        objects = [DataObject(index=i, source_id=source_id, rate=0.5)
                   for i in indices]
        monitor = TriggerMonitor(PriorityTracker(),
                                 SimpleDivergencePriority(),
                                 StaticWeights.uniform(8))
        source = SourceNode(source_id, objects, monitor,
                            ThresholdController(initial=1.0), topology)
        return source, objects, topology

    def test_refresh_names_the_updated_object(self):
        source, objects, topo = self.build([3, 4, 5])
        received = []
        topo.set_cache_receiver(received.append)
        topo.on_network_tick(1.0)
        objects[2].apply_update(1.0, 5.0, ValueDeviation())
        source.on_update(objects[2], 1.0)
        assert [m.object_index for m in received] == [5]
        assert objects[2].belief.reference_value == 5.0
        assert objects[0].belief.reference_value == 0.0

    @pytest.mark.parametrize("indices", [[3, 5], [4, 3], [3, 3]])
    def test_non_contiguous_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="contiguous"):
            self.build(indices)

    def test_feedback_tally_allocated_on_first_feedback(self):
        source, objects, topo = make_source()
        assert source.feedback_by_cache is None
        source.on_message(FeedbackMessage(source_id=0), 1.0)
        source.on_message(FeedbackMessage(source_id=0), 2.0)
        assert source.feedback_by_cache == {0: 2}


class TestSamplingMonitor:
    def make_sampling_source(self, interval=5.0, predictive=False):
        topology = Topology([ConstantBandwidth(100.0)],
                            [ConstantBandwidth(10.0)])
        objects = [DataObject(index=0, source_id=0, rate=0.5)]
        tracker = PriorityTracker()
        threshold = ThresholdController(initial=1.0)
        monitor = SamplingMonitor(tracker, AreaPriority(),
                                  StaticWeights.uniform(1),
                                  ValueDeviation(), interval=interval,
                                  predictive=predictive,
                                  threshold=lambda: threshold.value)
        source = SourceNode(0, objects, monitor, threshold, topology)
        return source, objects, topology, monitor

    def test_updates_invisible_until_sampled(self):
        source, objects, topo, monitor = self.make_sampling_source()
        topo.on_network_tick(1.0)
        objects[0].apply_update(1.0, 9.0, ValueDeviation())
        source.on_update(objects[0], 1.0)
        assert source.refreshes_sent == 0  # not sampled yet
        source.on_tick(5.0)  # first sample due at t >= 0
        assert monitor.samples_taken >= 1

    def test_sampled_priority_approximates_exact(self):
        source, objects, topo, monitor = self.make_sampling_source(
            interval=1.0)
        metric = ValueDeviation()
        exact = AreaPriority()
        objects[0].apply_update(0.5, 2.0, metric)
        for t in range(1, 11):
            monitor.sample(objects[0], float(t))
        estimated = monitor.tracker.get(0)
        truth = exact.unweighted(objects[0], 10.0)
        assert estimated == pytest.approx(truth, rel=0.3)

    def test_predictive_scheduling_shortens_near_threshold(self):
        source, objects, topo, monitor = self.make_sampling_source(
            interval=100.0, predictive=True)
        metric = ValueDeviation()
        source.threshold.value = 1e4
        objects[0].apply_update(0.5, 1.0, metric)
        monitor.sample(objects[0], 1.0)
        objects[0].apply_update(1.5, 2.0, metric)
        monitor.sample(objects[0], 2.0)  # rising divergence -> prediction
        next_due = monitor._next_sample[0]
        assert next_due - 2.0 <= 100.0

    def test_refresh_resets_sampler_state(self):
        source, objects, topo, monitor = self.make_sampling_source(
            interval=1.0)
        topo.on_network_tick(1.0)
        metric = ValueDeviation()
        objects[0].apply_update(0.5, 50.0, metric)
        monitor.sample(objects[0], 1.0)
        source.on_tick(1.0)
        assert source.refreshes_sent == 1
        assert monitor._est_integral[0] == 0.0
        assert monitor.tracker.peek() is None
