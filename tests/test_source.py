"""Tests for the cooperating sources and priority monitors; most run one
source, row 0 of its tables."""

import pytest

from repro.core.divergence import ValueDeviation
from repro.core.objects import DataObject
from repro.core.priority import AreaPriority, SimpleDivergencePriority
from repro.core.threshold import ThresholdTable
from repro.core.weights import StaticWeights
from repro.network.bandwidth import ConstantBandwidth
from repro.network.messages import FeedbackMessage, RefreshMessage
from repro.network.topology import Topology
from repro.source.batching import BatchingSource
from repro.source.monitor import SamplingMonitor, TriggerMonitor
from repro.source.source import SourceNode

from oracles import belief_priority, recompute_then_drain

import numpy as np


def make_source(num_objects=3, source_rate=5.0, cache_rate=100.0,
                initial_threshold=1.0, priority_fn=None, feedback_ttl=None):
    topology = Topology([ConstantBandwidth(cache_rate)],
                        [ConstantBandwidth(source_rate)])
    objects = [DataObject(index=i, source_id=0, rate=0.5)
               for i in range(num_objects)]
    monitor = TriggerMonitor(priority_fn or SimpleDivergencePriority(),
                             StaticWeights.uniform(num_objects))
    thresholds = ThresholdTable(1, initial=initial_threshold,
                                feedback_ttl=feedback_ttl)
    source = SourceNode(objects, num_objects, [monitor], thresholds,
                        topology)
    return source, objects, topology


class TestRefreshDecisions:
    def test_refresh_sent_when_priority_exceeds_threshold(self):
        source, objects, topo = make_source()
        topo.on_network_tick(1.0)
        metric = ValueDeviation()
        objects[0].apply_update(1.0, 5.0, metric)
        source.on_update(objects[0], 1.0)
        assert source.refreshes_sent[0] == 1
        assert topo.cache_links[0].total_delivered == 1  # in-tick delivery

    def test_no_refresh_below_threshold(self):
        source, objects, topo = make_source(initial_threshold=100.0)
        topo.on_network_tick(1.0)
        objects[0].apply_update(1.0, 5.0, ValueDeviation())
        source.on_update(objects[0], 1.0)
        assert source.refreshes_sent[0] == 0

    def test_threshold_raised_after_each_refresh(self):
        source, objects, topo = make_source()
        topo.on_network_tick(1.0)
        objects[0].apply_update(1.0, 50.0, ValueDeviation())
        before = source.thresholds.value[0]
        source.on_update(objects[0], 1.0)
        assert source.thresholds.value[0] == pytest.approx(before * 1.1)

    def test_drain_sends_in_priority_order(self):
        source, objects, topo = make_source(source_rate=10.0)
        received = []
        topo.set_cache_receiver(received.append)
        topo.on_network_tick(1.0)
        metric = ValueDeviation()
        source.thresholds.value[0] = 1e9  # hold refreshes back
        for i, dv in enumerate([2.0, 9.0, 5.0]):
            objects[i].apply_update(1.0, dv, metric)
            source.on_update(objects[i], 1.0)
        source.thresholds.value[0] = 1.0
        source.on_wake(0, 1.0)
        topo.on_network_tick(2.0)
        assert [m.object_index for m in received] == [1, 2, 0]

    def test_source_bandwidth_limits_sends(self):
        source, objects, topo = make_source(source_rate=2.0)
        topo.on_network_tick(1.0)
        metric = ValueDeviation()
        for i in range(3):
            objects[i].apply_update(1.0, 10.0 + i, metric)
            source.on_update(objects[i], 1.0)
        assert source.refreshes_sent[0] == 2  # only 2 credits this tick
        topo.on_network_tick(2.0)
        source.on_wake(0, 2.0)
        assert source.refreshes_sent[0] == 3

    def test_refresh_resets_belief_and_queue(self):
        source, objects, topo = make_source()
        topo.on_network_tick(1.0)
        objects[0].apply_update(1.0, 5.0, ValueDeviation())
        source.on_update(objects[0], 1.0)
        assert objects[0].belief_divergence == 0.0
        assert source.tracker.peek(0) is None

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


class TestDrainSkipRule:
    """``SourceNode.on_update`` skips the drain only where the literal
    rule's drain (``oracles.recompute_then_drain``) would change nothing.
    Each scripted run below goes through both and must end in the same
    state; each breaks if one condition of the skip rule is dropped."""

    @staticmethod
    def script(make, events, literal):
        """Run ``events`` -- ``(time, object, value)`` updates, ``"tick"``
        and ``"wake"`` entries -- through a fresh source from ``make``;
        return the state it ends in."""
        source, objects, topo = make()
        metric = ValueDeviation()
        for time, what, value in events:
            if what == "tick":
                topo.on_network_tick(time)
            elif what == "wake":
                source.on_wake(0, time)
            else:
                obj = objects[what]
                obj.apply_update(time, value, metric)
                if literal:
                    recompute_then_drain(source, obj, time)
                else:
                    source.on_update(obj, time)
        thresholds = source.thresholds
        return (source.refreshes_sent[0], source.blocked[0],
                thresholds.value[0].hex(), thresholds.deadline[0],
                topo._credit[0].hex(), topo._tick_added[0].hex(),
                source.staged(0) if isinstance(source, BatchingSource)
                else None)

    def assert_same_as_literal(self, make, events):
        default = self.script(make, events, literal=False)
        assert default == self.script(make, events, literal=True)
        return default

    def test_update_to_a_blocked_source_mid_tick_drains(self):
        """A low-priority update lands on a source blocked earlier in the
        same tick.  Its drain sends nothing, but it accrues the source
        link's credit at that instant, which splits the accrual and
        changes the credit's bits by the next wake."""
        def make():
            return make_source(source_rate=0.65)
        blocking = [(1.0, "tick", None),
                    (1.1, 0, 5.0),   # sent
                    (1.5, 1, 5.0),   # over threshold, no credit: blocked
                    (1.9, 2, 0.5)]   # below threshold, still no credit
        assert self.script(make, blocking, literal=True)[:2] == (1, True)
        self.assert_same_as_literal(make, blocking + [
            (2.0, "tick", None), (2.0, "wake", None),
            (3.0, "tick", None), (3.0, "wake", None)])

    def test_update_at_the_ttl_deadline_drains(self):
        """The first update at or after a TTL decay deadline drains: the
        decay lowers ``T_j`` below priorities that were under it."""
        def make():
            return make_source(feedback_ttl=5.0)
        events = [(1.0, "tick", None),
                  (2.0, 0, 0.5),   # below threshold: skipped
                  (5.0, "tick", None),
                  (5.0, 1, 0.3)]   # due decay: T_j 1.0 -> 0.1
        state = self.assert_same_as_literal(make, events)
        # two sends, and one decay moved the deadline one TTL on
        assert state[0] == 2 and state[3] == 10.0

    def test_update_to_a_timed_out_partial_batch_drains(self):
        """A batching source holds a partial batch (which counts as
        blocked); an update after the batch's timeout drains, and the
        drain flushes the batch."""
        def make():
            topology = Topology([ConstantBandwidth(100.0)],
                                [ConstantBandwidth(5.0)])
            objects = [DataObject(index=i, source_id=0) for i in range(3)]
            monitor = TriggerMonitor(SimpleDivergencePriority(),
                                     StaticWeights.uniform(3))
            source = BatchingSource(objects, 3, [monitor],
                                    ThresholdTable(1, initial=1.0),
                                    topology, batch_size=4,
                                    batch_timeout=5.0)
            return source, objects, topology
        events = [(1.0, "tick", None),
                  (1.5, 0, 5.0),   # staged: a partial batch
                  (7.0, 1, 0.2)]   # below threshold, timeout passed
        state = self.assert_same_as_literal(make, events)
        # one batch message sent, nothing left staged
        assert state[0] == 1 and state[6] == 0


class TestFeedbackHandling:
    def test_feedback_lowers_threshold(self):
        source, objects, topo = make_source(initial_threshold=100.0)
        topo.on_network_tick(1.0)
        source.on_message(FeedbackMessage(source_id=0), 1.0)
        assert source.thresholds.value[0] == pytest.approx(10.0)
        assert source.thresholds.last_feedback[0] == 1.0

    def test_feedback_at_capacity_ignored(self):
        source, objects, topo = make_source(source_rate=1.0,
                                            initial_threshold=100.0)
        topo.on_network_tick(1.0)
        objects[0].apply_update(1.0, 500.0, ValueDeviation())
        source.on_update(objects[0], 1.0)  # spends the only credit
        assert topo.source_at_capacity(0)
        source.on_message(FeedbackMessage(source_id=0), 1.0)
        # 100 * 1.1 (refresh) then feedback ignored
        assert source.thresholds.value[0] == pytest.approx(110.0)

    def test_feedback_triggers_immediate_drain(self):
        source, objects, topo = make_source(initial_threshold=50.0)
        topo.on_network_tick(1.0)
        objects[0].apply_update(1.0, 20.0, ValueDeviation())
        source.on_update(objects[0], 1.0)
        assert source.refreshes_sent[0] == 0  # 20 < 50
        source.on_message(FeedbackMessage(source_id=0), 1.0)
        assert source.refreshes_sent[0] == 1  # 20 >= 5 after /omega


class TestObjectLayout:
    """A source reads its objects from the run's list by global index."""

    @staticmethod
    def build(indices):
        """Source 1 owns the second ``len(indices)`` positions of a run's
        object list, where objects carrying ``indices`` sit."""
        n = len(indices)
        topology = Topology([ConstantBandwidth(100.0)],
                            [ConstantBandwidth(5.0)] * 2)
        objects = [DataObject(index=i, source_id=0, rate=0.5)
                   for i in range(n)]
        objects += [DataObject(index=i, source_id=1, rate=0.5)
                    for i in indices]
        monitor = TriggerMonitor(SimpleDivergencePriority(),
                                 StaticWeights.uniform(8))
        source = SourceNode(objects, n, [monitor] * 2,
                            ThresholdTable(2, initial=1.0), topology)
        return source, objects[n:], topology

    def test_refresh_names_the_updated_object(self):
        source, objects, topo = self.build([3, 4, 5])
        received = []
        topo.set_cache_receiver(received.append)
        topo.on_network_tick(1.0)
        objects[2].apply_update(1.0, 5.0, ValueDeviation())
        source.on_update(objects[2], 1.0)
        assert [m.object_index for m in received] == [5]
        assert objects[2].belief_value == 5.0
        assert objects[0].belief_value == 0.0

    @pytest.mark.parametrize("indices", [[3, 5], [4, 3], [3, 3]])
    def test_non_contiguous_indices_rejected(self, indices):
        with pytest.raises(ValueError, match="contiguous"):
            self.build(indices)

    def test_feedback_tally_allocated_on_first_feedback(self):
        """Every feedback message reaches its source's row, even one the
        threshold ignores (no credit yet: the source is at capacity)."""
        source, objects, topo = make_source()
        source.on_message(FeedbackMessage(source_id=0), 1.0)
        source.on_message(FeedbackMessage(source_id=0), 2.0)
        assert source.thresholds.last_feedback[0] == 2.0
        assert source.thresholds.value[0] == 1.0


class TestSamplingMonitor:
    def make_sampling_source(self, interval=5.0, predictive=False):
        topology = Topology([ConstantBandwidth(100.0)],
                            [ConstantBandwidth(10.0)])
        objects = [DataObject(index=0, source_id=0, rate=0.5)]
        thresholds = ThresholdTable(1, initial=1.0)
        monitor = SamplingMonitor(AreaPriority(),
                                  StaticWeights.uniform(1),
                                  ValueDeviation(), interval=interval,
                                  predictive=predictive,
                                  threshold=lambda: thresholds.value[0])
        source = SourceNode(objects, 1, [monitor], thresholds, topology)
        return source, objects, topology, monitor

    def test_updates_invisible_until_sampled(self):
        source, objects, topo, monitor = self.make_sampling_source()
        topo.on_network_tick(1.0)
        objects[0].apply_update(1.0, 9.0, ValueDeviation())
        source.on_update(objects[0], 1.0)
        assert source.refreshes_sent[0] == 0  # not sampled yet
        monitor.prime(source.indices(0))
        source.on_wake(0, 5.0)  # first sample due at t >= 0
        assert monitor.samples_taken >= 1

    def test_sampled_priority_approximates_exact(self):
        source, objects, topo, monitor = self.make_sampling_source(
            interval=1.0)
        metric = ValueDeviation()
        exact = AreaPriority()
        objects[0].apply_update(0.5, 2.0, metric)
        for t in range(1, 11):
            monitor.sample(source.tracker, 0, objects[0], float(t))
        estimated = source.tracker.get(0, 0)
        truth = belief_priority(exact, objects[0], 10.0)
        assert estimated == pytest.approx(truth, rel=0.3)

    def test_predictive_scheduling_shortens_near_threshold(self):
        source, objects, topo, monitor = self.make_sampling_source(
            interval=100.0, predictive=True)
        metric = ValueDeviation()
        source.thresholds.value[0] = 1e4
        objects[0].apply_update(0.5, 1.0, metric)
        monitor.sample(source.tracker, 0, objects[0], 1.0)
        objects[0].apply_update(1.5, 2.0, metric)
        # rising divergence -> prediction
        monitor.sample(source.tracker, 0, objects[0], 2.0)
        next_due = monitor._deadlines.wake_time(0)
        assert next_due - 2.0 <= 100.0

    def test_refresh_resets_sampler_state(self):
        source, objects, topo, monitor = self.make_sampling_source(
            interval=1.0)
        topo.on_network_tick(1.0)
        metric = ValueDeviation()
        objects[0].apply_update(0.5, 50.0, metric)
        monitor.sample(source.tracker, 0, objects[0], 1.0)
        source.on_wake(0, 1.0)
        assert source.refreshes_sent[0] == 1
        assert monitor._est_integral[0] == 0.0
        assert source.tracker.peek(0) is None
