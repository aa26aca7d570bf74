"""Tests for the cache node, store and positive-feedback controller."""

import numpy as np
import pytest

from repro.cache.cache import CacheNode
from repro.cache.feedback import FeedbackController
from repro.cache.store import CacheStore
from repro.core.divergence import ValueDeviation
from repro.core.objects import DataObject
from repro.core.weights import StaticWeights
from repro.metrics.collector import DivergenceCollector
from repro.network.bandwidth import ConstantBandwidth
from repro.network.messages import PollResponse, RefreshMessage
from repro.network.topology import Topology
from repro.sim.engine import Simulator


def make_cache(num_sources=3, cache_rate=10.0, with_feedback=True):
    topology = Topology([ConstantBandwidth(cache_rate)],
                        [ConstantBandwidth(5.0)] * num_sources)
    objects = [DataObject(index=i, source_id=i % num_sources)
               for i in range(num_sources)]
    collector = DivergenceCollector(len(objects),
                                    StaticWeights.uniform(len(objects)))
    feedback = (FeedbackController(topology, omega=10.0)
                if with_feedback else None)
    clock = Simulator()
    cache = CacheNode(objects, ValueDeviation(), topology,
                      collector=collector, feedback=feedback,
                      store=CacheStore(len(objects)), sim=clock)
    return cache, objects, topology, feedback, clock


class TestCacheStore:
    def test_apply_and_read(self):
        store = CacheStore(3)
        store.apply(1, 7.5, now=4.0)
        assert store.read(1) == 7.5
        assert store.age(1, 10.0) == pytest.approx(6.0)

    def test_initial_values(self):
        store = CacheStore(2, initial_values=np.array([1.0, 2.0]))
        assert store.read(0) == 1.0

    def test_wrong_initial_length_rejected(self):
        with pytest.raises(ValueError):
            CacheStore(2, initial_values=np.array([1.0]))


class TestRefreshApplication:
    def test_refresh_updates_truth_and_store(self):
        cache, objects, topo, _, clock = make_cache()
        objects[0].apply_update(1.0, 5.0, ValueDeviation())
        clock.now = 2.0
        cache.on_message(RefreshMessage(source_id=0, object_index=0,
                                        value=5.0, update_count=1,
                                        threshold=3.0))
        assert objects[0].truth_divergence == 0.0
        assert cache.store.read(0) == 5.0
        assert cache.refreshes_applied == 1

    def test_refresh_observes_piggybacked_threshold(self):
        cache, objects, topo, feedback, clock = make_cache()
        cache.on_message(RefreshMessage(source_id=1, object_index=1,
                                        value=0.0, threshold=42.0))
        assert feedback.known_thresholds[1] == 42.0

    def test_poll_response_routed_to_handler(self):
        cache, objects, topo, _, clock = make_cache()
        seen = []
        cache.set_poll_handler(lambda msg, now: seen.append(msg))
        cache.on_message(PollResponse(source_id=0, object_index=0))
        assert len(seen) == 1
        assert cache.poll_responses == 1


class TestFeedbackController:
    def test_surplus_spent_on_feedback(self):
        cache, objects, topo, feedback, clock = make_cache(cache_rate=5.0)
        received = []
        for j in range(3):
            topo.set_source_receiver(j, received.append)
        topo.on_network_tick(1.0)
        cache.on_tick(1.0)
        # 5 credits, no refresh traffic, 3 sources -> all 3 get feedback
        assert feedback.feedback_sent == 3
        assert len(received) == 3

    def test_no_feedback_when_backlogged(self):
        cache, objects, topo, feedback, clock = make_cache(cache_rate=1.0)
        for _ in range(5):
            topo.cache_links[0].enqueue(RefreshMessage(source_id=0,
                                                       object_index=0))
        topo.on_network_tick(1.0)
        cache.on_tick(1.0)
        assert feedback.feedback_sent == 0

    def test_highest_thresholds_selected_first(self):
        cache, objects, topo, feedback, clock = make_cache(cache_rate=1.0)
        received = {j: [] for j in range(3)}
        for j in range(3):
            topo.set_source_receiver(
                j, lambda m, j=j: received[j].append(m))
        for j, threshold in enumerate([5.0, 50.0, 0.5]):
            feedback.observe_threshold(j, threshold)
        topo.on_network_tick(1.0)
        cache.on_tick(1.0)  # one credit -> only source 1
        assert len(received[1]) == 1
        assert len(received[0]) == 0 and len(received[2]) == 0

    def test_unknown_sources_bootstrap_first(self):
        """Sources the cache never heard from have implicit infinite
        thresholds and must receive feedback before known ones."""
        cache, objects, topo, feedback, clock = make_cache(cache_rate=1.0)
        received = {j: [] for j in range(3)}
        for j in range(3):
            topo.set_source_receiver(
                j, lambda m, j=j: received[j].append(m))
        feedback.observe_threshold(0, 100.0)
        topo.on_network_tick(1.0)
        cache.on_tick(1.0)
        assert len(received[0]) == 0
        assert len(received[1]) + len(received[2]) == 1

    def test_feedback_updates_local_record(self):
        """After sending feedback the cache optimistically divides its
        record so the next surplus tick targets someone else."""
        cache, objects, topo, feedback, clock = make_cache(cache_rate=1.0)
        for j in range(3):
            topo.set_source_receiver(j, lambda m: None)
        for j, threshold in enumerate([30.0, 20.0, 10.0]):
            feedback.observe_threshold(j, threshold)
        topo.on_network_tick(1.0)
        cache.on_tick(1.0)
        assert feedback.known_thresholds[0] == pytest.approx(3.0)

    def test_feedback_consumes_cache_credit(self):
        cache, objects, topo, feedback, clock = make_cache(cache_rate=2.0)
        for j in range(3):
            topo.set_source_receiver(j, lambda m: None)
        topo.on_network_tick(1.0)
        cache.on_tick(1.0)
        assert feedback.feedback_sent == 2  # only 2 credits available


class TestFeedbackHeapChurn:
    def make_controller(self, num_sources=6, cache_rate=2.0):
        topology = Topology(
            [ConstantBandwidth(cache_rate)],
            [ConstantBandwidth(1.0)] * num_sources)
        feedback = FeedbackController(topology, omega=10.0)
        for j in range(num_sources):
            topology.set_source_receiver(j, lambda m: None)
        return topology, feedback

    def test_heap_does_not_accumulate_stale_duplicates(self):
        """Repeated surplus ticks must not grow the heap beyond one live
        entry per source plus the fresh ``/ omega`` pushes -- the old
        pop-and-repush selection left a stale duplicate per selected
        source per tick."""
        topology, feedback = self.make_controller()
        for j in range(6):
            feedback.observe_threshold(j, 100.0 + j)
        baseline = len(feedback._heap)
        for tick in range(1, 21):
            topology.on_network_tick(float(tick))
            feedback.on_tick(float(tick))
        # Every tick selects 2 targets (budget 2 < 6 eligible): drained
        # entries are superseded by their /omega re-push, not duplicated.
        assert len(feedback._heap) <= baseline + 6

    def test_piggybacked_thresholds_do_not_grow_the_heap(self):
        """A piggybacked threshold pushes no entry until the next
        selection, which pushes one per source that piggybacked; the
        selection still picks the highest thresholds."""
        topology, feedback = self.make_controller()
        for k in range(5_000):
            feedback.observe_threshold(k % 6, 100.0 + k)
        # nothing pushed yet (the six bootstrap seeds are a cursor)
        assert len(feedback._heap) == 0
        topology.on_network_tick(1.0)
        feedback.on_tick(1.0)
        # one entry per source: the two targets' drained entries were
        # superseded by their /omega re-pushes
        assert len(feedback._heap) == 6
        # sources 1 and 0 piggybacked the highest thresholds last
        assert feedback.known_thresholds[1] == pytest.approx(509.9)
        assert feedback.known_thresholds[0] == pytest.approx(509.8)
        assert feedback.known_thresholds[5] == 5097.0

    def test_drained_infinite_thresholds_are_restored(self):
        """A bootstrapping source (threshold still inf) keeps receiving
        feedback on later ticks: its drained entry is restored."""
        topology, feedback = self.make_controller(num_sources=4,
                                                  cache_rate=1.0)
        sent_per_tick = []
        for tick in range(1, 5):
            topology.on_network_tick(float(tick))
            before = feedback.feedback_sent
            feedback.on_tick(float(tick))
            sent_per_tick.append(feedback.feedback_sent - before)
        assert sent_per_tick == [1, 1, 1, 1]

    def test_undelivered_targets_keep_their_entries(self):
        """Targets the link had no credit for stay selectable: their
        drained entries go back untouched."""
        topology, feedback = self.make_controller(num_sources=3,
                                                  cache_rate=2.0)
        for j, threshold in enumerate([30.0, 20.0, 10.0]):
            feedback.observe_threshold(j, threshold)
        topology.on_network_tick(1.0)
        # Manually spend one of the two credits: only one feedback fits.
        topology.cache_links[0].try_consume(1.0)
        feedback.on_tick(1.0)
        assert feedback.feedback_sent == 1
        assert feedback.known_thresholds[0] == pytest.approx(3.0)
        # Source 1 was selected but not delivered; next tick it leads.
        topology.on_network_tick(2.0)
        topology.cache_links[0].try_consume(1.0)
        feedback.on_tick(2.0)
        assert feedback.known_thresholds[1] == pytest.approx(2.0)
