"""Tests for the star topology routing rules."""

import pytest

from repro.network.bandwidth import ConstantBandwidth
from repro.network.messages import (
    FeedbackMessage,
    PollRequest,
    PollResponse,
    RefreshMessage,
)
from repro.network.topology import Topology

from oracles import reference_schedule


def make_topology(cache_rate=10.0, source_rates=(2.0, 2.0)):
    return Topology([ConstantBandwidth(cache_rate)],
                    [ConstantBandwidth(r) for r in source_rates])


class TestUpstream:
    def test_upstream_needs_source_credit(self):
        topo = make_topology()
        message = RefreshMessage(source_id=0, object_index=0)
        assert not topo.send_upstream(message)  # no refill yet
        topo.on_network_tick(1.0)
        assert topo.send_upstream(message)

    def test_upstream_respects_per_source_limits(self):
        topo = make_topology(source_rates=(1.0, 1.0))
        topo.on_network_tick(1.0)
        assert topo.send_upstream(RefreshMessage(source_id=0))
        assert not topo.send_upstream(RefreshMessage(source_id=0))
        assert topo.send_upstream(RefreshMessage(source_id=1))

    def test_upstream_delivers_immediately_with_capacity(self):
        """Propagation latency is neglected: an uncongested cache link
        delivers in-tick."""
        topo = make_topology()
        topo.on_network_tick(1.0)
        received = []
        topo.set_cache_receiver(received.append)
        message = RefreshMessage(source_id=0)
        topo.send_upstream(message)
        assert received == [message]

    def test_upstream_queues_when_cache_link_saturated(self):
        topo = make_topology(cache_rate=1.0, source_rates=(10.0,))
        topo.on_network_tick(1.0)
        received = []
        topo.set_cache_receiver(received.append)
        for _ in range(3):
            topo.send_upstream(RefreshMessage(source_id=0))
        assert len(received) == 1  # capacity 1, rest queued
        assert topo.cache_links[0].queued == 2
        topo.on_network_tick(2.0)
        assert len(received) == 2  # drains FIFO as credit returns

    def test_upstream_unconstrained_bypasses_source_link(self):
        topo = make_topology(source_rates=(0.0,))
        received = []
        topo.set_cache_receiver(received.append)
        topo.send_upstream_unconstrained(PollResponse(source_id=0))
        topo.on_network_tick(1.0)
        assert len(received) == 1

    def test_source_at_capacity(self):
        topo = make_topology(source_rates=(1.0, 5.0))
        topo.on_network_tick(1.0)
        topo.send_upstream(RefreshMessage(source_id=0))
        assert topo.source_at_capacity(0)
        assert not topo.source_at_capacity(1)


class TestDownstream:
    def test_downstream_consumes_cache_credit(self):
        topo = make_topology(cache_rate=2.0)
        topo.on_network_tick(1.0)
        received = []
        topo.set_source_receiver(0, received.append)
        assert topo.send_downstream(FeedbackMessage(source_id=0))
        assert topo.send_downstream(FeedbackMessage(source_id=0))
        assert not topo.send_downstream(FeedbackMessage(source_id=0))
        assert len(received) == 2

    def test_downstream_delivery_is_immediate(self):
        topo = make_topology()
        topo.on_network_tick(1.0)
        received = []
        topo.set_source_receiver(1, received.append)
        request = PollRequest(source_id=1, object_index=3)
        assert topo.send_downstream(request)
        assert received == [request]


class TestDownstreamBatch:
    def test_batch_delivers_prefix_within_credit(self):
        topo = make_topology(cache_rate=2.0, source_rates=(1.0,) * 4)
        topo.on_network_tick(1.0)
        received = []
        for j in range(4):
            topo.set_source_receiver(
                j, lambda m, j=j: received.append((j, m.source_id)))
        delivered = topo.send_downstream_batch(0, [0, 1, 2, 3], 1.0)
        assert delivered == 2  # credit 2: first two targets only
        assert received == [(0, 0), (1, 1)]

    def test_batch_matches_sequential_sends(self):
        """One batch equals the same targets sent one message at a time:
        identical delivery count, remaining credit and counters."""
        sequential = make_topology(cache_rate=3.0, source_rates=(1.0,) * 5)
        batched = make_topology(cache_rate=3.0, source_rates=(1.0,) * 5)
        sequential.on_network_tick(1.0)
        batched.on_network_tick(1.0)
        for j in range(5):
            sequential.set_source_receiver(j, lambda m: None)
            batched.set_source_receiver(j, lambda m: None)
        sent = 0
        for j in range(5):
            if not sequential.send_downstream(
                    FeedbackMessage(source_id=j, sent_at=1.0)):
                break
            sent += 1
        delivered = batched.send_downstream_batch(0, list(range(5)), 1.0)
        assert delivered == sent == 3
        assert (batched.cache_links[0].credit
                == sequential.cache_links[0].credit)
        assert batched.cache_links[0].total_sent == \
            sequential.cache_links[0].total_sent
        assert batched.cache_links[0].total_delivered == \
            sequential.cache_links[0].total_delivered

    def test_batch_reuses_one_scratch_message(self):
        topo = make_topology(cache_rate=5.0, source_rates=(1.0,) * 3)
        topo.on_network_tick(1.0)
        seen = []
        for j in range(3):
            topo.set_source_receiver(j, seen.append)
        topo.send_downstream_batch(0, [0, 1, 2], 1.0)
        assert len(seen) == 3
        assert len({id(m) for m in seen}) == 1  # same restamped instance
        assert seen[0].source_id == 2  # stamped with the last target

    def test_batch_skips_unwired_receivers_but_charges_credit(self):
        topo = make_topology(cache_rate=5.0, source_rates=(1.0,) * 3)
        topo.on_network_tick(1.0)
        received = []
        topo.set_source_receiver(2, received.append)
        delivered = topo.send_downstream_batch(0, [0, 1, 2], 1.0)
        assert delivered == 3  # all consumed credit, only one was wired
        assert len(received) == 1


class TestSharedCacheLink:
    def test_upstream_and_downstream_share_capacity(self):
        """The paper's buoy experiment constrains *total* messages on the
        cache link; feedback spends the same budget as refreshes."""
        topo = make_topology(cache_rate=3.0)
        received = []
        topo.set_cache_receiver(received.append)
        topo.on_network_tick(1.0)
        for _ in range(3):
            assert topo.send_downstream(FeedbackMessage(source_id=0))
        topo.send_upstream_unconstrained(RefreshMessage(source_id=0))
        topo.cache_links[0].drain()
        assert received == []  # all credit went to feedback

    def test_total_messages_counts_everything(self):
        topo = make_topology()
        topo.on_network_tick(1.0)
        topo.send_upstream(RefreshMessage(source_id=0))
        topo.send_downstream(FeedbackMessage(source_id=1))
        assert topo.total_messages() >= 2

    def test_num_sources(self):
        assert make_topology().num_sources == 2

    def test_conservation_under_congestion(self):
        """Messages sent = delivered + still queued, always."""
        topo = make_topology(cache_rate=1.0)
        received = []
        topo.set_cache_receiver(received.append)
        for tick in range(1, 6):
            topo.on_network_tick(float(tick))
            for _ in range(3):
                topo.send_upstream_unconstrained(
                    RefreshMessage(source_id=0))
        link = topo.cache_links[0]
        assert link.total_delivered == len(received)
        assert link.total_sent == link.total_delivered + link.queued


class TestNeverQueuedCacheLink:
    def test_telemetry_reads_empty(self):
        topo = make_topology(cache_rate=4.0)
        topo.on_network_tick(1.0)
        telemetry = topo.telemetry(now=1.0)
        assert telemetry["cache_queued"] == [0]
        assert telemetry["cache_queued_peak"] == [0]
        assert telemetry["cache_surplus"] == [4.0]
        assert topo.cache_queued_peak() == 0

    def test_crash_is_a_no_op_on_the_queue(self):
        topo = make_topology()
        crashed = []
        topo.add_crash_listener(0, crashed.append)
        link = topo.cache_links[0]
        empty = link.queue
        topo.crash_cache(0, 2.0)
        assert crashed == [2.0]
        assert link.queue is empty and link.queued == 0
        assert link.total_sent == 0


class TestHeterogeneousCacheRates:
    def test_config_builds_per_cache_constant_profiles(self):
        from repro.network.topology import TopologyConfig
        config = TopologyConfig(kind="sharded", num_caches=3,
                                cache_rates=(8.0, 4.0, 2.0))
        topology = config.build(ConstantBandwidth(99.0),
                                [ConstantBandwidth(1.0)] * 6)
        rates = [link.profile.mean_rate for link in topology.cache_links]
        assert rates == [8.0, 4.0, 2.0]  # aggregate profile overridden

    def test_rates_must_match_cache_count(self):
        from repro.network.topology import TopologyConfig
        with pytest.raises(ValueError):
            TopologyConfig(kind="sharded", num_caches=2,
                           cache_rates=(8.0, 4.0, 2.0))

    def test_rates_must_be_positive(self):
        from repro.network.topology import TopologyConfig
        with pytest.raises(ValueError):
            TopologyConfig(kind="sharded", num_caches=2,
                           cache_rates=(8.0, 0.0))

    def test_star_uses_single_rate(self):
        from repro.network.topology import TopologyConfig
        config = TopologyConfig(cache_rates=(5.0,))
        topology = config.build(ConstantBandwidth(99.0),
                                [ConstantBandwidth(1.0)] * 2)
        assert topology.cache_links[0].profile.mean_rate == 5.0


class TestActiveLinkSet:
    def test_steady_source_links_are_lazy(self):
        topo = Topology([ConstantBandwidth(10.0)],
                        [ConstantBandwidth(1.0)] * 5)
        assert all(link.lazy for link in topo.source_links)
        assert topo.active_link_count == 1  # just the cache link

    def test_non_steady_source_links_stay_eager(self):
        from repro.network.bandwidth import SineBandwidth
        topo = Topology([ConstantBandwidth(10.0)],
                        [SineBandwidth(1.0, 0.25),
                         ConstantBandwidth(1.0)])
        assert not topo.source_links[0].lazy
        assert topo.source_links[1].lazy
        assert topo.active_link_count == 2

    def test_set_lazy_links_false_restores_eager_schedule(self):
        """The reference schedule of tests/oracles.py refills every
        source link eagerly; the default one leaves steady links lazy."""
        with reference_schedule(scan=False, per_event=False):
            topo = Topology([ConstantBandwidth(10.0)],
                            [ConstantBandwidth(1.0)] * 3)
        assert topo.active_link_count == 4
        topo.on_network_tick(1.0)
        assert all(link.tick_capacity == 1.0 for link in topo.source_links)
        lazy = Topology([ConstantBandwidth(10.0)],
                        [ConstantBandwidth(1.0)] * 3)
        assert lazy.active_link_count == 1

    def test_lazy_link_synced_before_capacity_check(self):
        """source_at_capacity on an untouched lazy link must see the
        credit the eager schedule would have banked."""
        topo = Topology([ConstantBandwidth(10.0)],
                        [ConstantBandwidth(0.5)] * 2)
        for tick in range(1, 5):
            topo.on_network_tick(float(tick))
        assert not topo.source_at_capacity(0)  # 0.5/tick banked >= 1.0
