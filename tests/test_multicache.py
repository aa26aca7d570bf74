"""Tests for the multi-cache topology layer.

Covers shard/replica routing, per-cache congestion isolation, the
topology config factory, the membership tables against a fresh build
under random re-homing, and the bit-for-bit equivalence of the ``star``
config with the one-cache ``sharded`` config.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth, ScaledBandwidth
from repro.network.messages import FeedbackMessage, RefreshMessage
from repro.network.topology import (
    Topology,
    TopologyConfig,
    replica_assignment,
    shard_assignment,
)
from repro.policies.cooperative import CooperativePolicy
from repro.policies.uniform import UniformAllocationPolicy
from repro.rebalance import RebalanceConfig
from repro.source.source import SourceNode
from repro.workloads.hotspot import hotspot_shards, moving_hotspot
from repro.workloads.synthetic import uniform_random_walk


def make_multi(cache_rates=(5.0, 5.0), source_rates=(2.0,) * 4,
               assignment=None):
    return Topology(
        [ConstantBandwidth(r) for r in cache_rates],
        [ConstantBandwidth(r) for r in source_rates],
        assignment=assignment)


class TestAssignments:
    def test_block_sharding_keeps_ranges_together(self):
        assert shard_assignment(4, 2) == [(0,), (0,), (1,), (1,)]

    def test_block_sharding_follows_its_formula(self):
        for m in range(30):
            for n in range(1, 7):
                assert shard_assignment(m, n) == [
                    (j * n // max(m, 1),) for j in range(m)]

    def test_block_sharding_balances_uneven_counts(self):
        caches = [a[0] for a in shard_assignment(5, 2)]
        assert caches == sorted(caches)
        counts = [caches.count(k) for k in range(2)]
        assert max(counts) - min(counts) <= 1

    def test_replica_assignment_ring(self):
        assignment = replica_assignment(4, 4, 2)
        assert assignment[0] == (0, 1)
        assert assignment[3] == (3, 0)  # wraps around the ring

    def test_replication_bounds_validated(self):
        with pytest.raises(ValueError):
            replica_assignment(4, 2, 3)


class TestShardRouting:
    def test_upstream_reaches_assigned_cache_only(self):
        topo = make_multi()  # default block: sources 0,1 -> 0; 2,3 -> 1
        topo.on_network_tick(1.0)
        received = {0: [], 1: []}
        topo.set_cache_receiver(received[0].append, cache_id=0)
        topo.set_cache_receiver(received[1].append, cache_id=1)
        assert topo.send_upstream(RefreshMessage(source_id=3, sent_at=1.0))
        assert received[0] == []
        assert len(received[1]) == 1
        assert received[1][0].cache_id == 1

    def test_downstream_spends_named_cache_credit(self):
        topo = make_multi(cache_rates=(1.0, 1.0))
        topo.on_network_tick(1.0)
        got = []
        topo.set_source_receiver(0, got.append)
        message = FeedbackMessage(source_id=0, sent_at=1.0, cache_id=0)
        assert topo.send_downstream(message)
        assert got == [message]
        # Cache 0's credit is spent; cache 1's is untouched.
        assert not topo.send_downstream(
            FeedbackMessage(source_id=0, sent_at=1.0, cache_id=0))
        assert topo.send_downstream(
            FeedbackMessage(source_id=2, sent_at=1.0, cache_id=1))

    def test_source_credit_still_binds(self):
        topo = make_multi(source_rates=(1.0,) * 4)
        topo.on_network_tick(1.0)
        assert topo.send_upstream(RefreshMessage(source_id=0, sent_at=1.0))
        assert not topo.send_upstream(
            RefreshMessage(source_id=0, sent_at=1.0))
        assert topo.source_at_capacity(0)

    def test_shape_helpers(self):
        topo = make_multi()
        assert topo.num_caches == 2
        assert topo.num_sources == 4
        assert topo.caches_of(0) == (0,)
        assert topo.primary_cache_of(3) == 1
        assert tuple(topo.sources_of(0)) == (0, 1)
        assert tuple(topo.owned_sources_of(1)) == (2, 3)

    def test_invalid_assignment_rejected(self):
        with pytest.raises(ValueError):
            make_multi(assignment=[(0,), (1,), (2,), (0,)])  # unknown cache
        with pytest.raises(ValueError):
            make_multi(assignment=[(0, 0), (1,), (1,), (0,)])  # duplicate
        with pytest.raises(ValueError):
            make_multi(assignment=[(0,), (1,)])  # wrong length


class TestReplicaRouting:
    def test_upstream_fans_out_to_all_replicas(self):
        assignment = replica_assignment(4, 2, 2)
        topo = make_multi(assignment=assignment)
        topo.on_network_tick(1.0)
        received = {0: [], 1: []}
        topo.set_cache_receiver(received[0].append, cache_id=0)
        topo.set_cache_receiver(received[1].append, cache_id=1)
        assert topo.send_upstream(
            RefreshMessage(source_id=0, sent_at=1.0, object_index=7))
        assert len(received[0]) == 1 and len(received[1]) == 1
        assert received[0][0].cache_id == 0
        assert received[1][0].cache_id == 1
        assert received[1][0].object_index == 7

    def test_fan_out_charges_source_once(self):
        assignment = replica_assignment(2, 2, 2)
        topo = make_multi(source_rates=(2.0, 2.0), assignment=assignment)
        topo.on_network_tick(1.0)
        topo.send_upstream(RefreshMessage(source_id=0, sent_at=1.0))
        assert topo._credit[0] == pytest.approx(1.0)

    def test_replicas_consume_each_cache_links_capacity(self):
        assignment = replica_assignment(2, 2, 2)
        topo = make_multi(cache_rates=(1.0, 1.0), source_rates=(2.0, 2.0),
                          assignment=assignment)
        topo.on_network_tick(1.0)
        topo.send_upstream(RefreshMessage(source_id=0, sent_at=1.0))
        assert all(link.credit == pytest.approx(0.0)
                   for link in topo.cache_links)

    def test_owned_sources_excludes_replica_only(self):
        assignment = replica_assignment(4, 2, 2)
        topo = make_multi(assignment=assignment)
        # Every source reaches both caches, but each is owned by its shard.
        assert tuple(topo.sources_of(0)) == (0, 1, 2, 3)
        assert tuple(topo.owned_sources_of(0)) == (0, 1)
        assert tuple(topo.owned_sources_of(1)) == (2, 3)


class TestReplicaStaleness:
    def test_lagging_replica_cannot_regress_truth(self):
        """A congested replica link delivering an old snapshot after a
        faster replica applied a newer one must not reset the shared
        truth view backwards (phantom divergence)."""
        from repro.cache.cache import CacheNode
        from repro.core.objects import DataObject

        topo = make_multi(cache_rates=(10.0, 0.5), source_rates=(10.0, 10.0),
                          assignment=[(0, 1), (1, 0)])
        metric = ValueDeviation()
        obj = DataObject(index=0, source_id=0)
        fast = CacheNode([obj], metric, topo, cache_id=0)
        slow = CacheNode([obj], metric, topo, cache_id=1)
        topo.on_network_tick(1.0)
        # Two updates, each refreshed immediately; cache 0 applies both
        # in-tick, cache 1 (rate 0.5) queues both copies.
        for count, value in ((1, 5.0), (2, 9.0)):
            obj.apply_update(1.0, value, metric)
            topo.send_upstream(RefreshMessage(
                source_id=0, sent_at=1.0, object_index=0, value=value,
                update_count=count))
        assert fast.refreshes_applied == 2
        assert obj.truth_count == 2
        assert obj.truth_divergence == 0.0
        # Next ticks: the slow replica drains the stale copy (count 1)
        # and later the fresh one (count 2).
        topo.on_network_tick(3.0)
        assert slow.stale_discards == 1
        assert obj.truth_count == 2  # not regressed
        assert obj.truth_divergence == 0.0
        topo.on_network_tick(5.0)
        assert slow.refreshes_applied == 1  # the count-2 copy re-applies
        assert obj.truth_divergence == 0.0


class TestCongestionIsolation:
    def test_backlog_on_one_cache_does_not_block_another(self):
        topo = make_multi(cache_rates=(1.0, 10.0),
                          source_rates=(10.0,) * 4)
        received = {0: [], 1: []}
        topo.set_cache_receiver(received[0].append, cache_id=0)
        topo.set_cache_receiver(received[1].append, cache_id=1)
        topo.on_network_tick(1.0)
        for _ in range(4):
            topo.send_upstream(RefreshMessage(source_id=0, sent_at=1.0))
            topo.send_upstream(RefreshMessage(source_id=2, sent_at=1.0))
        # Cache 0 (rate 1) delivered one and queued the rest; cache 1
        # (rate 10) delivered everything in-tick.
        assert len(received[0]) == 1
        assert topo.cache_links[0].queued == 3
        assert len(received[1]) == 4
        assert topo.cache_links[1].queued == 0

    def test_tick_drains_fifo_per_cache(self):
        topo = make_multi(cache_rates=(1.0, 10.0),
                          source_rates=(10.0,) * 4)
        received = []
        topo.set_cache_receiver(received.append, cache_id=0)
        topo.on_network_tick(1.0)
        for _ in range(3):
            topo.send_upstream(RefreshMessage(source_id=0, sent_at=1.0))
        topo.on_network_tick(2.0)
        assert len(received) == 2  # one more drained as credit returned

    def test_conservation_per_link(self):
        topo = make_multi(cache_rates=(1.0, 2.0),
                          source_rates=(10.0,) * 4)
        delivered = {0: [], 1: []}
        topo.set_cache_receiver(delivered[0].append, cache_id=0)
        topo.set_cache_receiver(delivered[1].append, cache_id=1)
        for tick in range(1, 6):
            topo.on_network_tick(float(tick))
            for j in range(4):
                topo.send_upstream(RefreshMessage(source_id=j,
                                                  sent_at=float(tick)))
        for k, link in enumerate(topo.cache_links):
            assert link.total_delivered == len(delivered[k])
            assert link.total_sent == link.total_delivered + link.queued


@st.composite
def layouts(draw):
    """A topology of m <= 40 sources on N <= 5 caches: star, sharded-N,
    replicated-N with replication r, or an arbitrary assignment mixing
    sharded and replicated sources."""
    m = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["star", "sharded", "replicated", "mixed"]))
    n = 1 if kind == "star" else draw(st.integers(1, 5))
    sources = [ConstantBandwidth(1.0)] * m
    if kind == "mixed":
        targets = st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                           unique=True).map(tuple)
        assignment = draw(st.lists(targets, min_size=m, max_size=m))
        return Topology([ConstantBandwidth(2.0)] * n, sources,
                        assignment=assignment)
    config = TopologyConfig(kind=kind, num_caches=n,
                            replication=draw(st.integers(1, n)))
    return config.build(ConstantBandwidth(10.0), sources)


def assert_membership_consistent(topo):
    """The membership tables equal a fresh build from the current
    assignment and their definition; owned sets partition the sources."""
    m, n = topo.num_sources, topo.num_caches
    assignment = [topo.caches_of(j) for j in range(m)]
    fresh = Topology([ConstantBandwidth(1.0)] * n,
                     [ConstantBandwidth(1.0)] * m, assignment=assignment)
    assert [fresh.caches_of(j) for j in range(m)] == assignment
    assert ([topo.primary_cache_of(j) for j in range(m)]
            == [fresh.primary_cache_of(j) for j in range(m)]
            == [targets[0] for targets in assignment])
    for k in range(n):
        members = tuple(topo.sources_of(k))
        owned = tuple(topo.owned_sources_of(k))
        assert members == tuple(fresh.sources_of(k))
        assert owned == tuple(fresh.owned_sources_of(k))
        assert members == tuple(j for j in range(m) if k in assignment[j])
        assert owned == tuple(j for j in members if assignment[j][0] == k)
        assert list(members) == sorted(set(members))
        assert list(owned) == sorted(set(owned))
    owned = [j for k in range(n) for j in topo.owned_sources_of(k)]
    assert sorted(owned) == list(range(m))


class TestMembership:
    """The constructor's one-pass membership build against
    ``reassign_source``'s incremental rebuild."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(topo=layouts(), data=st.data())
    def test_matches_fresh_build_under_rehoming(self, topo, data):
        assert_membership_consistent(topo)
        n = topo.num_caches
        sharded = [j for j in range(topo.num_sources)
                   if len(topo.caches_of(j)) == 1]
        if n < 2 or not sharded:
            return
        moves = data.draw(st.lists(
            st.tuples(st.sampled_from(sharded), st.integers(1, n - 1)),
            max_size=8))
        for source, offset in moves:
            old = topo.primary_cache_of(source)
            new = (old + offset) % n
            assert topo.reassign_source(source, new) == old
            assert topo.caches_of(source) == (new,)
            assert_membership_consistent(topo)


class TestTopologyConfig:
    def test_star_is_default(self):
        profile = ConstantBandwidth(10.0)
        topo = TopologyConfig().build(profile, [ConstantBandwidth(1.0)] * 3)
        assert topo.num_caches == 1
        assert topo.cache_links[0].profile is profile
        assert (tuple(topo.sources_of(0)) == tuple(topo.owned_sources_of(0))
                == (0, 1, 2))

    def test_sharded_build_splits_bandwidth(self):
        config = TopologyConfig(kind="sharded", num_caches=4)
        topo = config.build(ConstantBandwidth(20.0),
                            [ConstantBandwidth(1.0)] * 8)
        assert isinstance(topo, Topology)
        assert topo.num_caches == 4
        for link in topo.cache_links:
            assert isinstance(link.profile, ScaledBandwidth)
            assert link.profile.mean_rate == pytest.approx(5.0)

    def test_single_cache_share_is_the_original_profile(self):
        profile = ConstantBandwidth(20.0)
        config = TopologyConfig(kind="sharded", num_caches=1)
        topo = config.build(profile, [ConstantBandwidth(1.0)] * 3)
        assert topo.cache_links[0].profile is profile

    def test_validation(self):
        with pytest.raises(ValueError):
            TopologyConfig(kind="mesh")
        with pytest.raises(ValueError):
            TopologyConfig(kind="star", num_caches=2)
        with pytest.raises(ValueError):
            TopologyConfig(kind="sharded", num_caches=0)
        with pytest.raises(ValueError):
            TopologyConfig(kind="replicated", num_caches=2, replication=3)

    def test_assignment_for_star(self):
        assert TopologyConfig().assignment_for(3) == [(0,)] * 3

    def test_telemetry_shape(self):
        topo = make_multi()
        topo.on_network_tick(1.0)
        data = topo.telemetry()
        assert data["num_caches"] == 2
        assert len(data["cache_utilization"]) == 2


class TestStarEquivalence:
    """The one-cache ``sharded`` config must reproduce the ``star``
    config bit for bit."""

    @staticmethod
    def run_cooperative(topology_config, seed=11):
        rng = np.random.default_rng(seed)
        num_sources = 6
        workload = uniform_random_walk(num_sources, 5, horizon=200.0,
                                       rng=rng)
        policy = CooperativePolicy(
            ConstantBandwidth(12.0),
            [ConstantBandwidth(3.0)] * num_sources,
            priority_fn=AreaPriority())
        spec = RunSpec(warmup=40.0, measure=160.0, seed=seed,
                       topology=topology_config)
        return run_policy(workload, ValueDeviation(), policy, spec)

    def test_single_cache_matches_star_bit_for_bit(self):
        star = self.run_cooperative(None)
        multi = self.run_cooperative(
            TopologyConfig(kind="sharded", num_caches=1))
        assert multi == star

    def test_multi_cache_changes_but_still_works(self):
        multi = self.run_cooperative(
            TopologyConfig(kind="sharded", num_caches=3))
        assert multi.refreshes > 0
        assert multi.weighted_divergence > 0.0
        assert multi != self.run_cooperative(None)


class TestMultiCachePolicies:
    def test_cooperative_beats_uniform_on_hot_shards(self):
        """The E8 claim, in miniature: adaptive allocation wins."""
        rng = np.random.default_rng(3)
        num_sources = 16
        workload = hotspot_shards(num_sources, 8, horizon=500.0, rng=rng,
                                  hot_fraction=0.25, hot_boost=8.0)
        spec = RunSpec(warmup=100.0, measure=400.0,
                       topology=TopologyConfig(kind="sharded",
                                               num_caches=4))

        def bandwidths():
            return (ConstantBandwidth(24.0),
                    [ConstantBandwidth(4.0)] * num_sources)

        cache_bw, source_bws = bandwidths()
        cooperative = run_policy(
            workload, ValueDeviation(),
            CooperativePolicy(cache_bw, source_bws,
                              priority_fn=AreaPriority()), spec)
        cache_bw, source_bws = bandwidths()
        uniform = run_policy(
            workload, ValueDeviation(),
            UniformAllocationPolicy(cache_bw, source_bws), spec)
        assert cooperative.weighted_divergence < uniform.weighted_divergence

    def test_replicated_cooperative_runs(self, monkeypatch):
        rng = np.random.default_rng(5)
        num_sources = 8
        workload = uniform_random_walk(num_sources, 4, horizon=150.0,
                                       rng=rng)
        policy = CooperativePolicy(
            ConstantBandwidth(16.0),
            [ConstantBandwidth(3.0)] * num_sources,
            priority_fn=AreaPriority())
        spec = RunSpec(warmup=30.0, measure=120.0,
                       topology=TopologyConfig(kind="replicated",
                                               num_caches=4,
                                               replication=2))
        senders = []
        on_message = SourceNode.on_message

        def record(sources, message, now):
            senders.append((message.source_id, message.cache_id))
            return on_message(sources, message, now)

        monkeypatch.setattr(SourceNode, "on_message", record)
        result = run_policy(workload, ValueDeviation(), policy, spec)
        assert result.refreshes > 0
        # Each source got feedback from its primary cache only.
        assert len(senders) == policy.feedback_messages() > 0
        for source_id, cache_id in senders:
            assert cache_id == policy.topology.primary_cache_of(source_id)


class TestFeedbackRouting:
    """Every source id shares one policy receiver; each feedback message
    must still land on the source it addresses, sent by that source's
    primary cache at delivery time (which moves under rebalancing)."""

    LAYOUTS = {
        "sharded": (TopologyConfig(kind="sharded", num_caches=4), {}),
        "replicated": (TopologyConfig(kind="replicated", num_caches=4,
                                      replication=2), {}),
        "rebalanced": (TopologyConfig(kind="sharded", num_caches=4),
                       {"rebalance": RebalanceConfig(
                           interval=10.0, max_moves=2,
                           saturation_queue=2)}),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_feedback_reaches_its_source(self, layout, monkeypatch):
        topology, policy_kwargs = self.LAYOUTS[layout]
        num_sources = 16
        workload = moving_hotspot(num_sources, 4, 300.0,
                                  rng=np.random.default_rng(3),
                                  hot_boost=25.0, rate_range=(0.02, 0.12))
        policy = CooperativePolicy(
            ConstantBandwidth(24.0), [ConstantBandwidth(4.0)] * num_sources,
            priority_fn=AreaPriority(), **policy_kwargs)
        deliveries = []
        on_message = SourceNode.on_message
        on_feedback = SourceNode.on_feedback

        def record(sources, message, now):
            deliveries.append((message.source_id, message.cache_id,
                               policy.topology.primary_cache_of(
                                   message.source_id)))
            return on_message(sources, message, now)

        def heard(sources, source_id, now):
            deliveries[-1] += (source_id,)
            return on_feedback(sources, source_id, now)

        monkeypatch.setattr(SourceNode, "on_message", record)
        monkeypatch.setattr(SourceNode, "on_feedback", heard)
        run_policy(workload, ValueDeviation(), policy,
                   RunSpec(warmup=50.0, measure=250.0, topology=topology))
        assert len(deliveries) == policy.feedback_messages() > 0
        for addressee, cache_id, primary, receiver in deliveries:
            assert receiver == addressee
            assert cache_id == primary
        if layout == "rebalanced":
            # Migrated sources hear from their old and new primaries.
            assert policy.rebalancer.migrations > 0
            caches_heard = {}
            for addressee, cache_id, *_ in deliveries:
                caches_heard.setdefault(addressee, set()).add(cache_id)
            assert any(len(caches) > 1 for caches in caches_heard.values())
