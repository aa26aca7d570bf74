"""Replica delivery modes: unicast pins, multicast semantics.

Three layers of guarantees:

* **Bitwise pins.**  ``PINS`` freezes the (weighted divergence,
  refreshes, total messages) triples captured on the *pre-refactor*
  hard-wired send path for all five policies on star, sharded-4 and
  replicated-4 layouts.  The default ``delivery="unicast"`` must
  reproduce every one exactly -- the refactor's not-a-behavior-change
  contract.  The same capture doubles as the replication-1 tie: with a
  single replica there is no sibling leg, so multicast must match
  unicast bit for bit.
* **Mechanics.**  Zero-size sibling copies consume no link credit but
  still ride the FIFO (ordering behind a backlog is preserved), and
  ``Link.total_units`` counts cost while the message counters count
  envelopes.
* **Economics.**  On a saturated replicated layout multicast reaches
  strictly lower divergence without spending more cache-side units
  (the E14 dominance claim, in a one-cell smoke size), and the
  feedback controller's optional gains reorder selection under
  scarcity exactly by threshold x gain.
"""

import numpy as np
import pytest

from repro.core.divergence import ValueDeviation
from repro.cache.feedback import FeedbackController
from repro.experiments.matrix import POLICIES, make_policy
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth
from repro.network.link import Link
from repro.network.messages import MESSAGE_SIZE, RefreshMessage
from repro.network.topology import DELIVERY_MODES, Topology, TopologyConfig
from repro.workloads.synthetic import uniform_random_walk

# Captured on the pre-refactor hard-wired send path (commit 316e641):
# 10 sources x 10 objects, horizon 200, cache 20 msgs/s, sources 4
# msgs/s, warmup 50 / measure 150, seed 0, fluctuating weights.
# (topology, policy) -> (weighted divergence, refreshes, messages).
# The competitive pins were re-captured once own-priority credit took
# the links' refill rule (a fractional Psi slice is carried over).
PINS = {
    ('star', 'cooperative'): (0.6308807407651349, 3831, 4002),
    ('star', 'uniform'): (0.9266595031620426, 4000, 4000),
    ('star', 'competitive'): (0.608803776830487, 3868, 4003),
    ('star', 'cgm'): (1.50552024804979, 1897, 3794),
    ('star', 'ideal'): (0.5122931582707235, 4000, 4000),
    ('sharded-4', 'cooperative'): (0.8812536413657769, 3823, 4023),
    ('sharded-4', 'uniform'): (0.9479808921356462, 3998, 3998),
    ('sharded-4', 'competitive'): (0.9084533166388625, 3858, 4006),
    ('sharded-4', 'cgm'): (1.8444931721758264, 1783, 3566),
    ('sharded-4', 'ideal'): (0.5413923794785562, 4000, 4000),
    ('replicated-4', 'cooperative'): (1.4416620593652731, 3597, 4018),
    ('replicated-4', 'uniform'): (5.72681918864629, 4000, 7996),
    ('replicated-4', 'competitive'): (1.3134967985820702, 3783, 4029),
    ('replicated-4', 'cgm'): (1.8444931721758264, 1783, 3566),
    ('replicated-4', 'ideal'): (0.5413923794785562, 4000, 4000),
}

TOPOLOGIES = {
    "star": None,
    "sharded-4": TopologyConfig(kind="sharded", num_caches=4),
    "replicated-4": TopologyConfig(kind="replicated", num_caches=4,
                                   replication=2),
}


def _pin_triple(topology, policy_name, delivery="unicast"):
    if topology is not None and delivery != "unicast":
        topology = TopologyConfig(
            kind=topology.kind, num_caches=topology.num_caches,
            replication=topology.replication, delivery=delivery)
    rng = np.random.default_rng(0)
    workload = uniform_random_walk(num_sources=10, objects_per_source=10,
                                   horizon=200.0, rng=rng,
                                   fluctuating_weights=True)
    policy = make_policy(policy_name, ConstantBandwidth(20.0),
                         [ConstantBandwidth(4.0) for _ in range(10)],
                         workload.num_objects)
    spec = RunSpec(warmup=50.0, measure=150.0, topology=topology)
    result = run_policy(workload, ValueDeviation(), policy, spec)
    return (result.weighted_divergence, result.refreshes,
            result.messages_total)


class TestUnicastPins:
    """The refactored default plane reproduces the pre-refactor bits."""

    @pytest.mark.parametrize("topo_name", list(TOPOLOGIES))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_unicast_matches_prerefactor(self, topo_name, policy):
        assert _pin_triple(TOPOLOGIES[topo_name], policy) == \
            PINS[(topo_name, policy)]


class TestReplicationOneTie:
    """No sibling legs -> the planes are indistinguishable, bitwise."""

    @pytest.mark.parametrize("policy", ["cooperative", "uniform"])
    def test_multicast_equals_unicast_at_r1(self, policy):
        base = TopologyConfig(kind="replicated", num_caches=4,
                              replication=1)
        assert (_pin_triple(base, policy, delivery="multicast")
                == _pin_triple(base, policy, delivery="unicast"))

    @pytest.mark.parametrize("policy", ["cgm", "ideal"])
    def test_controls_ignore_the_plane(self, policy):
        """Polls are point-to-point and ideal builds no network, so the
        plane must not perturb them even with real sibling legs."""
        base = TOPOLOGIES["replicated-4"]
        assert (_pin_triple(base, policy, delivery="multicast")
                == PINS[("replicated-4", policy)])


class TestMulticastDominance:
    """One saturated cell of E14: strictly better divergence per unit."""

    @pytest.mark.parametrize("policy", ["cooperative", "uniform"])
    def test_lower_divergence_no_extra_units(self, policy):
        def run(delivery):
            workload = uniform_random_walk(
                num_sources=8, objects_per_source=4, horizon=200.0,
                rng=np.random.default_rng(0))
            topo = TopologyConfig(kind="replicated", num_caches=4,
                                  replication=2, delivery=delivery)
            pol = make_policy(policy, ConstantBandwidth(8.0),
                              [ConstantBandwidth(4.0) for _ in range(8)],
                              workload.num_objects)
            spec = RunSpec(warmup=50.0, measure=150.0, topology=topo)
            result = run_policy(workload, ValueDeviation(), pol, spec)
            return (result.weighted_divergence,
                    pol.topology.cache_units_total())

        div_uni, units_uni = run("unicast")
        div_multi, units_multi = run("multicast")
        assert div_multi < div_uni
        assert units_multi <= units_uni * 1.02


class TestFreeCopyMechanics:
    """Zero-size copies: free on credit, honest about FIFO order."""

    def test_zero_size_copy_is_free_but_queues(self):
        delivered = []
        link = Link("cache", ConstantBandwidth(1.0),
                    deliver=delivered.append)
        link.refill(1.0)  # 1 unit of credit
        first = RefreshMessage(source_id=0, sent_at=1.0)
        second = RefreshMessage(source_id=1, sent_at=1.0)
        free = RefreshMessage(source_id=2, sent_at=1.0, size=0.0)
        assert link.transmit_or_queue(first)       # spends the credit
        assert not link.transmit_or_queue(second)  # queues
        assert not link.transmit_or_queue(free)    # queues BEHIND it
        assert [m.source_id for m in link.queue] == [1, 2]
        link.refill(2.0)
        link.drain()  # 1 unit: delivers the full-size, then the free one
        assert [m.source_id for m in delivered] == [0, 1, 2]
        assert link.total_units == 2 * MESSAGE_SIZE

    def test_zero_size_copy_on_idle_link_delivers_instantly(self):
        delivered = []
        link = Link("cache", ConstantBandwidth(1.0),
                    deliver=delivered.append)
        # No refill: zero credit, but a zero-size copy needs none.
        assert link.transmit_or_queue(
            RefreshMessage(source_id=7, sent_at=0.0, size=0.0))
        assert delivered and delivered[0].source_id == 7
        assert link.total_units == 0.0
        assert link.total_sent == 1  # an envelope, not a unit

    def test_units_vs_messages_on_multicast_fanout(self):
        """Units count cost once; messages count every replica copy."""
        topology = Topology(
            [ConstantBandwidth(50.0) for _ in range(2)],
            [ConstantBandwidth(50.0)],
            assignment=[(0, 1)], delivery="multicast")
        topology.set_cache_receiver(lambda m: None, cache_id=0)
        topology.set_cache_receiver(lambda m: None, cache_id=1)
        topology.on_network_tick(1.0)
        for _ in range(5):
            assert topology.send_upstream(
                RefreshMessage(source_id=0, sent_at=1.0))
        assert topology.cache_messages_total() == 10  # 5 x 2 replicas
        assert topology.cache_units_total() == 5.0    # charged once
        unicast = Topology(
            [ConstantBandwidth(50.0) for _ in range(2)],
            [ConstantBandwidth(50.0)],
            assignment=[(0, 1)], delivery="unicast")
        unicast.set_cache_receiver(lambda m: None, cache_id=0)
        unicast.set_cache_receiver(lambda m: None, cache_id=1)
        unicast.on_network_tick(1.0)
        for _ in range(5):
            assert unicast.send_upstream(
                RefreshMessage(source_id=0, sent_at=1.0))
        assert unicast.cache_messages_total() == 10
        assert unicast.cache_units_total() == 10.0    # every leg pays


class TestPlaneConfiguration:
    def test_topology_config_validates_delivery(self):
        with pytest.raises(ValueError, match="unknown delivery plane"):
            TopologyConfig(delivery="carrier-pigeon")
        for mode in DELIVERY_MODES:
            config = TopologyConfig(kind="replicated", num_caches=2,
                                    replication=2, delivery=mode)
            topo = config.build(ConstantBandwidth(10.0),
                                [ConstantBandwidth(1.0)])
            assert topo.delivery == mode

    def test_topology_validates_delivery(self):
        with pytest.raises(ValueError, match="unknown delivery plane"):
            Topology([ConstantBandwidth(10.0)], [ConstantBandwidth(1.0)],
                     delivery="broadcast")

    @pytest.mark.parametrize("delivery, gains", [
        ("unicast", [1.0, 1.0, 1.0]),
        ("multicast", [4.0, 1.0, 2.0]),
    ])
    def test_feedback_gain_is_replication_under_multicast(self, delivery,
                                                         gains):
        topo = Topology([ConstantBandwidth(10.0)] * 4,
                        [ConstantBandwidth(1.0)] * 3,
                        assignment=[(0, 1, 2, 3), (1,), (2, 3)],
                        delivery=delivery)
        assert [topo.feedback_gain(j) for j in range(3)] == gains


class TestFeedbackGains:
    def _controller(self, gains):
        """A controller over sources 0-2 of an 8-source topology."""
        topology = Topology([ConstantBandwidth(10.0)],
                            [ConstantBandwidth(1.0) for _ in range(8)])
        return FeedbackController(topology, omega=10.0,
                                  source_ids=(0, 1, 2), gains=gains)

    def test_gains_reorder_selection_under_scarcity(self):
        controller = self._controller([1.0, 3.0, 1.0])
        for sid, threshold in enumerate([5.0, 2.0, 4.0]):
            controller.observe_threshold(sid, threshold)
        # Keys: 5, 6, 4 -> the replicated source (gain 3) jumps first.
        selected, _ = controller._select_targets(2)
        assert selected == [1, 0]

    def test_no_gains_ranks_by_raw_threshold(self):
        controller = self._controller(None)
        for sid, threshold in enumerate([5.0, 2.0, 4.0]):
            controller.observe_threshold(sid, threshold)
        selected, _ = controller._select_targets(2)
        assert selected == [0, 2]

    def test_gains_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="gains lists"):
            self._controller([1.0, 2.0])

    def test_add_source_seeds_unit_gain(self):
        controller = self._controller([2.0, 2.0, 2.0])
        for sid, threshold in enumerate([5.0, 1.0, 1.0]):
            controller.observe_threshold(sid, threshold)
        controller.add_source(7, threshold=9.0)
        assert controller._gains[:3] == [2.0, 2.0, 2.0]
        assert controller._gains[7] == 1.0
        # Keys: 10, 2, 2, 9 -> gained source 0 outranks raw-9 source 7.
        selected, _ = controller._select_targets(1)
        assert selected == [0]
