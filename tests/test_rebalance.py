"""Shard rebalancing: telemetry windows, warm migration, the E13 sweep.

Covers the rebalance subsystem end to end -- windowed link-queue peaks,
the surplus field in topology telemetry, the feedback controller's
remove/add source lifecycle, routing reassignment, peer links and
migration-message credit, migration freshness discipline, the moving
hotspot workload, the E13 ``rebalance`` matrix with its verdicts -- plus
the ``Workload.shard`` / ``UpdateTrace.subset`` migration round-trips.

The pre-PR off-pins at the bottom freeze five policies x two layouts
with *no* rebalancer configured: those numbers were captured on the
commit before this subsystem existed and must never move.
"""

import numpy as np
import pytest

from repro.cache.cache import CacheNode, WindowStats
from repro.cache.feedback import MIN_THRESHOLD, FeedbackController
from repro.cache.store import CacheStore
from repro.cli import main as cli_main
from repro.core.divergence import ValueDeviation
from repro.core.objects import DataObject
from repro.core.priority import AreaPriority
from repro.experiments.matrix import (
    REBALANCE,
    adaptive_beats_static,
    adaptive_migrates,
    inert_matches_static,
    make_policy,
    run_matrix,
)
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth
from repro.network.link import Link
from repro.network.messages import MigrateMessage, RefreshMessage
from repro.network.topology import Topology, TopologyConfig
from repro.policies.cooperative import CooperativePolicy
from repro.rebalance import RebalanceConfig, Rebalancer
from repro.workloads.hotspot import hotspot_shards, moving_hotspot
from repro.workloads.synthetic import uniform_random_walk
from test_matrix import SINGLE, caches, check_verdict


def small_workload(num_sources=6, objects_per_source=3, horizon=120.0,
                   seed=0):
    rng = np.random.default_rng(seed)
    return uniform_random_walk(num_sources=num_sources,
                               objects_per_source=objects_per_source,
                               horizon=horizon, rng=rng)


def cooperative(workload, cache=10.0, source=2.0, **kwargs):
    return CooperativePolicy(
        ConstantBandwidth(cache),
        [ConstantBandwidth(source) for _ in range(workload.num_sources)],
        priority_fn=AreaPriority(), **kwargs)


def multi_topology(num_caches=2, num_sources=4, cache=5.0, source=2.0):
    return Topology(
        [ConstantBandwidth(cache)] * num_caches,
        [ConstantBandwidth(source)] * num_sources)


# ----------------------------------------------------------------------
# Satellite 1: windowed link-queue peak
# ----------------------------------------------------------------------
class TestWindowedQueuePeak:
    def make_congested_link(self):
        delivered = []
        # 1 msg/s: at t=0 only one message fits, the rest queue.
        link = Link("l", ConstantBandwidth(1.0), deliver=delivered.append)
        link.refill(1.0)
        for j in range(4):
            link.transmit_or_queue(RefreshMessage(source_id=j,
                                                  sent_at=1.0))
        return link, delivered

    def test_window_peak_tracks_and_resets(self):
        link, _ = self.make_congested_link()
        assert link.total_queued_peak == 3
        assert link.queued_peak_since() == 3
        link.refill(10.0)
        link.drain()
        link.reset_queued_peak()
        # The window restarts at the *current* depth (now 0), while the
        # lifetime latch keeps the historical burst.
        assert link.queued_peak_since() == 0
        assert link.total_queued_peak == 3

    def test_reset_floors_at_current_depth(self):
        link, _ = self.make_congested_link()
        link.reset_queued_peak()
        # Still 3 queued: a reset cannot pretend the backlog is gone.
        assert link.queued_peak_since() == 3

    def test_lifetime_counter_unchanged_by_windows(self):
        link, _ = self.make_congested_link()
        before = link.total_queued_peak
        for _ in range(5):
            link.reset_queued_peak()
            link.queued_peak_since()
        assert link.total_queued_peak == before

    def test_topology_telemetry_reports_lifetime_peak(self):
        topology = multi_topology(num_caches=2, cache=1.0)
        topology.set_cache_receiver(lambda m: None, cache_id=0)
        topology.on_network_tick(1.0)
        for j in range(4):
            topology.cache_links[0].transmit_or_queue(
                RefreshMessage(source_id=j, sent_at=1.0, cache_id=0))
        topology.cache_links[0].reset_queued_peak()
        # telemetry()'s queued_peak stays the lifetime latch even after
        # a rebalance window reset.
        assert topology.telemetry()["cache_queued_peak"] == [3, 0]


# ----------------------------------------------------------------------
# Satellite 2: surplus in topology telemetry
# ----------------------------------------------------------------------
class TestTopologySurplusTelemetry:
    def test_cache_surplus_reported(self):
        topology = multi_topology(num_caches=3)
        topology.on_network_tick(1.0)
        stats = topology.telemetry(now=1.0)
        assert len(stats["cache_surplus"]) == 3
        assert all(s > 0.0 for s in stats["cache_surplus"])

    def test_clockless_telemetry_reads_banked_credit(self):
        topology = multi_topology(num_caches=2)
        topology.on_network_tick(1.0)
        stats = topology.telemetry()
        banked = [link.credit for link in topology.cache_links]
        assert stats["cache_surplus"] == banked

    def test_policy_extras_route_through_telemetry(self):
        """A run's network counters are the topology's own readings."""
        workload = small_workload()
        spec = RunSpec(warmup=20.0, measure=60.0, seed=0,
                       topology=TopologyConfig(kind="sharded",
                                               num_caches=2))
        for name in ("cooperative", "uniform"):
            policy = make_policy(
                name, ConstantBandwidth(8.0),
                [ConstantBandwidth(2.0)
                 for _ in range(workload.num_sources)],
                workload.num_objects)
            result = run_policy(workload, ValueDeviation(), policy, spec)
            topo = policy.topology.telemetry()
            assert len(topo["cache_surplus"]) == 2
            assert result.queued == sum(topo["cache_queued"])
            assert result.queued_peak == max(topo["cache_queued_peak"])
            assert result.units == policy.topology.cache_units_total() > 0


# ----------------------------------------------------------------------
# Satellite 4: shard/subset migration round-trips
# ----------------------------------------------------------------------
class TestShardSubsetRoundTrip:
    def test_reshard_preserves_event_order(self):
        """Splitting a workload into disjoint shards and replaying them
        against the original stream consumes every event exactly once,
        in order -- the property a migration re-slice relies on."""
        workload = small_workload(num_sources=6, objects_per_source=2,
                                  horizon=60.0, seed=7)
        groups = [np.array([0, 3]), np.array([1, 4]), np.array([2, 5])]
        shards = [workload.shard(g) for g in groups]
        cursors = [0] * len(groups)
        ops = workload.objects_per_source
        for time, index, value in workload.trace:
            source = index // ops
            g = next(i for i, grp in enumerate(groups) if source in grp)
            shard, k = shards[g], cursors[g]
            assert float(shard.trace.times[k]) == time
            local_src = int(np.where(groups[g] == source)[0][0])
            local = local_src * ops + index % ops
            assert int(shard.trace.object_indices[k]) == local
            assert float(shard.trace.values[k]) == value
            cursors[g] += 1
        assert cursors == [len(s.trace) for s in shards]

    def test_full_subset_is_identity(self):
        workload = small_workload(num_sources=4, objects_per_source=2,
                                  horizon=40.0, seed=1)
        whole = workload.shard(np.arange(4))
        np.testing.assert_array_equal(whole.trace.times,
                                      workload.trace.times)
        np.testing.assert_array_equal(whole.trace.object_indices,
                                      workload.trace.object_indices)
        np.testing.assert_array_equal(whole.trace.values,
                                      workload.trace.values)

    def test_empty_shard_is_valid_and_empty(self):
        workload = small_workload(num_sources=4, objects_per_source=2)
        empty = workload.shard(np.array([], dtype=np.int64))
        assert empty.num_sources == 0
        assert len(empty.trace) == 0

    def test_overlapping_and_out_of_range_raise(self):
        workload = small_workload(num_sources=4, objects_per_source=2)
        with pytest.raises(ValueError):
            workload.shard(np.array([1, 1]))
        with pytest.raises(ValueError):
            workload.shard(np.array([4]))
        with pytest.raises(ValueError):
            workload.trace.subset(np.array([0, 0]))
        with pytest.raises(ValueError):
            workload.trace.subset(np.array([-1]))


# ----------------------------------------------------------------------
# Feedback controller: source remove / add lifecycle
# ----------------------------------------------------------------------
class TestFeedbackSourceLifecycle:
    def make_controller(self, num_sources=4):
        topology = Topology([ConstantBandwidth(10.0)],
                            [ConstantBandwidth(2.0)] * num_sources)
        return FeedbackController(topology, omega=10.0)

    def test_remove_returns_learned_threshold(self):
        fb = self.make_controller()
        fb.observe_threshold(2, 0.5)
        assert fb.remove_source(2) == 0.5
        with pytest.raises(ValueError):
            fb.remove_source(2)

    def test_removed_source_cannot_resurrect_via_observe(self):
        fb = self.make_controller()
        fb.remove_source(1)
        fb.observe_threshold(1, 3.0)  # late in-flight refresh
        assert not fb.owns(1)
        # And its parked slot stays at the floor (ineligible).
        assert fb.known_thresholds[1] == MIN_THRESHOLD

    def test_stale_heap_entries_skipped_after_removal(self):
        fb = self.make_controller()
        for sid in range(4):
            fb.observe_threshold(sid, 10.0 - sid)
        fb.remove_source(0)
        # Selecting must skip source 0's stale heap entries, not KeyError.
        targets = fb._select_targets(3)[0]
        assert 0 not in targets
        assert len(targets) == 3

    def test_readd_restores_threshold_and_slot(self):
        fb = self.make_controller()
        fb.observe_threshold(3, 0.25)
        threshold = fb.remove_source(3)
        fb.add_source(3, threshold)
        assert fb.owns(3)
        assert fb.known_thresholds[3] == 0.25
        # Re-add keeps the source's place: no duplicate identity.
        assert list(fb.source_ids).count(3) == 1
        assert len(fb.source_ids) == 4

    def test_add_brand_new_source_appends_slot(self):
        topology = Topology([ConstantBandwidth(10.0)],
                            [ConstantBandwidth(2.0)] * 8)
        fb = FeedbackController(topology, omega=10.0, source_ids=(0, 1))
        fb.add_source(7, 1.5)
        assert fb.owns(7)
        assert fb.known_thresholds[7] == 1.5
        assert fb.source_ids == (0, 1, 7)
        with pytest.raises(ValueError, match="unknown source"):
            fb.add_source(8)

    def test_reset_does_not_resurrect_removed(self):
        fb = self.make_controller()
        fb.remove_source(2)
        fb.reset()
        assert not fb.owns(2)
        assert fb.known_thresholds[2] == MIN_THRESHOLD


# ----------------------------------------------------------------------
# Topology: reassignment and peer links
# ----------------------------------------------------------------------
class TestReassignSource:
    def test_flips_routing_and_membership(self):
        topology = multi_topology(num_caches=2, num_sources=4)
        assert topology.caches_of(0) == (0,)
        old = topology.reassign_source(0, 1)
        assert old == 0
        assert topology.caches_of(0) == (1,)
        assert 0 not in topology.owned_sources_of(0)
        assert 0 in topology.owned_sources_of(1)
        assert 0 in topology.sources_of(1)

    def test_validation(self):
        topology = multi_topology(num_caches=2, num_sources=4)
        with pytest.raises(ValueError):
            topology.reassign_source(9, 1)
        with pytest.raises(ValueError):
            topology.reassign_source(0, 5)
        with pytest.raises(ValueError):
            topology.reassign_source(0, 0)  # already there
        replicated = Topology(
            [ConstantBandwidth(5.0)] * 2,
            [ConstantBandwidth(2.0)] * 2,
            assignment=[(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            replicated.reassign_source(0, 1)


class TestPeerLinks:
    def test_add_validation(self):
        topology = multi_topology(num_caches=2)
        topology.add_peer_link(0, 1, ConstantBandwidth(4.0))
        with pytest.raises(ValueError):
            topology.add_peer_link(0, 1, ConstantBandwidth(4.0))
        with pytest.raises(ValueError):
            topology.add_peer_link(0, 0, ConstantBandwidth(4.0))
        with pytest.raises(ValueError):
            topology.add_peer_link(0, 7, ConstantBandwidth(4.0))

    def test_send_peer_delivers_to_cache_receiver(self):
        topology = multi_topology(num_caches=2)
        got = []
        topology.set_cache_receiver(got.append, cache_id=1)
        topology.add_peer_link(0, 1, ConstantBandwidth(4.0))
        topology.on_network_tick(1.0)
        message = MigrateMessage(source_id=0, sent_at=1.0, cache_id=1,
                                 from_cache=0, items=[(0, 1.0, 1)])
        topology.send_peer(message)
        assert got == [message]
        with pytest.raises(ValueError):
            topology.send_peer(MigrateMessage(
                source_id=0, sent_at=1.0, cache_id=0, from_cache=1))

    def test_migrate_message_pays_per_item(self):
        small = MigrateMessage(source_id=0, items=[])
        big = MigrateMessage(source_id=0,
                             items=[(i, 0.0, 0) for i in range(5)])
        assert small.size == 1.0
        assert big.size == 5.0

    def test_peer_traffic_counts_in_message_totals(self):
        topology = multi_topology(num_caches=2)
        topology.set_cache_receiver(lambda m: None, cache_id=1)
        link = topology.add_peer_link(0, 1, ConstantBandwidth(4.0))
        topology.on_network_tick(1.0)
        topology.send_peer(MigrateMessage(source_id=0, sent_at=1.0,
                                          cache_id=1, from_cache=0))
        assert (link.total_sent, link.total_delivered) == (1, 1)


# ----------------------------------------------------------------------
# Migration exactness at the cache node
# ----------------------------------------------------------------------
class TestCacheMigration:
    def make_pair(self, num_sources=4, objects_per_source=1):
        n = num_sources * objects_per_source
        topology = Topology(
            [ConstantBandwidth(10.0)] * 2,
            [ConstantBandwidth(2.0)] * num_sources)
        objects = [DataObject(index=i, source_id=i // objects_per_source)
                   for i in range(n)]
        caches = []
        for k in range(2):
            fb = FeedbackController(
                topology, omega=10.0, cache_id=k,
                source_ids=topology.owned_sources_of(k))
            caches.append(CacheNode(objects, ValueDeviation(), topology,
                                    store=CacheStore(n), feedback=fb,
                                    cache_id=k))
        return topology, objects, caches

    def test_export_snapshots_and_threshold(self):
        topology, objects, caches = self.make_pair()
        caches[0].store.apply(0, 4.5, now=1.0, update_count=3)
        caches[0].feedback.observe_threshold(0, 0.75)
        items, threshold = caches[0].export_source(0, [0])
        assert items == [(0, 4.5, 3)]
        assert threshold == 0.75
        assert not caches[0].feedback.owns(0)

    def test_export_leaves_truth_untouched(self):
        topology, objects, caches = self.make_pair()
        objects[0].apply_update(1.0, 9.0, ValueDeviation())
        before = objects[0].truth_divergence
        caches[0].export_source(0, [0])
        assert objects[0].truth_divergence == before

    def test_migration_adopts_source_and_state(self):
        topology, objects, caches = self.make_pair()
        caches[0].store.apply(0, 4.5, now=1.0, update_count=3)
        items, threshold = caches[0].export_source(0, [0])
        topology.reassign_source(0, 1)
        caches[1].on_message(MigrateMessage(
            source_id=0, sent_at=2.0, cache_id=1, from_cache=0,
            items=items, threshold=threshold))
        assert caches[1].migrations_in == 1
        assert caches[1].store.read(0) == 4.5
        assert caches[1].feedback.owns(0)

    def test_stale_snapshot_never_regresses_store(self):
        """A refresh racing ahead of the migration payload wins."""
        topology, objects, caches = self.make_pair()
        topology.reassign_source(0, 1)
        caches[1].store.apply(0, 9.9, now=1.5, update_count=5)
        caches[1].on_message(MigrateMessage(
            source_id=0, sent_at=2.0, cache_id=1, from_cache=0,
            items=[(0, 4.5, 3)], threshold=1.0))
        assert caches[1].store.read(0) == 9.9
        assert caches[1].store.applied_counts[0] == 5

    def test_single_item_to_non_primary_is_a_seed(self):
        topology, objects, caches = self.make_pair()
        # Source 2 is homed on cache 1; a payload reaching cache 0 after
        # the source moved on updates the store and leaves feedback alone.
        assert topology.primary_cache_of(2) == 1
        caches[0].on_message(MigrateMessage(
            source_id=2, sent_at=2.0, cache_id=0, from_cache=1,
            items=[(2, 3.3, 1)]))
        assert caches[0].migrations_in == 0
        assert caches[0].store.read(2) == 3.3
        assert not caches[0].feedback.owns(2)


class TestWindowStats:
    def test_accumulates_and_resets(self):
        window = WindowStats()
        window.note(3)
        window.note(3)
        window.note(1)
        assert window.refreshes == {3: 2, 1: 1}
        window.reset()
        assert window.refreshes == {}


# ----------------------------------------------------------------------
# Moving hotspot workload
# ----------------------------------------------------------------------
class TestMovingHotspot:
    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            moving_hotspot(4, 2, 10.0, rng, num_phases=0)
        with pytest.raises(ValueError):
            moving_hotspot(4, 2, 10.0, rng, hot_fraction=1.5)
        with pytest.raises(ValueError):
            moving_hotspot(4, 2, 10.0, rng, hot_boost=0.5)
        with pytest.raises(TypeError):
            moving_hotspot(4, 2, 10.0, rng, generator="legacy")

    def test_heat_moves_between_phases(self):
        workload = moving_hotspot(8, 4, horizon=400.0,
                                  rng=np.random.default_rng(1),
                                  num_phases=2, hot_fraction=0.25,
                                  hot_boost=20.0,
                                  rate_range=(0.05, 0.1))
        trace = workload.trace
        ops = workload.objects_per_source
        half = 200.0
        first = trace.times < half
        counts_first = np.bincount(
            trace.object_indices[first] // ops, minlength=8)
        counts_second = np.bincount(
            trace.object_indices[~first] // ops, minlength=8)
        # Phase 0 heats sources {0, 1}; phase 1 heats {2, 3}.
        assert counts_first[:2].sum() > 3 * counts_first[4:].sum() / 2
        assert counts_second[2:4].sum() > counts_second[:2].sum()

    def test_rates_report_time_average(self):
        workload = moving_hotspot(4, 2, horizon=100.0,
                                  rng=np.random.default_rng(2),
                                  num_phases=4, hot_fraction=0.25,
                                  hot_boost=9.0, rate_range=(0.1, 0.1))
        # Every source is hot for exactly one of four phases:
        # average rate = (9 + 3) / 4 * base.
        np.testing.assert_allclose(workload.rates, 0.3)

    def test_legacy_generator_same_shape(self):
        """Per-phase draws regrouped object-major still give one sorted
        trace with every object's events inside the horizon."""
        workload = moving_hotspot(4, 2, horizon=60.0,
                                  rng=np.random.default_rng(3),
                                  num_phases=2)
        assert workload.num_objects == 8
        trace = workload.trace
        assert (np.diff(trace.times) >= 0).all()
        assert ((trace.times >= 0.0) & (trace.times < 60.0)).all()
        same_time = np.diff(trace.times) == 0
        assert (np.diff(trace.object_indices)[same_time] > 0).all()


# ----------------------------------------------------------------------
# Rebalancer wiring
# ----------------------------------------------------------------------
class TestRebalanceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RebalanceConfig(mode="psychic")
        with pytest.raises(ValueError):
            RebalanceConfig(interval=0.0)
        with pytest.raises(ValueError):
            RebalanceConfig(saturation_queue=0)
        with pytest.raises(ValueError):
            RebalanceConfig(max_moves=-1)
        with pytest.raises(ValueError):
            RebalanceConfig(peer_rate=0.0)

    def test_inert_config_is_legal(self):
        assert RebalanceConfig(max_moves=0).max_moves == 0


class TestRebalancerWiring:
    def test_inactive_on_star(self):
        workload = small_workload()
        topology = Topology(
            [ConstantBandwidth(10.0)],
            [ConstantBandwidth(2.0)] * workload.num_sources)
        rebalancer = Rebalancer(RebalanceConfig(), topology, [])
        assert not rebalancer.active
        rebalancer.install(None)  # no ctx access on the inactive path

    def test_star_run_with_rebalance_matches_without(self):
        workload = small_workload()
        spec = RunSpec(warmup=20.0, measure=60.0, seed=0)
        plain = run_policy(workload, ValueDeviation(),
                           cooperative(workload), spec)
        armed = run_policy(workload, ValueDeviation(),
                           cooperative(workload,
                                       rebalance=RebalanceConfig()),
                           spec)
        assert armed.weighted_divergence == plain.weighted_divergence
        assert armed.refreshes == plain.refreshes


# ----------------------------------------------------------------------
# E13: the rebalance matrix
# ----------------------------------------------------------------------
def sweep(settings="", workers=1):
    """E13 rows at the short default size, ``settings`` overriding."""
    params = REBALANCE.parse(
        f"num-caches=4 warmup=50 measure=200 {settings}".split())
    return run_matrix(REBALANCE, params, workers=workers)


class TestE13Experiment:
    def test_adaptive_beats_static_and_migrates(self):
        (row,) = sweep()
        assert row["adaptive"]["migrations"] > 0
        assert row["static"]["migrations"] == 0
        assert row["inert"]["migrations"] == 0
        assert (row["adaptive"]["divergence"]
                < row["static"]["divergence"])

    def test_inert_is_bitwise_static(self):
        (row,) = sweep("num-caches=2 measure=120")
        assert row["inert"]["divergence"] == row["static"]["divergence"]
        assert row["inert"]["refreshes"] == row["static"]["refreshes"]
        assert row["inert"]["messages"] >= row["static"]["messages"]

    def test_single_cache_arms_coincide(self):
        (row,) = sweep("num-caches=1 sources=4 objects=4 warmup=20 "
                       "measure=60")
        assert len({row[arm]["divergence"] for arm in REBALANCE.arms}) == 1
        assert row["adaptive"]["migrations"] == 0

    def test_run_rebalance_parallel_is_serial(self):
        settings = ("num-caches=1,2 sources=8 objects=4 cache-bandwidth=12 "
                    "phases=2 warmup=30 measure=90 seed=1")
        assert sweep(settings, workers=2) == sweep(settings)

    def test_bad_cache_count_rejected(self):
        with pytest.raises(ValueError, match="num-caches"):
            REBALANCE.parse(["num-caches=0"])


class TestVerdictHelpers:
    def test_all_pass_on_good_points(self):
        rows = [SINGLE, caches(2)]
        assert inert_matches_static(rows)
        assert adaptive_migrates(rows)
        assert adaptive_beats_static(rows)

    def test_inert_divergence_fails_pin(self):
        check_verdict(inert_matches_static)

    def test_zero_migrations_fail(self):
        check_verdict(adaptive_migrates)

    def test_single_cache_only_is_vacuous(self):
        check_verdict(adaptive_beats_static)

    def test_render_contains_verdicts_and_warns(self):
        params = REBALANCE.parse()
        text = REBALANCE.render(params, [SINGLE, caches(2)])
        assert text.startswith("E13 shard rebalancing")
        assert "WARNING" not in text
        text = REBALANCE.render(params, [SINGLE, caches(2, adaptive=2.0)])
        assert "WARNING: violated" in text


class TestRebalanceCLI:
    def test_cli_smoke(self, capsys):
        cli_main(["matrix", "rebalance", "num-caches=1,2", "sources=8",
                  "objects=4", "cache-bandwidth=12", "phases=2",
                  "warmup=30", "measure=90", "--workers", "1"])
        out = capsys.readouterr().out
        assert "E13 shard rebalancing" in out
        assert "inert rebalancer == static sharding" in out


# ----------------------------------------------------------------------
# Pre-PR off-pins: five policies x {star, sharded-4}, no rebalancer
# ----------------------------------------------------------------------
#: (weighted_divergence, refreshes, messages_total) captured on the
#: commit before the rebalance subsystem existed.  A drift here means
#: the rebalancer-off path is no longer the pre-PR code path.
OFF_PINS = {
    ("cooperative", "star"): (0.8754264933891042, 1152, 1202),
    ("uniform", "star"): (1.0129868761933092, 1200, 1200),
    ("competitive", "star"): (0.9153078563586401, 1159, 1203),
    ("cgm", "star"): (1.5198495309925777, 563, 1126),
    ("ideal", "star"): (0.6670549754093161, 1200, 1200),
    ("cooperative", "sharded-4"): (1.3363023715375013, 1149, 1214),
    ("uniform", "sharded-4"): (1.0129868761933092, 1200, 1200),
    ("competitive", "sharded-4"): (1.473554118754973, 1157, 1233),
    ("cgm", "sharded-4"): (1.7093508063772003, 549, 1098),
    ("ideal", "sharded-4"): (0.7112427772346746, 1200, 1200),
}


class TestRebalancerOffPins:
    @pytest.mark.parametrize("policy_name,topo_name",
                             sorted(OFF_PINS))
    def test_off_path_is_bitwise_pre_pr(self, policy_name, topo_name):
        workload = hotspot_shards(8, 4, horizon=200.0,
                                  rng=np.random.default_rng(3))
        topology = (None if topo_name == "star"
                    else TopologyConfig(kind="sharded", num_caches=4))
        spec = RunSpec(warmup=50.0, measure=150.0, seed=3,
                       topology=topology)
        result = run_policy(
            workload, ValueDeviation(),
            make_policy(policy_name, ConstantBandwidth(6.0),
                        [ConstantBandwidth(1.5) for _ in range(8)],
                        workload.num_objects),
            spec)
        divergence, refreshes, messages = OFF_PINS[
            (policy_name, topo_name)]
        assert result.weighted_divergence == divergence
        assert result.refreshes == refreshes
        assert result.messages_total == messages

    def test_inert_rebalancer_is_bitwise_off(self):
        """Armed-but-idle machinery (peer links, windows, ticker) must
        not move a single float anywhere in the run."""
        workload = hotspot_shards(8, 4, horizon=200.0,
                                  rng=np.random.default_rng(3))
        spec = RunSpec(warmup=50.0, measure=150.0, seed=3,
                       topology=TopologyConfig(kind="sharded",
                                               num_caches=4))
        off = run_policy(workload, ValueDeviation(),
                         cooperative(workload, cache=6.0, source=1.5),
                         spec)
        inert = run_policy(
            workload, ValueDeviation(),
            cooperative(workload, cache=6.0, source=1.5,
                        rebalance=RebalanceConfig(max_moves=0)),
            spec)
        assert inert.weighted_divergence == off.weighted_divergence
        assert inert.refreshes == off.refreshes
