"""The fault layer: plans, injector, retry, TTL decay, crash recovery.

Covers the deterministic fault-injection subsystem end to end --
declarative :class:`FaultPlan` validation, the counter-keyed drop draws,
the reliable-delivery (ack/timeout/retransmit) option, the feedback
staleness TTL, cache crash cold-restarts -- plus the E12 ``faults``
matrix and its structural verdicts, and the shard/subset hardening that
rides along in the same change.
"""

import numpy as np
import pytest

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.core.threshold import THRESHOLD_FLOOR, ThresholdController
from repro.core.weights import StaticWeights, WeightModel
from repro.cache.feedback import FeedbackController
from repro.cache.store import CacheStore
from repro.cli import main as cli_main
from repro.experiments.matrix import (
    FAULTS,
    POLICIES,
    blackout_graceful,
    empty_plan_is_baseline,
    loss_monotone,
    make_policy,
    retry_recovers,
    run_matrix,
)
from repro.experiments.runner import RunSpec, run_policy
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_SCENARIOS,
    CacheCrash,
    FaultPlan,
    LossRule,
    fault_scenario,
    hash01,
)
from repro.faults.retry import RetryPolicy
from repro.network.bandwidth import ConstantBandwidth
from repro.network.messages import RefreshMessage
from repro.network.topology import Topology, TopologyConfig
from repro.policies.cooperative import CooperativePolicy
from repro.workloads.synthetic import uniform_random_walk
from oracles import flood_factor
from test_matrix import check_verdict


def small_workload(num_sources=6, objects_per_source=3, horizon=120.0,
                   seed=0, rate_cap=1.0):
    rng = np.random.default_rng(seed)
    return uniform_random_walk(num_sources=num_sources,
                               objects_per_source=objects_per_source,
                               horizon=horizon, rng=rng,
                               rate_range=(0.0, rate_cap))


def profiles(workload, cache=10.0, source=2.0):
    return (ConstantBandwidth(cache),
            [ConstantBandwidth(source)
             for _ in range(workload.num_sources)])


def cooperative(workload, cache=10.0, source=2.0, **kwargs):
    cache_bw, source_bws = profiles(workload, cache, source)
    return CooperativePolicy(cache_bw, source_bws,
                             priority_fn=AreaPriority(), **kwargs)


class TestHash01:
    def test_deterministic_and_in_range(self):
        draws = [hash01(7, 0, 3, k) for k in range(1000)]
        assert draws == [hash01(7, 0, 3, k) for k in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)

    def test_keys_matter(self):
        assert hash01(0, 1, 2, 3) != hash01(0, 1, 2, 4)
        assert hash01(0, 1, 2, 3) != hash01(1, 1, 2, 3)
        assert hash01(0, 0, 2, 3) != hash01(0, 1, 2, 3)

    def test_roughly_uniform(self):
        draws = [hash01(42, 0, 0, k) for k in range(4000)]
        assert abs(sum(draws) / len(draws) - 0.5) < 0.03
        assert 0.05 < sum(1 for d in draws if d < 0.1) / len(draws) < 0.15


class TestPlanValidation:
    def test_loss_rule_window_and_probability(self):
        with pytest.raises(ValueError, match="start < end"):
            LossRule(10.0, 10.0, 0.5)
        with pytest.raises(ValueError, match="probability"):
            LossRule(0.0, 10.0, 1.5)
        with pytest.raises(ValueError, match="direction"):
            LossRule(0.0, 10.0, 0.5, direction="sideways")

    def test_loss_rule_matching(self):
        rule = LossRule(10.0, 20.0, 0.5, cache_ids=(1,), source_ids=(2, 3))
        assert rule.matches(10.0, 1, 2)
        assert not rule.matches(20.0, 1, 2)  # end-exclusive
        assert not rule.matches(9.9, 1, 2)
        assert not rule.matches(15.0, 0, 2)
        assert not rule.matches(15.0, 1, 4)

    def test_crash_validation(self):
        with pytest.raises(ValueError, match="crash time"):
            CacheCrash(0.0)
        with pytest.raises(ValueError, match="cache_id"):
            CacheCrash(5.0, cache_id=-1)

    def test_plan_is_empty(self):
        assert FaultPlan().is_empty()
        assert FaultPlan(seed=9).is_empty()  # a seed alone injects nothing
        assert not FaultPlan(loss=(LossRule(0.0, 1.0, 0.1),)).is_empty()
        assert not FaultPlan(crashes=(CacheCrash(1.0),)).is_empty()

    def test_fault_scenarios(self):
        assert fault_scenario("none", 50.0, 150.0).is_empty()
        lossy = fault_scenario("lossy-10", 50.0, 150.0)
        assert lossy.loss[0].probability == 0.10
        assert lossy.loss[0].end == 200.0
        crash = fault_scenario("crash-restart", 50.0, 150.0)
        assert crash.crashes[0].time == 50.0 + 0.4 * 150.0
        blackout = fault_scenario("feedback-blackout", 50.0, 150.0)
        assert blackout.loss[0].direction == "downstream"
        assert blackout.loss[0].probability == 1.0
        with pytest.raises(ValueError, match="unknown fault scenario"):
            fault_scenario("meteor-strike", 50.0, 150.0)
        for name in FAULT_SCENARIOS:
            fault_scenario(name, 10.0, 20.0)  # all names resolve


def make_injector(plan, now=0.0):
    clock = {"now": now}
    injector = FaultInjector(plan, clock=lambda: clock["now"])
    return injector, clock


def refresh(source_id=0):
    return RefreshMessage(source_id=source_id, object_index=0, value=1.0,
                          update_count=1, threshold=0.5, sent_at=0.0)


class TestFaultInjector:
    def test_certain_loss_window(self):
        plan = FaultPlan(loss=(LossRule(10.0, 20.0, 1.0),))
        injector, clock = make_injector(plan)
        assert injector.allow_upstream(refresh(), 0)
        clock["now"] = 15.0
        assert not injector.allow_upstream(refresh(), 0)
        assert not injector.allow_downstream(0, 3)
        clock["now"] = 20.0  # end-exclusive
        assert injector.allow_upstream(refresh(), 0)
        assert injector.dropped_upstream == 1
        assert injector.dropped_downstream == 1
        assert injector.dropped == 2

    def test_statistical_loss_rate(self):
        plan = FaultPlan(seed=3, loss=(LossRule(0.0, 1e9, 0.2),))
        injector, _ = make_injector(plan, now=1.0)
        n = 3000
        passed = sum(injector.allow_upstream(refresh(), 0)
                     for _ in range(n))
        assert abs((n - passed) / n - 0.2) < 0.03
        assert injector.dropped_upstream == n - passed

    def test_directional_rules(self):
        plan = FaultPlan(loss=(LossRule(0.0, 100.0, 1.0,
                                        direction="downstream"),))
        injector, _ = make_injector(plan, now=5.0)
        assert injector.allow_upstream(refresh(), 0)
        assert not injector.allow_downstream(0, 0)

    def test_overlapping_rules_compound(self):
        # keep = (1-p1)(1-p2); with p2 = 1 everything dies regardless.
        plan = FaultPlan(loss=(LossRule(0.0, 10.0, 0.1),
                               LossRule(0.0, 10.0, 1.0)))
        injector, _ = make_injector(plan, now=5.0)
        assert not any(injector.allow_upstream(refresh(), 0)
                       for _ in range(20))

    def test_zero_probability_rule_never_drops(self):
        plan = FaultPlan(loss=(LossRule(0.0, 1e9, 0.0),))
        injector, _ = make_injector(plan, now=1.0)
        assert all(injector.allow_upstream(refresh(), 0)
                   for _ in range(200))
        assert injector.dropped == 0

    def test_counters_advance_outside_windows(self):
        """The n-th delivery's draw is independent of earlier windows:
        adding a disjoint earlier window must not shift later fates."""
        late = LossRule(100.0, 200.0, 0.5)
        early = LossRule(0.0, 10.0, 1.0)
        fates = {}
        for name, rules in (("alone", (late,)), ("shifted", (early, late))):
            injector, clock = make_injector(FaultPlan(loss=rules))
            clock["now"] = 50.0
            for _ in range(30):  # pre-window deliveries advance counters
                injector.allow_upstream(refresh(), 0)
            clock["now"] = 150.0
            fates[name] = [injector.allow_upstream(refresh(), 0)
                           for _ in range(50)]
        assert fates["alone"] == fates["shifted"]


class TestRetryPolicyValidation:
    def test_knobs(self):
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        policy = RetryPolicy(timeout=2.0, backoff=1.5, max_attempts=5)
        assert policy.timeout == 2.0


class TestThresholdTTL:
    def test_lazy_decay_catches_up(self):
        controller = ThresholdController(initial=8.0, omega=2.0,
                                         feedback_ttl=10.0)
        controller.maybe_decay(9.9)
        assert controller.value == 8.0 and controller.ttl_decays == 0
        controller.maybe_decay(25.0)  # deadlines at 10 and 20 elapsed
        assert controller.value == 2.0 and controller.ttl_decays == 2
        assert controller.next_decay_time() == 30.0

    def test_decay_is_poll_frequency_independent(self):
        often = ThresholdController(initial=8.0, omega=2.0,
                                    feedback_ttl=10.0)
        for t in np.linspace(0.0, 35.0, 200):
            often.maybe_decay(float(t))
        once = ThresholdController(initial=8.0, omega=2.0,
                                   feedback_ttl=10.0)
        once.maybe_decay(35.0)
        assert often.value == once.value
        assert often.ttl_decays == once.ttl_decays

    def test_decay_respects_floor(self):
        controller = ThresholdController(initial=1.0, omega=10.0,
                                         feedback_ttl=1.0)
        controller.maybe_decay(100.0)
        assert controller.value == THRESHOLD_FLOOR

    def test_feedback_pushes_deadline(self):
        controller = ThresholdController(initial=4.0, omega=2.0,
                                         feedback_ttl=10.0)
        controller.on_feedback(7.0)
        assert controller.next_decay_time() == 17.0
        controller.maybe_decay(12.0)  # old deadline (10) must not fire
        assert controller.ttl_decays == 0

    def test_gamma_freezes_on_stale_feedback(self):
        controller = ThresholdController(feedback_period=5.0,
                                         feedback_ttl=30.0)
        assert flood_factor(controller, 4.0) == 1.0
        assert flood_factor(controller, 10.0) == 2.0  # overdue: speed up
        assert flood_factor(controller, 31.0) == 1.0  # stale: link down

    def test_disabled_ttl_is_inert(self):
        controller = ThresholdController(initial=4.0)
        controller.maybe_decay(1e9)
        assert controller.value == 4.0
        assert controller.next_decay_time() is None

    def test_ttl_validation(self):
        with pytest.raises(ValueError, match="TTL"):
            ThresholdController(feedback_ttl=0.0)


class TestCrashResets:
    def test_store_reset(self):
        store = CacheStore(3, initial_values=np.array([1.0, 2.0, 3.0]))
        store.apply(0, 9.0, now=5.0, update_count=4)
        store.apply(2, 7.0, now=6.0, update_count=2)
        store.reset()
        assert store.read(0) == 1.0 and store.read(2) == 3.0
        assert store.total_refreshes() == 0
        assert list(store.applied_counts) == [0, 0, 0]
        assert list(store.refresh_times) == [0.0, 0.0, 0.0]

    def test_feedback_controller_reset(self):
        workload = small_workload()
        cache_bw, source_bws = profiles(workload)
        topology = TopologyConfig().build(cache_bw, source_bws)
        controller = FeedbackController(topology, omega=10.0)
        controller.observe_threshold(2, 1e-13)  # below min: ineligible
        assert controller._eligible < len(controller.source_ids)
        controller.reset()
        assert controller._eligible == len(controller.source_ids)
        assert all(t == float("inf")
                   for t in controller.known_thresholds)

    def test_crash_out_of_range_rejected(self):
        workload = small_workload()
        plan = FaultPlan(crashes=(CacheCrash(40.0, cache_id=5),))
        spec = RunSpec(warmup=20.0, measure=80.0, faults=plan)
        with pytest.raises(ValueError, match="out of range"):
            run_policy(workload, ValueDeviation(), cooperative(workload),
                       spec)

    def test_crash_resets_cache_and_is_deterministic(self):
        workload = small_workload()
        plan = FaultPlan(crashes=(CacheCrash(60.0, cache_id=0),))
        spec = RunSpec(warmup=20.0, measure=100.0, faults=plan)

        def run():
            policy = cooperative(workload)
            result = run_policy(workload, ValueDeviation(), policy, spec)
            return policy, result

        policy, result = run()
        assert policy.caches[0].crashes == 1
        baseline = run_policy(workload, ValueDeviation(),
                              cooperative(workload),
                              RunSpec(warmup=20.0, measure=100.0))
        assert result.weighted_divergence > baseline.weighted_divergence
        _, again = run()
        assert again.weighted_divergence == result.weighted_divergence
        assert again.refreshes == result.refreshes


class TestLossIntegration:
    def test_drops_are_counted_and_hurt(self):
        workload = small_workload()
        plan = fault_scenario("lossy-10", 20.0, 100.0)
        spec = RunSpec(warmup=20.0, measure=100.0, faults=plan)
        policy = cooperative(workload)
        result = run_policy(workload, ValueDeviation(), policy, spec)
        telemetry = policy.topology.telemetry()
        assert telemetry["dropped"] > 0
        assert telemetry["retransmitted"] == 0  # no retry configured
        baseline = run_policy(workload, ValueDeviation(),
                              cooperative(workload),
                              RunSpec(warmup=20.0, measure=100.0))
        assert result.weighted_divergence > baseline.weighted_divergence

    def test_total_blackout_stops_refreshes(self):
        workload = small_workload()
        # The window is end-exclusive, so it must outlast the horizon: a
        # delivery exactly at the end instant would slip through.
        plan = FaultPlan(loss=(LossRule(0.0, 1e9, 1.0,
                                        direction="upstream"),))
        spec = RunSpec(warmup=20.0, measure=100.0, faults=plan)
        policy = cooperative(workload)
        result = run_policy(workload, ValueDeviation(), policy, spec)
        assert result.refreshes == 0
        assert policy.topology.telemetry()["dropped"] > 0


class TestReliableDelivery:
    def test_retransmits_recover_sparse_losses(self):
        workload = small_workload(horizon=300.0, rate_cap=0.1)
        plan = fault_scenario("lossy-10", 50.0, 250.0)
        lossy_spec = RunSpec(warmup=50.0, measure=250.0, faults=plan)
        retry_spec = RunSpec(warmup=50.0, measure=250.0, faults=plan,
                             retry=RetryPolicy(timeout=3.0, backoff=2.0,
                                               max_attempts=4))
        lossy = run_policy(workload, ValueDeviation(),
                           cooperative(workload), lossy_spec)
        policy = cooperative(workload)
        retried = run_policy(workload, ValueDeviation(), policy,
                             retry_spec)
        telemetry = policy.topology.telemetry()
        assert telemetry["retransmitted"] > 0
        assert retried.weighted_divergence < lossy.weighted_divergence

    def test_retry_without_faults_changes_nothing(self):
        """On a clean network every refresh acks before its timer."""
        workload = small_workload()
        plain = run_policy(workload, ValueDeviation(),
                           cooperative(workload),
                           RunSpec(warmup=20.0, measure=100.0))
        policy = cooperative(workload)
        retried = run_policy(
            workload, ValueDeviation(), policy,
            RunSpec(warmup=20.0, measure=100.0,
                    retry=RetryPolicy(timeout=1000.0)))
        assert retried.weighted_divergence == plain.weighted_divergence
        assert retried.refreshes == plain.refreshes
        telemetry = policy.topology.telemetry()
        assert telemetry["retransmitted"] == 0
        assert telemetry["duplicate_suppressed"] == 0

    def test_retry_is_deterministic(self):
        workload = small_workload(rate_cap=0.2)
        plan = fault_scenario("lossy-10", 20.0, 100.0)
        spec = RunSpec(warmup=20.0, measure=100.0, faults=plan,
                       retry=RetryPolicy(timeout=4.0))

        def run():
            policy = cooperative(workload)
            result = run_policy(workload, ValueDeviation(), policy, spec)
            telemetry = policy.topology.telemetry()
            return (result.weighted_divergence, result.refreshes,
                    telemetry["retransmitted"],
                    telemetry["duplicate_suppressed"])

        assert run() == run()

    def test_attempts_are_bounded(self):
        """Under total loss every refresh is abandoned after its
        attempt budget; nothing retries forever."""
        workload = small_workload(num_sources=3, horizon=100.0,
                                  rate_cap=0.3)
        plan = FaultPlan(loss=(LossRule(0.0, 100.0, 1.0,
                                        direction="upstream"),))
        spec = RunSpec(warmup=20.0, measure=80.0, faults=plan,
                       retry=RetryPolicy(timeout=2.0, backoff=1.0,
                                         max_attempts=3))
        policy = cooperative(workload)
        run_policy(workload, ValueDeviation(), policy, spec)
        reliable = policy.topology.reliable
        assert reliable.abandoned > 0
        assert reliable.retransmitted <= 2 * reliable.abandoned + 2 * 3


class TestEmptyPlanPins:
    """An explicit empty FaultPlan (and plan=None) must be bitwise
    indistinguishable from a fault-free run for every policy on both
    reference topologies -- the machinery-off acceptance pin."""

    @pytest.mark.parametrize("topology", [
        pytest.param(None, id="star"),
        pytest.param(TopologyConfig(kind="sharded", num_caches=4),
                     id="sharded-4"),
        pytest.param(TopologyConfig(kind="replicated", num_caches=4,
                                    replication=2), id="replicated-4"),
        pytest.param(TopologyConfig(kind="replicated", num_caches=4,
                                    replication=2, delivery="multicast"),
                     id="replicated-4-multicast"),
    ])
    @pytest.mark.parametrize("name", POLICIES)
    def test_empty_plan_bitwise(self, name, topology):
        workload = small_workload()

        def run(faults):
            cache_bw, source_bws = profiles(workload)
            policy = make_policy(name, cache_bw, source_bws,
                                 workload.num_objects)
            result = run_policy(
                workload, ValueDeviation(), policy,
                RunSpec(warmup=20.0, measure=100.0, topology=topology,
                        faults=faults))
            return (result.weighted_divergence,
                    result.unweighted_divergence, result.refreshes,
                    result.feedback_messages, result.poll_messages)

        assert run(None) == run(FaultPlan())


class TestReplicatedLegFaults:
    """Fault draws and credit accounting happen per delivery *leg* on
    replicated layouts, under both delivery planes."""

    @staticmethod
    def replicated_pair(delivery):
        topology = Topology(
            [ConstantBandwidth(50.0), ConstantBandwidth(50.0)],
            [ConstantBandwidth(50.0)],
            assignment=[(0, 1)], delivery=delivery)
        seen = {0: [], 1: []}
        for k in (0, 1):
            topology.set_cache_receiver(
                (lambda k: lambda m: seen[k].append(m.source_id))(k),
                cache_id=k)
        return topology, seen

    @pytest.mark.parametrize("delivery", ["unicast", "multicast"])
    def test_loss_draws_are_per_leg(self, delivery):
        """A rule scoped to one cache kills only that leg's copies; the
        primary leg of the very same logical send still delivers."""
        topology, seen = self.replicated_pair(delivery)
        plan = FaultPlan(loss=(LossRule(0.0, 1e9, 1.0, cache_ids=(1,)),))
        injector, _ = make_injector(plan, now=1.0)
        topology.install_faults(injector=injector)
        topology.on_network_tick(1.0)
        for _ in range(4):
            assert topology.send_upstream(
                RefreshMessage(source_id=0, sent_at=1.0))
        assert seen[0] == [0, 0, 0, 0]
        assert seen[1] == []
        assert injector.dropped_upstream == 4
        # The injector fires after credit is spent, so the doomed leg
        # still paid its fare -- full size under unicast, free sibling
        # copies under multicast.
        expected = 4.0 if delivery == "unicast" else 0.0
        assert topology.cache_links[1].total_units == expected

    @pytest.mark.parametrize("delivery", ["unicast", "multicast"])
    def test_reliable_acks_are_per_leg(self, delivery):
        """A refresh acks only when *every* target leg delivered.  With
        the sibling leg dark, entries exhaust their attempt budget and
        are abandoned, while the primary leg suppresses the duplicate
        copies each retransmit lands on it."""
        workload = small_workload(horizon=200.0, rate_cap=0.2)
        topology = TopologyConfig(kind="replicated", num_caches=2,
                                  replication=2, delivery=delivery)
        plan = FaultPlan(loss=(LossRule(0.0, 1e9, 1.0, cache_ids=(1,)),))
        spec = RunSpec(warmup=40.0, measure=160.0, topology=topology,
                       faults=plan,
                       retry=RetryPolicy(timeout=3.0, backoff=2.0,
                                         max_attempts=4))
        policy = cooperative(workload)
        result = run_policy(workload, ValueDeviation(), policy, spec)
        reliable = policy.topology.reliable
        assert result.refreshes > 0  # the surviving leg kept delivering
        assert reliable.retransmitted > 0
        assert reliable.abandoned > 0
        assert reliable.duplicate_suppressed > 0
        assert policy.topology.telemetry()["dropped"] > 0

    @pytest.mark.parametrize("delivery", ["unicast", "multicast"])
    def test_retry_recovers_on_replicated_layout(self, delivery):
        """The E12 retry claim holds on replicated layouts too: loss
        hurts, retransmits claw a chunk of the gap back."""
        workload = small_workload(horizon=300.0, rate_cap=0.1)
        topology = TopologyConfig(kind="replicated", num_caches=4,
                                  replication=2, delivery=delivery)
        plan = fault_scenario("lossy-10", 50.0, 250.0)
        clean = run_policy(
            workload, ValueDeviation(), cooperative(workload),
            RunSpec(warmup=50.0, measure=250.0, topology=topology))
        lossy = run_policy(
            workload, ValueDeviation(), cooperative(workload),
            RunSpec(warmup=50.0, measure=250.0, topology=topology,
                    faults=plan))
        policy = cooperative(workload)
        retried = run_policy(
            workload, ValueDeviation(), policy,
            RunSpec(warmup=50.0, measure=250.0, topology=topology,
                    faults=plan,
                    retry=RetryPolicy(timeout=3.0, backoff=2.0,
                                      max_attempts=4)))
        assert lossy.weighted_divergence > clean.weighted_divergence
        assert policy.topology.telemetry()["retransmitted"] > 0
        assert retried.weighted_divergence < lossy.weighted_divergence

    @pytest.mark.parametrize("delivery", ["unicast", "multicast"])
    def test_downstream_batch_spends_credit_on_suppressed_legs(
            self, delivery):
        """send_downstream_batch on a replicated layout: the delivered
        count is a budget prefix, and a suppressed delivery still spends
        cache credit (the injector fires after the charge)."""
        topology = Topology(
            [ConstantBandwidth(3.0), ConstantBandwidth(50.0)],
            [ConstantBandwidth(1.0) for _ in range(4)],
            assignment=[(0, 1), (0, 1), (1, 0), (1, 0)],
            delivery=delivery)
        got = []
        for j in range(4):
            topology.set_source_receiver(
                j, (lambda j: lambda m: got.append(j))(j))
        plan = FaultPlan(loss=(LossRule(0.0, 1e9, 1.0,
                                        direction="downstream",
                                        source_ids=(1,)),))
        injector, _ = make_injector(plan, now=1.0)
        topology.install_faults(injector=injector)
        topology.on_network_tick(1.0)
        delivered = topology.send_downstream_batch(0, [0, 1, 2, 3], 1.0)
        assert delivered == 3  # cache 0 banked 3 credits, budget prefix
        assert got == [0, 2]   # source 1 suppressed, source 3 unfunded
        assert injector.dropped_downstream == 1
        assert topology.cache_links[0].total_units == 3.0


class TestShardHardening:
    def test_empty_shard_is_valid(self):
        workload = small_workload()
        empty = workload.shard(np.array([], dtype=np.int64))
        assert empty.num_sources == 0
        assert empty.num_objects == 0
        assert len(empty.trace.times) == 0
        assert empty.weights.n == 0

    def test_shard_rejects_bad_ids(self):
        workload = small_workload()
        with pytest.raises(ValueError, match="in \\[0"):
            workload.shard(np.array([0, 6]))
        with pytest.raises(ValueError, match="in \\[0"):
            workload.shard(np.array([-1]))
        with pytest.raises(ValueError, match="unique"):
            workload.shard(np.array([1, 1]))

    def test_subset_rejects_bad_ids(self):
        trace = small_workload().trace
        with pytest.raises(ValueError, match="in \\[0"):
            trace.subset(np.array([trace.num_objects]))
        with pytest.raises(ValueError, match="unique"):
            trace.subset(np.array([2, 2]))
        empty = trace.subset(np.array([], dtype=np.int64))
        assert empty.num_objects == 0
        assert len(empty.times) == 0

    def test_weight_model_degenerate_sizes(self):
        empty = StaticWeights(np.array([], dtype=float))
        assert empty.n == 0
        assert empty.weights(0.0).shape == (0,)

        class Dummy(WeightModel):
            def weight(self, index, t):
                return 1.0

            def weights(self, t):
                return np.zeros(self.n)

        assert Dummy(0).n == 0  # empty shards are legal
        with pytest.raises(ValueError, match=">= 0"):
            Dummy(-1)


class TestRunFaultsExperiment:
    def test_tiny_matrix_fields(self):
        params = FAULTS.parse([
            "scenarios=none,lossy-10", "topologies=star", "sources=4",
            "objects=2", "cache-bandwidth=4", "source-bandwidth=1",
            "warmup=20", "measure=60"])
        rows = run_matrix(FAULTS, params)
        assert [r["scenarios"] for r in rows] == ["none", "lossy-10"]
        none, lossy = rows
        assert all(none[f"empty-{n}"] == none[n] for n in POLICIES)
        assert "ttl" in none and "retry" not in none
        assert "retry" in lossy and "ttl" not in lossy
        assert not any(f"empty-{n}" in lossy for n in POLICIES)
        assert lossy["cooperative"]["dropped"] > 0
        assert none["cooperative"]["dropped"] == 0
        text = FAULTS.render(params, rows)
        assert "lossy-10" in text and "retransmits" in text

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="scenarios"):
            FAULTS.parse(["scenarios=packet-gnomes"])
        with pytest.raises(ValueError, match="topologies"):
            FAULTS.parse(["topologies=torus"])


class TestVerdicts:
    def test_empty_plan_verdict(self):
        check_verdict(empty_plan_is_baseline)

    def test_loss_monotone_with_tolerance(self):
        check_verdict(loss_monotone)

    def test_retry_recovers_verdict(self):
        check_verdict(retry_recovers)

    def test_blackout_graceful_verdict(self):
        check_verdict(blackout_graceful)


class TestFaultsCLI:
    def test_faults_subcommand(self, capsys, tmp_path):
        out = tmp_path / "faults.txt"
        code = cli_main([
            "--output", str(out), "matrix", "faults",
            "scenarios=none,lossy-10", "topologies=star", "sources=4",
            "objects=2", "cache-bandwidth=4", "source-bandwidth=1",
            "warmup=20", "measure=60", "--workers", "2"])
        assert code == 0
        text = capsys.readouterr().out
        assert "E12 fault injection" in text
        assert "empty fault plan == fault-free baseline" in text
        assert "n/a (scenario not in this matrix)" in text  # no blackout
        assert out.read_text() == text
