"""Edge-case coverage across modules: optional wiring, odd inputs."""

import numpy as np
import pytest

from repro.cache.cache import CacheNode
from repro.core.divergence import Staleness, ValueDeviation
from repro.core.objects import DataObject
from repro.core.priority import AreaPriority
from repro.core.threshold import ThresholdTable
from repro.core.weights import StaticWeights
from repro.experiments.matrix import MATRICES, run_matrix
from repro.experiments.runner import RunSpec
from repro.faults.plan import CacheCrash
from repro.faults.retry import RetryPolicy
from repro.network.bandwidth import (
    ConstantBandwidth,
    SineBandwidth,
    TraceBandwidth,
)
from repro.network.messages import PollRequest, RefreshMessage
from repro.network.topology import Topology, TopologyConfig
from repro.policies.cache_driven import CGMPollingPolicy, IdealCacheBasedPolicy
from repro.policies.competitive import CompetitivePolicy
from repro.policies.cooperative import CooperativePolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.policies.uniform import UniformAllocationPolicy
from repro.rebalance.controller import RebalanceConfig
from repro.sim.engine import SimulationError, Simulator
from repro.source.monitor import SamplingMonitor
from repro.workloads.buoy import generate_buoy_trace
from repro.workloads.hotspot import check_hotspot


CACHE = ConstantBandwidth(8.0)
SOURCES = [ConstantBandwidth(1.0)] * 2
UNATTACHED = {
    "cooperative": lambda: CooperativePolicy(CACHE, SOURCES, AreaPriority()),
    "competitive": lambda: CompetitivePolicy(
        CACHE, SOURCES, AreaPriority(),
        source_weights=StaticWeights.uniform(4)),
    "uniform": lambda: UniformAllocationPolicy(CACHE, SOURCES),
    "ideal": lambda: IdealCooperativePolicy(CACHE, AreaPriority()),
    "ideal-cache": lambda: IdealCacheBasedPolicy(1.0),
    "cgm": lambda: CGMPollingPolicy(CACHE),
}


class TestUnattachedPolicies:
    """What needs ``attach()``'s wiring fails with a typed error naming
    the policy, also under ``python -O``."""

    @pytest.mark.parametrize("policy, call", [
        ("competitive", lambda p: p.source_objective_divergence(10.0)),
        # Callbacks attach() schedules; only a direct call reaches them.
        ("cooperative", lambda p: p._feedback_period_for(0, None)),
        ("cooperative", lambda p: p._cache_needs_tick(None)),
        ("uniform", lambda p: p._sources_tick(1.0)),
        ("ideal", lambda p: p._drain(1.0)),
        ("ideal-cache", lambda p: p._on_tick(1.0)),
        ("cgm", lambda p: p._on_cache_tick(1.0)),
        ("cgm", lambda p: p._on_source_message(PollRequest(source_id=0))),
    ])
    def test_raises_before_attach(self, policy, call):
        unattached = UNATTACHED[policy]()
        name = type(unattached).__name__
        with pytest.raises(RuntimeError,
                           match=f"^{name} is not attached: call attach"):
            call(unattached)


class TestCacheOptionalWiring:
    def make_bare_cache(self):
        """A cache with no collector, store, or feedback controller."""
        topology = Topology([ConstantBandwidth(10.0)],
                            [ConstantBandwidth(5.0)])
        objects = [DataObject(index=0, source_id=0)]
        return CacheNode(objects, ValueDeviation(), topology), objects

    def test_refresh_without_optional_components(self):
        cache, objects = self.make_bare_cache()
        objects[0].apply_update(1.0, 5.0, ValueDeviation())
        cache.on_message(RefreshMessage(source_id=0, object_index=0,
                                        value=5.0, update_count=1))
        assert cache.refreshes_applied == 1
        assert objects[0].truth_divergence == 0.0

    def test_poll_response_without_handler_is_counted(self):
        from repro.network.messages import PollResponse
        cache, _ = self.make_bare_cache()
        cache.on_message(PollResponse(source_id=0, object_index=0))
        assert cache.poll_responses == 1

    def test_unknown_message_type_ignored(self):
        cache, _ = self.make_bare_cache()
        cache.on_message(PollRequest(source_id=0, object_index=0))
        assert cache.refreshes_applied == 0


class TestSourceMessageRouting:
    def test_non_feedback_downstream_message_is_noop(self):
        from repro.core.priority import SimpleDivergencePriority
        from repro.core.threshold import ThresholdTable
        from repro.core.weights import StaticWeights
        from repro.source.monitor import TriggerMonitor
        from repro.source.source import SourceNode

        topology = Topology([ConstantBandwidth(10.0)],
                            [ConstantBandwidth(5.0)])
        objects = [DataObject(index=0, source_id=0)]
        source = SourceNode(
            objects, 1,
            [TriggerMonitor(SimpleDivergencePriority(),
                            StaticWeights.uniform(1))],
            ThresholdTable(), topology)
        before = source.thresholds.value[0]
        source.on_message(PollRequest(source_id=0, object_index=0), 1.0)
        assert source.thresholds.value[0] == before
        # not heard as feedback: the feedback clock did not move
        assert source.thresholds.last_feedback[0] == 0.0


class TestRefreshSemantics:
    def test_stale_refresh_for_staleness_metric(self):
        """A delayed refresh carrying an old value leaves the copy stale
        under the staleness metric when the source moved on."""
        obj = DataObject(index=0, source_id=0)
        metric = Staleness()
        obj.apply_update(1.0, 1.0, metric)
        obj.apply_update(2.0, 2.0, metric)
        obj.apply_refresh(3.0, delivered_value=1.0, delivered_count=1,
                          metric=metric)
        assert obj.truth_divergence == 1.0

    def test_refresh_of_never_updated_object(self):
        obj = DataObject(index=0, source_id=0, value=7.0)
        obj.apply_refresh(5.0, delivered_value=7.0, delivered_count=0,
                          metric=ValueDeviation())
        assert obj.truth_divergence == 0.0


class TestFig5WithExternalTrace:
    def test_runs_from_csv_trace(self, tmp_path):
        """The real-TAO drop-in path: write a synthetic trace to CSV and
        feed it through the Figure 5 runner."""
        trace = generate_buoy_trace(np.random.default_rng(0), days=1.0,
                                    num_buoys=4)
        path = str(tmp_path / "tao.csv")
        trace.to_csv(path)
        matrix = MATRICES["fig5"]
        points = run_matrix(matrix, matrix.parse(
            ["bandwidths=5", "days=1", "warmup-days=0.25",
             f"trace-csv={path}"]))
        assert len(points) == 1
        assert points[0]["ideal"]["unweighted"] >= 0.0


class TestOverheadExperiment:
    def test_overhead_points_structure(self):
        matrix = MATRICES["overhead"]
        points = run_matrix(matrix, matrix.parse(
            ["sources=3", "objects=4", "warmup=30", "measure=120"]))
        (point,) = points
        assert point["sources"] == 3
        assert 0.0 <= point["overhead"] < 0.5
        assert point["refreshes"] > 0

    def test_predicted_fraction_matches_analysis(self):
        """X7 quotes the analysis' equilibrium share as its prediction."""
        from repro.analysis.equilibrium import (
            equilibrium_overhead_fraction,
        )
        title = MATRICES["overhead"].title({})
        assert title.endswith(
            f"equilibrium ~{equilibrium_overhead_fraction():.3f})")


class TestWorkloadLayout:
    def test_source_of_mapping(self):
        from repro.workloads.synthetic import uniform_random_walk
        workload = uniform_random_walk(3, 7, 50.0,
                                       np.random.default_rng(0))
        for index in range(21):
            assert workload.source_of(index) == index // 7

    def test_single_object_workload(self):
        from repro.workloads.synthetic import uniform_random_walk
        workload = uniform_random_walk(1, 1, 100.0,
                                       np.random.default_rng(1),
                                       rate_range=(0.5, 0.5))
        assert workload.num_objects == 1
        assert workload.trace.num_objects == 1


NAN = float("nan")
INF = float("inf")


def _context(**settings):
    from repro.policies.base import SimulationContext
    from repro.workloads.synthetic import uniform_random_walk
    workload = uniform_random_walk(1, 2, 10.0, np.random.default_rng(0))
    return SimulationContext(workload, ValueDeviation(), **settings)


class TestNonFiniteSettings:
    """A NaN setting (or an infinite rate) fails where it is given, not
    deep inside a run: every check is a negated comparison, which a NaN
    fails too."""

    CASES = {
        "RunSpec.resample_interval": lambda: RunSpec(
            warmup=10.0, measure=50.0, resample_interval=NAN),
        "RetryPolicy.timeout": lambda: RetryPolicy(timeout=NAN),
        "RetryPolicy.backoff": lambda: RetryPolicy(backoff=NAN),
        "RetryPolicy.max_attempts": lambda: RetryPolicy(max_attempts=NAN),
        "ThresholdTable.alpha": lambda: ThresholdTable(alpha=NAN),
        "ThresholdTable.initial": lambda: ThresholdTable(initial=NAN),
        "ThresholdTable.omega": lambda: ThresholdTable(omega=NAN),
        "ThresholdTable.feedback_ttl": lambda: ThresholdTable(
            feedback_ttl=NAN),
        "ThresholdTable.feedback_period": lambda: ThresholdTable(
            feedback_period=NAN),
        "CooperativePolicy.sampling_interval": lambda: CooperativePolicy(
            CACHE, SOURCES, AreaPriority(), sampling_interval=NAN),
        "CooperativePolicy.batch_timeout": lambda: CooperativePolicy(
            CACHE, SOURCES, AreaPriority(), batch_timeout=NAN),
        "CooperativePolicy.batch_size": lambda: CooperativePolicy(
            CACHE, SOURCES, AreaPriority(), batch_size=NAN),
        "SamplingMonitor.interval": lambda: SamplingMonitor(
            AreaPriority(), StaticWeights.uniform(1), ValueDeviation(),
            interval=NAN),
        "RebalanceConfig.interval": lambda: RebalanceConfig(interval=NAN),
        "RebalanceConfig.peer_rate": lambda: RebalanceConfig(
            peer_rate=NAN),
        "RebalanceConfig.saturation_queue": lambda: RebalanceConfig(
            saturation_queue=NAN),
        "RebalanceConfig.max_moves": lambda: RebalanceConfig(
            max_moves=NAN),
        "SineBandwidth.mean-nan": lambda: SineBandwidth(
            mean=NAN, max_change_rate=0.1),
        "SineBandwidth.mean-inf": lambda: SineBandwidth(
            mean=INF, max_change_rate=0.1),
        "SineBandwidth.max_change_rate": lambda: SineBandwidth(
            mean=1.0, max_change_rate=NAN),
        "ConstantBandwidth-nan": lambda: ConstantBandwidth(NAN),
        "ConstantBandwidth-inf": lambda: ConstantBandwidth(INF),
        "TraceBandwidth.rates": lambda: TraceBandwidth([0.0, 1.0],
                                                       [1.0, NAN]),
        "TopologyConfig.cache_rates-nan": lambda: TopologyConfig(
            kind="sharded", num_caches=2, cache_rates=(NAN, 1.0)),
        "TopologyConfig.cache_rates-inf": lambda: TopologyConfig(
            kind="sharded", num_caches=2, cache_rates=(1.0, INF)),
        "SimulationContext.dt": lambda: _context(dt=NAN),
        "CacheCrash.time": lambda: CacheCrash(time=NAN),
        "check_hotspot.hot_boost": lambda: check_hotspot(hot_boost=NAN),
    }
    #: The simulator refuses a NaN time with its own error.
    SIMULATOR_CASES = {
        "Simulator.at": lambda: Simulator().at(NAN, lambda: None),
        "Simulator.schedule": lambda: Simulator().schedule(
            NAN, lambda: None),
        "Simulator.wake_at": lambda: Simulator().wake_at(
            "key", NAN, lambda: None),
        "Simulator.every": lambda: Simulator().every(
            NAN, lambda now: None),
    }

    @pytest.mark.parametrize("case", sorted(CASES) + sorted(SIMULATOR_CASES))
    def test_refused_when_given(self, case):
        if case in self.CASES:
            build, error = self.CASES[case], ValueError
        else:
            build, error = self.SIMULATOR_CASES[case], SimulationError
        with pytest.raises(error):
            build()
