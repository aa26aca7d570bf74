"""Edge-case coverage across modules: optional wiring, odd inputs."""

import numpy as np
import pytest

from repro.cache.cache import CacheNode
from repro.core.divergence import Staleness, ValueDeviation
from repro.core.objects import DataObject
from repro.core.priority import AreaPriority
from repro.core.weights import StaticWeights
from repro.experiments.matrix import MATRICES, run_matrix
from repro.network.bandwidth import ConstantBandwidth
from repro.network.messages import PollRequest, RefreshMessage
from repro.network.topology import Topology
from repro.policies.cache_driven import CGMPollingPolicy, IdealCacheBasedPolicy
from repro.policies.competitive import CompetitivePolicy
from repro.policies.cooperative import CooperativePolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.policies.uniform import UniformAllocationPolicy
from repro.workloads.buoy import generate_buoy_trace


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
        assert objects[0].truth.divergence == 0.0

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
        from repro.core.threshold import ThresholdController
        from repro.core.tracking import PriorityTracker
        from repro.core.weights import StaticWeights
        from repro.source.monitor import TriggerMonitor
        from repro.source.source import SourceNode

        topology = Topology([ConstantBandwidth(10.0)],
                            [ConstantBandwidth(5.0)])
        objects = [DataObject(index=0, source_id=0)]
        source = SourceNode(
            0, objects,
            TriggerMonitor(PriorityTracker(), SimpleDivergencePriority(),
                           StaticWeights.uniform(1)),
            ThresholdController(), topology)
        before = source.threshold.value
        source.on_message(PollRequest(source_id=0, object_index=0), 1.0)
        assert source.threshold.value == before
        assert source.feedback_received == 0


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
        assert obj.truth.divergence == 1.0

    def test_refresh_of_never_updated_object(self):
        obj = DataObject(index=0, source_id=0, value=7.0)
        obj.apply_refresh(5.0, delivered_value=7.0, delivered_count=0,
                          metric=ValueDeviation())
        assert obj.truth.divergence == 0.0


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
