"""Tests for the E9 scale experiment (shape-preserving tiny sizes)."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from repro.experiments.scale import (
    ScalePoint,
    render_scale,
    run_scale,
    sparse_workload,
)

from oracles import reference_schedule

_CHECKER = Path(__file__).resolve().parents[1] / "benchmarks" \
    / "check_scale_regression.py"
_spec = importlib.util.spec_from_file_location("check_scale_regression",
                                               _CHECKER)
check_scale_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_scale_regression)
compare = check_scale_regression.compare
point_key = check_scale_regression.point_key


class TestSparseWorkload:
    def test_one_object_per_source_at_fixed_rate(self):
        rng = np.random.default_rng(0)
        workload = sparse_workload(25, 100.0, rng, update_rate=0.01)
        assert workload.num_sources == 25
        assert workload.objects_per_source == 1
        assert np.allclose(workload.rates, 0.01)

    def test_sparse_means_few_updates(self):
        rng = np.random.default_rng(0)
        workload = sparse_workload(50, 200.0, rng, update_rate=0.002)
        # Expected updates: 50 sources * 0.002/s * 200 s = 20 << ticks * m.
        assert len(workload.trace) < 60


def outcome(point):
    return (point.weighted_divergence, point.refreshes,
            point.feedback_messages)


class TestRunScale:
    def test_tick_and_event_points_agree(self):
        """The sweep's point equals the reference tick-scan schedule's."""
        (point,) = run_scale(sources=(20,), warmup=10.0, measure=60.0)
        with reference_schedule():
            (reference,) = run_scale(sources=(20,), warmup=10.0,
                                     measure=60.0)
        assert outcome(point) == outcome(reference)
        assert point.wall_seconds > 0

    def test_tick_baseline_skipped_above_cap(self):
        """One point per source count: no tick-scan baseline at any m."""
        points = run_scale(sources=(30, 15), warmup=10.0, measure=40.0)
        assert [p.num_sources for p in points] == [30, 15]
        assert all(p.topology == "star" and p.workers == 1
                   for p in points)

    def test_render_lists_every_point(self):
        points = run_scale(sources=(15, 25), warmup=10.0, measure=40.0)
        text = render_scale(points, "tiny sweep")
        assert "tiny sweep" in text
        assert "gen s" in text and "divergence" in text
        assert "scheduler" not in text and "replay" not in text
        rows = [line.split()[0] for line in text.splitlines()]
        assert "15" in rows and "25" in rows


class TestGenerators:
    def test_points_carry_generation_metadata(self):
        points = run_scale(sources=(15,), warmup=10.0, measure=40.0)
        assert all(p.gen_seconds >= 0 for p in points)


# ----------------------------------------------------------------------
# The perf-regression gate across the retirement of the twin paths
# ----------------------------------------------------------------------
def old_point(wall, **fields):
    """A baseline point as BENCH_scale.json recorded it before the
    scheduler, replay and generator fields were retired."""
    return {"num_sources": 100000, "scheduling": "event",
            "wall_seconds": wall, "weighted_divergence": 0.49,
            "refreshes": 4792, "feedback_messages": 8,
            "gen_seconds": 0.05, "generator": "vectorized",
            "replay": "batched", "workers": 1, "topology": "star",
            **fields}


def new_point(wall):
    """The same point as the current ScalePoint serializes it."""
    point = ScalePoint(num_sources=100000, wall_seconds=wall,
                       weighted_divergence=0.49, refreshes=4792,
                       feedback_messages=8, gen_seconds=0.05)
    return json.loads(json.dumps(point.__dict__))


class TestRegressionCheck:
    BASELINE = {"points": [old_point(3.3, replay="event"),
                           old_point(2.7),
                           old_point(0.4, num_sources=1000,
                                     scheduling="tick")]}

    def verdicts(self, wall):
        lines = compare(self.BASELINE, {"points": [new_point(wall)]}, 0.2)
        return {line.split()[0] for line in lines}, lines

    def test_old_baseline_matches_the_batched_point(self):
        assert point_key(new_point(2.7)) == point_key(old_point(2.7))
        assert point_key(new_point(2.7)) != point_key(
            old_point(3.3, replay="event"))

    def test_slower_by_a_quarter_fails(self):
        verdicts, lines = self.verdicts(2.75 * 1.25 - 0.05)
        assert "FAIL" in verdicts, lines
        assert not verdicts & {"NEW", "GONE"}, lines

    def test_slower_by_a_tenth_passes(self):
        verdicts, lines = self.verdicts(2.75 * 1.1 - 0.05)
        assert "ok" in verdicts and "FAIL" not in verdicts, lines
        assert not verdicts & {"NEW", "GONE"}, lines

    def test_retired_points_are_reported_not_compared(self):
        _, lines = self.verdicts(2.7)
        retired = [line for line in lines if line.startswith("RETIRED")]
        assert len(retired) == 2
        assert any("'tick'" in line for line in retired)
        assert any("'event', 1," in line for line in retired)
