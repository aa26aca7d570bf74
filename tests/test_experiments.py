"""Tests for the paper's experiments on the scenario matrix (tiny sizes)."""

import pytest

from repro.experiments.matrix import (
    MATRICES,
    increase_pct,
    ratio_to_ideal,
    run_matrix,
    series_by_curve,
    series_by_metric,
)
from repro.experiments.runner import RunSpec


def run(name, settings):
    """``(params, rows)`` of one paper matrix at ``settings``."""
    matrix = MATRICES[name]
    params = matrix.parse(settings.split())
    return params, run_matrix(matrix, params)


def render(name, settings):
    return MATRICES[name].render(*run(name, settings))


class TestRunSpec:
    def test_end_time(self):
        assert RunSpec(warmup=10.0, measure=40.0).end_time == 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec(warmup=-1.0, measure=10.0)
        with pytest.raises(ValueError):
            RunSpec(warmup=0.0, measure=0.0)
        with pytest.raises(ValueError):
            RunSpec(warmup=0.0, measure=1.0, dt=0.0)


class TestValidationExperiment:
    def test_uniform_rows_cover_all_metrics(self):
        _, rows = run("e1", "objects=20 warmup=20 measure=100")
        assert [r["metrics"] for r in rows] == ["staleness", "lag",
                                                "deviation"]
        for row in rows:
            assert row["ours"]["divergence"] >= 0.0
            assert row["simple"]["divergence"] >= 0.0

    def test_skewed_shows_simple_penalty_on_lag(self):
        """The headline skew claim, scaled down: the strawman must be
        clearly worse under the lag metric."""
        _, rows = run("e2", "warmup=50 measure=400")
        lag_row = next(r for r in rows if r["metrics"] == "lag")
        assert increase_pct(lag_row) > 25.0

    def test_render(self):
        text = render("e1", "objects=10 warmup=10 measure=50")
        assert "staleness" in text and "E1" in text


class TestParameterGrid:
    def test_grid_shape_and_normalization(self):
        _, cells = run("e3", "alphas=1.1,1.5 omegas=5,10 sources=4 "
                             "objects=5 warmup=20 measure=100")
        assert len(cells) == 4
        best = min(cells, key=lambda cell: cell["divergence"])
        assert best["normalized"] == pytest.approx(1.0)
        assert all(cell["normalized"] >= 1.0 for cell in cells)

    def test_render(self):
        assert "alpha" in render("e3", "alphas=1.1 omegas=10 sources=2 "
                                       "objects=5 warmup=10 measure=50")


class TestFig4:
    def test_points_and_ratio(self):
        _, points = run("fig4", "sources=2 objects=5 source-bandwidths=5 "
                                "cache-bandwidths=5 change-rates=0 "
                                "metrics=staleness warmup=20 measure=100")
        assert len(points) == 1
        # practical can't beat ideal much
        assert ratio_to_ideal(points[0]) >= 0.9

    def test_max_objects_skips_large_configs(self):
        # 100 x 100 objects is above the grid's 2,000-object cap
        assert run("fig4", "sources=100 objects=100 metrics=staleness"
                   )[1] == []

    def test_series_grouping(self):
        params, points = run("fig4", "sources=2 objects=5 "
                                     "source-bandwidths=5 "
                                     "cache-bandwidths=3,6 change-rates=0 "
                                     "metrics=lag warmup=20 measure=80")
        series = series_by_metric(points)
        assert set(series) == {"lag"}
        assert len(series["lag"]) == 2
        xs = [x for x, _ in series["lag"]]
        assert xs == sorted(xs)
        assert "Figure 4" in MATRICES["fig4"].render(params, points)


class TestFig5:
    def test_divergence_decreases_with_bandwidth(self):
        _, points = run("fig5", "bandwidths=2,20 days=1.5 warmup-days=0.5")
        assert (points[0]["ideal"]["unweighted"]
                > points[1]["ideal"]["unweighted"])
        assert (points[0]["ours"]["unweighted"]
                > points[1]["ours"]["unweighted"])

    def test_actual_tracks_ideal(self):
        _, points = run("fig5", "bandwidths=10 days=1.5 warmup-days=0.5")
        p = points[0]
        assert (p["ours"]["unweighted"]
                <= 3.0 * p["ideal"]["unweighted"] + 0.2)

    def test_render(self):
        assert "bandwidth" in render("fig5", "bandwidths=5 days=1 "
                                             "warmup-days=0.25")


class TestFig6:
    def test_policy_ordering_holds(self):
        _, points = run("fig6", "sources=4 objects=10 fractions=0.5 "
                                "warmup=60 measure=240")
        staleness = {curve: points[0][curve]["unweighted"]
                     for curve in series_by_curve(points)}
        assert staleness["ideal-cooperative"] \
            <= staleness["our-algorithm"] * 1.05
        assert staleness["our-algorithm"] < staleness["cgm1"]
        assert staleness["ideal-cache-based"] < staleness["cgm1"]

    def test_series_and_render(self):
        params, points = run("fig6", "sources=2 objects=5 fractions=0.3,0.7 "
                                     "warmup=30 measure=120")
        series = series_by_curve(points)
        assert len(series["ideal-cooperative"]) == 2
        assert "fraction" in MATRICES["fig6"].render(params, points)
