"""Figure 4 (E4): our algorithm vs. the idealized scenario.

For a grid of configurations (sources m, objects-per-source n, source-side
and cache-side bandwidth, bandwidth fluctuation rate mB), run both the
practical threshold algorithm and the idealized omniscient scheduler on the
same workload and plot, per divergence metric:

    x = average divergence theoretically attainable (ideal scheduler)
    y = ratio of our algorithm's divergence to the ideal's

The paper's finding: the ratio approaches 1 as the attainable divergence
grows (bandwidth-starved regimes), and stays modest (< ~4) everywhere.

Paper grid (m up to 1000, n up to 100, BC up to 100000, 5000 s) is CPU-days
in pure Python; the default grid here is shape-preserving but smaller, and
callers can pass the full paper grid explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from repro.core.divergence import make_metric
from repro.core.priority import default_priority_for
from repro.experiments.parallel import (
    ParallelRunner,
    WorkloadSpec,
    build_workload,
)
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import make_bandwidth
from repro.policies.cooperative import CooperativePolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.workloads.synthetic import uniform_random_walk


@dataclass
class Fig4Config:
    """Grid of configurations for the Figure 4 sweep."""

    sources: tuple[int, ...] = (1, 10, 50)
    objects_per_source: tuple[int, ...] = (1, 10)
    source_bandwidths: tuple[float, ...] = (10.0,)
    cache_bandwidths: tuple[float, ...] = (10.0, 100.0)
    change_rates: tuple[float, ...] = (0.0, 0.25)
    metrics: tuple[str, ...] = ("deviation", "lag", "staleness")
    warmup: float = 50.0
    measure: float = 300.0
    seed: int = 0
    max_objects: int = 2000  #: skip grid points above this object count


@dataclass
class Fig4Point:
    """One (configuration, metric) data point of Figure 4."""

    metric: str
    num_sources: int
    objects_per_source: int
    source_bandwidth: float
    cache_bandwidth: float
    change_rate: float
    ideal_divergence: float
    actual_divergence: float

    @property
    def ratio(self) -> float:
        """y-axis of Figure 4: actual / theoretically attainable."""
        if self.ideal_divergence <= 0:
            return 1.0 if self.actual_divergence <= 0 else float("inf")
        return self.actual_divergence / self.ideal_divergence


def _run_fig4_cell(payload: tuple) -> list[Fig4Point]:
    """One grid cell (all metrics, both policies), picklable for tier 1.

    The workload is rebuilt from the cell's derived seed, so any process
    -- the serial loop or a pool worker -- produces the bit-identical
    trace and hence bit-identical points.
    """
    config, m, n, bs, bc, mb = payload
    points: list[Fig4Point] = []
    seed = hash((m, n, bs, bc, mb, config.seed)) & 0x7FFFFFFF
    wspec = WorkloadSpec.make(
        uniform_random_walk, seed, num_sources=m, objects_per_source=n,
        horizon=config.warmup + config.measure,
        fluctuating_weights=True)
    workload = build_workload(wspec)
    spec = RunSpec(warmup=config.warmup, measure=config.measure,
                   resample_interval=10.0)
    for metric_name in config.metrics:
        metric = make_metric(metric_name)
        priority = default_priority_for(metric_name)
        ideal = IdealCooperativePolicy(
            make_bandwidth(bc, mb), priority,
            source_bandwidths=[
                make_bandwidth(bs, mb, phase=float(j))
                for j in range(m)
            ])
        actual = CooperativePolicy(
            cache_bandwidth=make_bandwidth(bc, mb),
            source_bandwidths=[
                make_bandwidth(bs, mb, phase=float(j))
                for j in range(m)
            ],
            priority_fn=priority)
        ideal_result = run_policy(workload, metric, ideal, spec)
        actual_result = run_policy(workload, metric, actual, spec)
        points.append(Fig4Point(
            metric=metric_name, num_sources=m, objects_per_source=n,
            source_bandwidth=bs, cache_bandwidth=bc, change_rate=mb,
            ideal_divergence=ideal_result.weighted_divergence,
            actual_divergence=actual_result.weighted_divergence))
    return points


def run_fig4(config: Fig4Config = Fig4Config(),
             workers: int = 1) -> list[Fig4Point]:
    """Run the grid; returns one point per (configuration, metric).

    ``workers`` > 1 distributes grid cells over a process pool; the
    result list is identical (bit for bit, cell order preserved) to the
    serial sweep.
    """
    grid = product(config.sources, config.objects_per_source,
                   config.source_bandwidths, config.cache_bandwidths,
                   config.change_rates)
    cells = [(config, m, n, bs, bc, mb)
             for m, n, bs, bc, mb in grid
             if m * n <= config.max_objects]
    results = ParallelRunner(workers).map(_run_fig4_cell, cells)
    return [point for cell_points in results for point in cell_points]


def series_by_metric(points: list[Fig4Point]
                     ) -> dict[str, list[tuple[float, float]]]:
    """Group points into the three panels, sorted by the x-axis."""
    panels: dict[str, list[tuple[float, float]]] = {}
    for point in points:
        panels.setdefault(point.metric, []).append(
            (point.ideal_divergence, point.ratio))
    for series in panels.values():
        series.sort()
    return panels
