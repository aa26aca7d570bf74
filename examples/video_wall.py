#!/usr/bin/env python
"""A video wall refreshing screen regions (the paper's CU-SeeMe example).

A conferencing viewer shows a grid of remote camera tiles.  Each tile is a
"data object" whose value drifts as the remote scene changes; the uplink
can repaint only a few tiles per frame interval.  Following the CU-SeeMe
discussion in the paper, refreshes are prioritized by *value deviation*
(how different the on-screen tile is from the camera), weighted by tile
prominence (center tiles and the active speaker matter more).

The example contrasts the paper's area priority with the naive
"repaint the most different tile" rule (Sec 4.3's strawman) and reports
the viewer-perceived error under each.

Run:  python examples/video_wall.py
"""

import numpy as np

from repro.core import (
    AreaPriority,
    SimpleDivergencePriority,
    StaticWeights,
    ValueDeviation,
)
from repro.experiments import RunSpec, run_policy
from repro.metrics import format_table
from repro.network import ConstantBandwidth
from repro.policies import IdealCooperativePolicy
from repro.workloads import bernoulli_tick_times_batch, uniform_random_walk
from repro.workloads.synthetic import _trace_from_event_stream


def build_wall(seed: int, horizon: float, grid: int = 6):
    """A grid x grid wall; a few tiles are 'active' (fast scene motion)."""
    rng = np.random.default_rng(seed)
    tiles = grid * grid
    workload = uniform_random_walk(
        num_sources=1, objects_per_source=tiles, horizon=horizon, rng=rng,
        rate_range=(0.02, 0.1))  # background tiles: slow drift
    # A handful of active tiles (speaker + movement) churn every frame.
    active = rng.choice(tiles, size=4, replace=False)
    # Regenerate rates with the active tiles hot, then rebuild the trace
    # by re-sampling the workload with explicit rates.
    rates = np.array(workload.rates)
    rates[active] = 1.0
    times, owners = bernoulli_tick_times_batch(rates, horizon, rng)
    workload.trace = _trace_from_event_stream(times, owners, rng, tiles)
    workload.rates = rates
    # Prominence: center tiles weighted up, the speaker tile most.
    weights = np.ones(tiles)
    for idx in range(tiles):
        row, col = divmod(idx, grid)
        center_dist = abs(row - grid / 2 + 0.5) + abs(col - grid / 2 + 0.5)
        weights[idx] = 1.0 + max(0.0, 3.0 - center_dist)
    weights[active[0]] *= 3.0  # active speaker
    workload.weights = StaticWeights(weights)
    return workload


def main() -> None:
    spec = RunSpec(warmup=60.0, measure=300.0)
    repaint_budget = 6.0  # tiles repaintable per second

    rows = []
    for name, priority in (
            ("area priority (paper Sec 3.3)", AreaPriority()),
            ("naive: most-different tile first",
             SimpleDivergencePriority())):
        workload = build_wall(seed=3, horizon=spec.end_time)
        policy = IdealCooperativePolicy(ConstantBandwidth(repaint_budget),
                                        priority)
        result = run_policy(workload, ValueDeviation(), policy, spec)
        rows.append([name, result.weighted_divergence,
                     result.refreshes])

    print(format_table(
        ["repaint scheduler", "perceived error (weighted)", "repaints"],
        rows,
        title=f"36-tile wall, {repaint_budget:.0f} repaints/s"))
    print()
    area, naive = rows[0][1], rows[1][1]
    print(f"The naive rule chases the fast-moving tiles (which are "
          f"immediately different\nagain), raising weighted error by "
          f"{100 * (naive / area - 1):.0f}%; the paper's priority "
          f"repaints tiles whose\nrepaints will actually stay accurate "
          f"for a while.")


if __name__ == "__main__":
    main()
