"""The sparse workload of the E9 scale sweep (``repro matrix scale``).

Cooperative-caching studies at realistic scale (thousands of
nodes/objects; see PAPERS.md) live in a regime the paper's per-second
scan of every source cannot reach: many sources, each updating rarely
(``lambda << 1/dt``).  Sources, caches and links wake per entity, so a
run's work is proportional to updates, refreshes, feedback and sampling
deadlines, not to m x ticks.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.synthetic import Workload, uniform_random_walk


def sparse_workload(num_sources: int, horizon: float,
                    rng: np.random.Generator,
                    update_rate: float = 0.002) -> Workload:
    """One object per source, all updating at the same sparse Poisson rate.

    ``update_rate`` defaults to 0.002/s: with dt = 1 s the expected number
    of updates per source per tick is 1/500, i.e. almost every tick is
    idle for almost every source -- the regime the wakeup layer targets.
    """
    return uniform_random_walk(
        num_sources=num_sources, objects_per_source=1, horizon=horizon,
        rng=rng, rate_range=(update_rate, update_rate))
