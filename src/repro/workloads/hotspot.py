"""Hot-shard workload for the multi-cache scenario experiments.

A sharded edge deployment rarely sees balanced load: a few sources (a
popular site, a bursty sensor cluster) update far faster than the rest.
:func:`hotspot_shards` builds a random-walk workload where a fraction of
the *sources* is "hot" -- their objects update ``hot_boost`` times faster
-- so the cache nodes owning those sources face real congestion while the
others idle.

This is the regime where adaptive allocation matters: the cooperative
threshold protocol automatically spends each hot cache's budget on its
fastest-moving objects, while a static uniform allocation wastes budget
refreshing cold objects and floods nothing (see the ``multicache``
matrix in ``repro.experiments.matrix``).  Hot sources are chosen contiguously
from the front so that the block shard assignment concentrates them on
few caches (the adversarial layout).
"""

from __future__ import annotations

import numpy as np

from repro.core.weights import StaticWeights
from repro.workloads.synthetic import Workload, _trace_from_event_stream
from repro.workloads.update_process import poisson_times_batch


def check_hotspot(hot_fraction: float = 0.0, hot_boost: float = 1.0,
                  num_phases: int = 1,
                  rate_range: tuple[float, float] = (0.0, 1.0)) -> None:
    """Raise ``ValueError`` on an argument no hot-spot builder accepts.

    The builders call this first; the scenario matrices call it while
    declaring their cells, so a bad value is a usage error before any
    run instead of a traceback in the middle of a sweep.
    """
    if num_phases < 1:
        raise ValueError(f"num_phases must be >= 1, got {num_phases}")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError(
            f"hot_fraction must be in [0, 1], got {hot_fraction}")
    if hot_boost < 1.0:
        raise ValueError(f"hot_boost must be >= 1, got {hot_boost}")
    low, high = rate_range
    if not 0.0 <= low <= high:
        raise ValueError(
            f"rate_range must satisfy 0 <= low <= high, got {rate_range}")


def hotspot_shards(num_sources: int, objects_per_source: int,
                   horizon: float, rng: np.random.Generator,
                   hot_fraction: float = 0.25,
                   hot_boost: float = 8.0,
                   rate_range: tuple[float, float] = (0.0, 1.0)
                   ) -> Workload:
    """Random-walk objects where the first ``hot_fraction`` of sources
    update ``hot_boost`` times faster than the rest.

    Weights are uniform (the skew is in *update rates*, not importance),
    so divergence differences between policies come purely from how well
    refresh bandwidth tracks the update load.
    """
    check_hotspot(hot_fraction=hot_fraction, hot_boost=hot_boost,
                  rate_range=rate_range)
    n_total = num_sources * objects_per_source
    rates = rng.uniform(*rate_range, size=n_total)
    num_hot = int(round(hot_fraction * num_sources))
    hot_objects = num_hot * objects_per_source
    rates[:hot_objects] *= hot_boost
    times, owners = poisson_times_batch(rates, horizon, rng)
    trace = _trace_from_event_stream(times, owners, rng, n_total)
    return Workload(num_sources=num_sources,
                    objects_per_source=objects_per_source,
                    rates=rates, trace=trace,
                    weights=StaticWeights.uniform(n_total),
                    horizon=horizon)


def moving_hotspot(num_sources: int, objects_per_source: int,
                   horizon: float, rng: np.random.Generator,
                   num_phases: int = 4,
                   hot_fraction: float = 0.25,
                   hot_boost: float = 8.0,
                   rate_range: tuple[float, float] = (0.0, 1.0)
                   ) -> Workload:
    """A hot source block that *moves* across the shard space over time.

    The horizon is split into ``num_phases`` equal windows; in phase
    ``p`` the contiguous block of ``round(hot_fraction * num_sources)``
    sources starting at ``(p * num_hot) % num_sources`` updates
    ``hot_boost`` times faster (the block advances by its own width each
    phase, sweeping the whole id space when
    ``num_phases * hot_fraction >= 1``).  Under a static block shard
    assignment each phase saturates a *different* cache while the
    others idle -- the adversarial regime for static sharding and the
    target regime for a rebalancer that follows the heat.

    ``rates`` reports each object's time-averaged rate (what a policy
    that assumes stationarity gets to know); the trace itself is
    piecewise-Poisson per phase.  Weights stay uniform, as in
    :func:`hotspot_shards`.
    """
    check_hotspot(hot_fraction=hot_fraction, hot_boost=hot_boost,
                  num_phases=num_phases, rate_range=rate_range)
    n_total = num_sources * objects_per_source
    base_rates = rng.uniform(*rate_range, size=n_total)
    num_hot = int(round(hot_fraction * num_sources))
    phase_len = horizon / num_phases

    def phase_rates(p: int) -> np.ndarray:
        rates = base_rates.copy()
        if num_hot:
            hot = [((p * num_hot + i) % num_sources)
                   for i in range(num_hot)]
            for src in hot:
                lo = src * objects_per_source
                rates[lo:lo + objects_per_source] *= hot_boost
        return rates

    all_times: list[np.ndarray] = []
    all_owners: list[np.ndarray] = []
    for p in range(num_phases):
        times, owners = poisson_times_batch(phase_rates(p), phase_len, rng)
        all_times.append(times + p * phase_len)
        all_owners.append(owners)
    times = np.concatenate(all_times)
    owners = np.concatenate(all_owners)
    # Regroup the per-phase streams into the object-major layout
    # _trace_from_event_stream requires (owner-grouped, time-sorted within
    # each group).
    order = np.lexsort((times, owners))
    trace = _trace_from_event_stream(times[order], owners[order], rng,
                                     n_total)
    avg_rates = np.mean([phase_rates(p) for p in range(num_phases)],
                        axis=0)
    return Workload(num_sources=num_sources,
                    objects_per_source=objects_per_source,
                    rates=avg_rates, trace=trace,
                    weights=StaticWeights.uniform(n_total),
                    horizon=horizon)
