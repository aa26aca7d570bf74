"""Synthetic workload builders matching the paper's experiment setups.

A :class:`Workload` bundles everything the runner needs: object layout
(``m`` sources x ``n`` objects each), true update rates, the update trace,
and a weight model.  Builders:

* :func:`uniform_random_walk` -- rates ``lambda_i ~ U(0, 1)``, +-1 random
  walks, Poisson or Bernoulli-per-second arrivals (Secs 4.3, 6.1-6.3).
* :func:`skewed_validation` -- the Sec 4.3 skew: an independently chosen
  half of the objects gets weight 10 (rest weight 1), and an independently
  chosen half updates with probability 0.01 per second (rest update every
  second).
* :func:`Workload.subset_rates` etc. give policies access to true rates
  (the cooperative sources know their own ``lambda_i``; CGM baselines must
  estimate them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.weights import SineWeights, StaticWeights, WeightModel
from repro.workloads.random_walk import random_walk_values_batch
from repro.workloads.read_process import ReadTrace, uniform_reads
from repro.workloads.trace import UpdateTrace
from repro.workloads.update_process import (
    bernoulli_tick_times_batch,
    poisson_times_batch,
)


@dataclass
class Workload:
    """Objects, their true rates, the update trace, and refresh weights."""

    num_sources: int
    objects_per_source: int
    rates: np.ndarray  #: true mean update rate per object
    trace: UpdateTrace
    weights: WeightModel
    horizon: float

    def __post_init__(self) -> None:
        n_total = self.num_sources * self.objects_per_source
        if len(self.rates) != n_total:
            raise ValueError(
                f"expected {n_total} rates, got {len(self.rates)}")
        if self.trace.num_objects != n_total:
            raise ValueError(
                f"trace covers {self.trace.num_objects} objects, "
                f"expected {n_total}")
        if self.weights.n != n_total:
            raise ValueError(
                f"weight model covers {self.weights.n} objects, "
                f"expected {n_total}")
        #: owning source of every global object index (row-major layout);
        #: loops over objects index this instead of calling
        #: :meth:`source_of` per element.
        self.owner: np.ndarray = np.repeat(
            np.arange(self.num_sources, dtype=np.int64),
            self.objects_per_source)

    @property
    def num_objects(self) -> int:
        return self.num_sources * self.objects_per_source

    def source_of(self, index: int) -> int:
        """Owning source of a global object index (row-major layout)."""
        return int(self.owner[index])

    def shard(self, sources: np.ndarray) -> "Workload":
        """The sub-workload owned by ``sources``, relabeled ``0..k-1``.

        Slices rates, trace, and weights to the given sources' objects
        (row-major blocks), renumbering sources and objects monotonically
        when ``sources`` is ascending -- ascending-id tie-breaks in heaps
        and wakeup sets then keep their relative order, which is what the
        shard-parallel ≡ serial equivalence argument relies on (DESIGN.md
        Sec 11).

        An empty ``sources`` yields a valid empty workload; out-of-range
        or duplicate source ids are rejected (negative ids would silently
        wrap under numpy indexing, duplicates would silently break the
        relabeling bijection).
        """
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        if len(sources):
            if (sources < 0).any() or (sources >= self.num_sources).any():
                raise ValueError(
                    f"shard source ids must be in [0, {self.num_sources}), "
                    f"got {sources.tolist()}")
            if len(np.unique(sources)) != len(sources):
                raise ValueError(
                    f"shard source ids must be unique, "
                    f"got {sources.tolist()}")
        ops = self.objects_per_source
        objects = (sources[:, None] * ops
                   + np.arange(ops, dtype=np.int64)[None, :]).reshape(-1)
        return Workload(num_sources=len(sources),
                        objects_per_source=ops,
                        rates=self.rates[objects],
                        trace=self.trace.subset(objects),
                        weights=self.weights.subset(objects),
                        horizon=self.horizon)

    def read_stream(self, rng: np.random.Generator,
                    read_rate: float | np.ndarray = 1.0) -> ReadTrace:
        """A client read stream matched to this workload's shape.

        Poisson reads per object over the workload's own horizon; pass a
        dedicated rng stream (e.g. ``RngRegistry.stream("reads")``) so the
        read draw count never perturbs the seeded update trace.
        """
        return uniform_reads(self.num_objects, self.horizon, rng,
                             read_rate=read_rate)


def _trace_from_event_stream(times: np.ndarray, owners: np.ndarray,
                             rng: np.random.Generator,
                             num_objects: int,
                             initial_values: np.ndarray | None = None,
                             walk_step: float = 1.0) -> UpdateTrace:
    """Assemble a random-walk trace from an *object-major* event stream.

    ``(times, owners)`` is the struct-of-arrays layout the batched samplers
    produce: grouped by object, time-sorted within each group.  Walk values
    are attached by a single segmented cumulative sum (the per-object
    chronological order is exactly the object-major order), and one lexsort
    merges the whole stream into trace order -- no python-level loop over
    events or objects anywhere.
    """
    if initial_values is None:
        initial_values = np.zeros(num_objects)
    counts = np.bincount(owners, minlength=num_objects)
    values = random_walk_values_batch(counts, rng, initial_values,
                                      step=walk_step)
    # Trace order: time-sorted, ties broken by object index.
    order = np.lexsort((owners, times))
    return UpdateTrace(num_objects=num_objects, times=times[order],
                       object_indices=owners[order], values=values[order],
                       initial_values=initial_values)


def uniform_random_walk(num_sources: int, objects_per_source: int,
                        horizon: float, rng: np.random.Generator,
                        rate_range: tuple[float, float] = (0.0, 1.0),
                        arrivals: str = "poisson",
                        fluctuating_weights: bool = False,
                        walk_step: float = 1.0) -> Workload:
    """Random-walk objects with uniformly random rates (Secs 4.3/6.2/6.3).

    ``arrivals`` is ``"poisson"`` (Figure 4/6 experiments) or
    ``"bernoulli"`` (the Sec 4.3 validation's per-second coin flips).
    ``fluctuating_weights`` switches from all-ones weights to the randomly
    parameterized sine weights of Sec 6.  Arrivals and walks are drawn for
    all objects at once (batched numpy draws, feasible at m ~ 10^5).
    """
    n_total = num_sources * objects_per_source
    rates = rng.uniform(*rate_range, size=n_total)
    if arrivals not in ("poisson", "bernoulli"):
        raise ValueError(f"unknown arrival model {arrivals!r}")
    if arrivals == "poisson":
        times, owners = poisson_times_batch(rates, horizon, rng)
    else:
        times, owners = bernoulli_tick_times_batch(rates, horizon, rng)
    trace = _trace_from_event_stream(times, owners, rng, n_total,
                                     walk_step=walk_step)
    if fluctuating_weights:
        weights: WeightModel = SineWeights.random(n_total, rng)
    else:
        weights = StaticWeights.uniform(n_total)
    return Workload(num_sources=num_sources,
                    objects_per_source=objects_per_source,
                    rates=rates, trace=trace, weights=weights,
                    horizon=horizon)


def skewed_validation(horizon: float, rng: np.random.Generator,
                      num_objects: int = 100,
                      heavy_weight: float = 10.0,
                      slow_prob: float = 0.01) -> Workload:
    """The Sec 4.3 skewed single-source workload.

    "a randomly-selected half of which were assigned a weight of 10 while
    the other half received a weight of 1.  An independently- and
    randomly-selected half of the objects were updated with probability
    0.01 while the other half were updated consistently every second."
    """
    if num_objects % 2:
        raise ValueError(f"num_objects must be even, got {num_objects}")
    half = num_objects // 2
    weight_values = np.ones(num_objects)
    weight_values[rng.permutation(num_objects)[:half]] = heavy_weight
    rates = np.full(num_objects, 1.0)
    rates[rng.permutation(num_objects)[:half]] = slow_prob
    times, owners = bernoulli_tick_times_batch(rates, horizon, rng)
    trace = _trace_from_event_stream(times, owners, rng, num_objects)
    return Workload(num_sources=1, objects_per_source=num_objects,
                    rates=rates, trace=trace,
                    weights=StaticWeights(weight_values), horizon=horizon)
