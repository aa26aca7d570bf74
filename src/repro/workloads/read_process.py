"""Client read streams: *who reads what when* on the cache side.

The update side of a workload is an :class:`~repro.workloads.trace.UpdateTrace`
replayed into the sources; this module is its mirror image for the cache
side: a :class:`ReadTrace` of ``(time, object_index)`` client reads, built
from per-object Poisson read streams and replayed into a read model by the
same :class:`~repro.workloads.trace.TraceReplayer` that replays updates.

Every object's read stream is drawn with O(1) numpy calls via
:func:`repro.workloads.update_process.poisson_times_batch`, the same
sampler the update side uses.

Reads fire in the METRICS phase, after every same-timestamp update has been
applied and every same-timestamp refresh delivered -- a read at time ``t``
observes the settled state of tick ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.update_process import poisson_times_batch


@dataclass
class ReadTrace:
    """Time-sorted client read stream over ``num_objects`` objects."""

    num_objects: int
    times: np.ndarray  #: float64, nondecreasing
    object_indices: np.ndarray  #: int64 in [0, num_objects)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.object_indices = np.asarray(self.object_indices,
                                         dtype=np.int64)
        if len(self.times) != len(self.object_indices):
            raise ValueError("times/object_indices lengths differ")
        if (self.times[1:] < self.times[:-1]).any():
            raise ValueError("read times must be nondecreasing")
        if len(self.object_indices) and (
                (self.object_indices < 0).any()
                or (self.object_indices >= self.num_objects).any()):
            raise ValueError("object index out of range")

    def __len__(self) -> int:
        return len(self.times)

    def reads_per_object(self) -> np.ndarray:
        """Number of reads each object receives over the whole trace."""
        return np.bincount(self.object_indices, minlength=self.num_objects)


def uniform_reads(num_objects: int, horizon: float,
                  rng: np.random.Generator,
                  read_rate: float | np.ndarray = 1.0) -> ReadTrace:
    """Independent Poisson read streams, one per object.

    ``read_rate`` is reads/second per object -- a scalar (every object
    equally popular, the uniform-popularity baseline) or a length-
    ``num_objects`` array (skewed read popularity).
    """
    rates = np.broadcast_to(np.asarray(read_rate, dtype=float),
                            (num_objects,))
    if (rates < 0).any():
        raise ValueError("read rates must be >= 0")
    times, owners = poisson_times_batch(rates, horizon, rng)
    # Same total order as the update pipeline: time-sorted, ties broken by
    # object index.  Each column is gathered and its object-major original
    # dropped before the next, so no more than four event-length arrays
    # are alive at once.
    order = np.lexsort((owners, times))
    times = times[order]
    owners = owners[order]
    del order
    return ReadTrace(num_objects=num_objects, times=times,
                     object_indices=owners)
