"""Client read streams: *who reads what when* on the cache side.

The update side of a workload is an :class:`~repro.workloads.trace.UpdateTrace`
replayed into the sources; this module is its mirror image for the cache
side: a :class:`ReadTrace` of ``(time, object_index)`` client reads, built
from per-object Poisson read streams and replayed into a read model by a
:class:`ReadReplayer`.

Every object's read stream is drawn with O(1) numpy calls via
:func:`repro.workloads.update_process.poisson_times_batch`, the same
sampler the update side uses.

Reads fire in the METRICS phase, after every same-timestamp update has been
applied and every same-timestamp refresh delivered -- a read at time ``t``
observes the settled state of tick ``t``.  :func:`merge_reads_with_updates`
materializes that total order as one stream (updates before reads at equal
times) for inspection and snapshot tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.events import Phase
from repro.workloads.trace import batch_end
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
        if len(self.times) and (np.diff(self.times) < 0).any():
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
    raw_times, owners = poisson_times_batch(rates, horizon, rng)
    # Same total order as the update pipeline: time-sorted, ties broken by
    # object index.
    order = np.lexsort((owners, raw_times))
    return ReadTrace(num_objects=num_objects, times=raw_times[order],
                     object_indices=owners[order])


def merge_reads_with_updates(read_trace: ReadTrace, update_trace
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge a read trace and an update trace into one event stream.

    Returns ``(times, object_indices, is_read)``, time-sorted with updates
    strictly before reads at equal timestamps -- the order the simulator's
    phase machinery produces (updates fire in the UPDATES phase, reads in
    METRICS), materialized so tests and docs can snapshot the interleaving
    without running a simulation.  Within each kind, equal-time ties break
    by object index, matching each trace's own total order.
    """
    if read_trace.num_objects != update_trace.num_objects:
        raise ValueError(
            f"read trace covers {read_trace.num_objects} objects, update "
            f"trace {update_trace.num_objects}")
    times = np.concatenate([update_trace.times, read_trace.times])
    indices = np.concatenate([update_trace.object_indices,
                              read_trace.object_indices])
    is_read = np.concatenate([
        np.zeros(len(update_trace.times), dtype=bool),
        np.ones(len(read_trace.times), dtype=bool),
    ])
    order = np.lexsort((indices, is_read, times))
    return times[order], indices[order], is_read[order]


class ReadReplayer:
    """Feeds a :class:`ReadTrace` into a :class:`Simulator`.

    Mirrors :class:`~repro.workloads.trace.TraceReplayer`: only one event
    (the next read) is in the simulator's queue at a time, so large read
    traces never bloat the heap.  Reads fire in the METRICS phase, after
    all same-timestamp update/network/cache work.

    One firing serves every read strictly before the next foreign
    simulator event in one ``on_read_batch`` call.  Because the update
    replayer keeps its own next event queued, a read batch can never leap
    past a pending update -- consecutive reads between simulator wakeups
    are exactly what gets batched.  Reads are measurement-only (they never
    touch simulator state), so the batch is trivially bit-for-bit
    equivalent to one read per firing as long as the handler processes
    reads in order.

    ``on_read_batch`` receives numpy array views ``(times, indices)``;
    when omitted, a loop over ``on_read`` is used.
    """

    def __init__(self, sim: Simulator, trace: ReadTrace,
                 on_read: Callable[[float, int], None],
                 on_read_batch=None) -> None:
        self._sim = sim
        self._trace = trace
        self._on_read = on_read
        self._on_read_batch = on_read_batch if on_read_batch is not None \
            else self._default_on_read_batch
        self._cursor = 0
        self._schedule_next()

    @property
    def remaining(self) -> int:
        return len(self._trace) - self._cursor

    def _schedule_next(self) -> None:
        if self._cursor >= len(self._trace):
            return
        time = float(self._trace.times[self._cursor])
        self._sim.at(max(time, self._sim.now), self._fire,
                     phase=Phase.METRICS)

    def _fire(self) -> None:
        trace = self._trace
        end = batch_end(self._sim, trace.times, self._cursor)
        k = self._cursor
        self._on_read_batch(trace.times[k:end],
                            trace.object_indices[k:end])
        self._cursor = end
        self._schedule_next()

    def _default_on_read_batch(self, times, indices) -> None:
        sim = self._sim
        on_read = self._on_read
        for time, index in zip(times.tolist(), indices.tolist()):
            sim.now = time  # advance_clock inlined (hot loop)
            on_read(time, index)
