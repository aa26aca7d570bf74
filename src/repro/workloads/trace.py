"""Update traces: the immutable record of *what changes when*.

Comparing policies fairly (the whole point of Figures 4-6) requires running
each policy on bit-identical update streams.  An :class:`UpdateTrace` is a
time-sorted sequence of ``(time, object_index, new_value)`` triples that can
be generated once per configuration and replayed into any number of
simulations.  Traces round-trip through CSV so real data sets (e.g. a NOAA
TAO export) can be dropped in.  A :class:`TraceReplayer` feeds a trace into
a simulation, applying every event up to the next foreign simulator event
in one batch.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.events import Phase


@dataclass
class UpdateTrace:
    """Time-sorted update stream over ``num_objects`` objects."""

    num_objects: int
    times: np.ndarray  #: float64, nondecreasing
    object_indices: np.ndarray  #: int64 in [0, num_objects)
    values: np.ndarray  #: float64, the object's value after the update
    initial_values: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.object_indices = np.asarray(self.object_indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if not (len(self.times) == len(self.object_indices)
                == len(self.values)):
            raise ValueError("times/object_indices/values lengths differ")
        if len(self.times) and (np.diff(self.times) < 0).any():
            raise ValueError("trace times must be nondecreasing")
        if len(self.object_indices) and (
                (self.object_indices < 0).any()
                or (self.object_indices >= self.num_objects).any()):
            raise ValueError("object index out of range")
        if self.initial_values is None:
            self.initial_values = np.zeros(self.num_objects)
        else:
            self.initial_values = np.asarray(self.initial_values, dtype=float)
            if len(self.initial_values) != self.num_objects:
                raise ValueError("initial_values length != num_objects")

    def __len__(self) -> int:
        return len(self.times)

    @property
    def horizon(self) -> float:
        """Time of the last update (0 for an empty trace)."""
        return float(self.times[-1]) if len(self.times) else 0.0

    def __iter__(self) -> Iterator[tuple[float, int, float]]:
        for k in range(len(self.times)):
            yield (float(self.times[k]), int(self.object_indices[k]),
                   float(self.values[k]))

    def subset(self, objects: np.ndarray) -> "UpdateTrace":
        """The sub-trace touching ``objects``, relabeled ``0..k-1``.

        Object ``objects[j]`` becomes local index ``j``; events touching
        any other object are dropped.  Event order is preserved, so for a
        time-sorted trace the subset is time-sorted too and relative order
        between same-timestamp events on surviving objects is unchanged --
        which is what makes shard-parallel replay bit-identical to the
        interleaved serial schedule (disjoint shards never interact).
        Pass ``objects`` in ascending order to keep the relabeling
        monotone (ascending-id tie-breaks stay ascending locally).

        An empty ``objects`` yields a valid empty trace; out-of-range or
        duplicate object ids are rejected (negatives would silently wrap
        into the remap table, duplicates would silently collapse the
        relabeling to last-wins).
        """
        objects = np.atleast_1d(np.asarray(objects, dtype=np.int64))
        if len(objects):
            if (objects < 0).any() or (objects >= self.num_objects).any():
                raise ValueError(
                    f"subset object ids must be in [0, {self.num_objects}), "
                    f"got {objects.tolist()}")
            if len(np.unique(objects)) != len(objects):
                raise ValueError(
                    f"subset object ids must be unique, "
                    f"got {objects.tolist()}")
        remap = np.full(self.num_objects, -1, dtype=np.int64)
        remap[objects] = np.arange(len(objects), dtype=np.int64)
        local = remap[self.object_indices]
        mask = local >= 0
        return UpdateTrace(num_objects=len(objects),
                           times=self.times[mask],
                           object_indices=local[mask],
                           values=self.values[mask],
                           initial_values=self.initial_values[objects])

    def updates_per_object(self) -> np.ndarray:
        """Number of updates each object receives over the whole trace."""
        return np.bincount(self.object_indices, minlength=self.num_objects)

    def empirical_rates(self, horizon: float | None = None) -> np.ndarray:
        """Observed updates/second per object (for estimator sanity checks)."""
        if horizon is None:
            horizon = self.horizon
        if horizon <= 0:
            return np.zeros(self.num_objects)
        return self.updates_per_object() / horizon

    # ------------------------------------------------------------------
    # CSV round-trip
    # ------------------------------------------------------------------
    def to_csv(self, path: str) -> None:
        """Write ``time,object,value`` rows (initial values as t = -1)."""
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["time", "object", "value"])
            for index, value in enumerate(self.initial_values):
                writer.writerow([-1.0, index, repr(float(value))])
            for time, index, value in self:
                writer.writerow([repr(time), index, repr(value)])

    @classmethod
    def from_csv(cls, path: str,
                 num_objects: int | None = None) -> "UpdateTrace":
        """Read a trace written by :meth:`to_csv`.

        ``num_objects`` overrides the inferred object count.  Inference
        uses the largest object index present in the file, which silently
        *shrinks* the object space when trailing objects are quiet (no
        update and no initial-value row) -- external CSVs without the
        ``t = -1`` preamble :meth:`to_csv` writes hit exactly that.  Pass
        the true count to keep quiet tail objects addressable.

        Malformed rows raise :class:`ValueError` naming the offending
        line instead of surfacing an opaque conversion error.
        """
        times: list[float] = []
        indices: list[int] = []
        values: list[float] = []
        initials: dict[int, float] = {}
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header != ["time", "object", "value"]:
                raise ValueError(f"unexpected trace header: {header}")
            for line_no, row in enumerate(reader, start=2):
                if len(row) != 3:
                    raise ValueError(
                        f"{path}:{line_no}: expected 3 fields "
                        f"(time,object,value), got {len(row)}: {row!r}")
                try:
                    time = float(row[0])
                    index = int(row[1])
                    value = float(row[2])
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{line_no}: malformed trace row "
                        f"{row!r}: {exc}") from None
                if index < 0:
                    raise ValueError(
                        f"{path}:{line_no}: negative object index {index}")
                if time < 0:
                    initials[index] = value
                    continue
                times.append(time)
                indices.append(index)
                values.append(value)
        inferred = max(
            max(initials, default=-1),
            max(indices, default=-1),
        ) + 1
        if num_objects is None:
            num_objects = inferred
        elif inferred > num_objects:
            raise ValueError(
                f"{path} references object {inferred - 1} but "
                f"num_objects={num_objects}")
        initial_values = np.zeros(num_objects)
        for index, value in initials.items():
            initial_values[index] = value
        return cls(num_objects=num_objects,
                   times=np.array(times),
                   object_indices=np.array(indices, dtype=np.int64),
                   values=np.array(values),
                   initial_values=initial_values)


class TraceReplayer:
    """Feeds an :class:`UpdateTrace` into a :class:`Simulator`.

    Only one event is in the simulator's queue at a time (the next update),
    so million-event traces do not bloat the heap.  Updates fire in the
    ``UPDATES`` phase, before network/scheduling work at the same timestamp.

    One firing applies *every* trace event strictly before the simulator's
    next foreign event (and within the current
    :attr:`~repro.sim.engine.Simulator.run_horizon`) in a single
    ``apply_batch`` call -- no per-event heap churn.  This is bit-for-bit
    identical to firing once per event provided batch appliers advance the
    simulator clock per event and never schedule new simulator events (see
    DESIGN.md Sec 10 for the boundary argument; ``tests/oracles.py`` keeps
    the one-event-per-firing schedule as the reference).

    ``apply_batch`` receives equal-length numpy array views
    ``(times, indices, values)``; when omitted, a loop over
    ``apply_update`` (with the clock advanced per event) is used, which is
    exact for any applier that does not schedule simulator events.
    """

    def __init__(self, sim: Simulator, trace: UpdateTrace,
                 apply_update: Callable[[float, int, float], None],
                 apply_batch=None) -> None:
        self._sim = sim
        self._trace = trace
        self._apply = apply_update
        self._apply_batch = apply_batch if apply_batch is not None \
            else self._default_apply_batch
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
                     phase=Phase.UPDATES)

    def _fire(self) -> None:
        trace = self._trace
        end = batch_end(self._sim, trace.times, self._cursor)
        k = self._cursor
        self._apply_batch(trace.times[k:end],
                          trace.object_indices[k:end],
                          trace.values[k:end])
        self._cursor = end
        self._schedule_next()

    def _default_apply_batch(self, times, indices, values) -> None:
        sim = self._sim
        apply = self._apply
        for time, index, value in zip(times.tolist(), indices.tolist(),
                                      values.tolist()):
            sim.now = time  # advance_clock inlined (hot loop)
            apply(time, index, value)


def batch_end(sim: Simulator, times: np.ndarray, cursor: int) -> int:
    """End (exclusive) of the event run a replayer firing may apply.

    Called from inside the replayer's own firing, when its event is
    already off the heap: every queued event is *foreign*.  The batch
    covers events strictly before the next foreign event time -- a trace
    event at exactly that timestamp must go back through the heap so the
    ``(time, phase, seq)`` ordering arbitrates, exactly as a per-event
    reschedule would -- and never beyond the simulator's
    ``run_horizon`` (events past the ``run_until`` cut-off would not have
    fired at all).  At least one event (the one this firing was scheduled
    for) is always included.
    """
    boundary = sim.next_event_time
    if boundary is None:
        end = len(times)
    else:
        end = int(np.searchsorted(times, boundary, side="left"))
    horizon = sim.run_horizon
    if horizon < np.inf:
        end = min(end, int(np.searchsorted(times, horizon, side="right")))
    return max(end, cursor + 1)
