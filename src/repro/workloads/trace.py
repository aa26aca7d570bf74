"""Update traces: the immutable record of *what changes when*.

Comparing policies fairly (the whole point of Figures 4-6) requires running
each policy on bit-identical update streams.  An :class:`UpdateTrace` is a
time-sorted sequence of ``(time, object_index, new_value)`` triples that can
be generated once per configuration and replayed into any number of
simulations.  Traces round-trip through CSV so real data sets (e.g. a NOAA
TAO export) can be dropped in.  A :class:`TraceReplayer` feeds a trace (or
a client read stream) into a simulation, handing every event up to the
next foreign simulator event to one batch applier.
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
        if (self.times[1:] < self.times[:-1]).any():
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
    """Feeds a time-sorted event stream into a :class:`Simulator`.

    ``columns`` are the stream's equal-length numpy arrays, times first:
    an update trace's ``(times, object_indices, values)`` or a read
    trace's ``(times, object_indices)``.  Only one event (the next) is in
    the simulator's queue at a time, so million-event traces do not bloat
    the heap.  Events fire in ``phase``: updates in ``UPDATES``, before
    network/scheduling work at the same timestamp, and reads in
    ``METRICS``, after it.

    One firing hands *every* event strictly before the simulator's next
    foreign event (and within the current
    :attr:`~repro.sim.engine.Simulator.run_horizon`) to ``apply_batch``
    as slices of the columns -- no per-event heap churn.  This is bit for
    bit the schedule of one event per firing provided the applier
    advances the simulator clock per event and never schedules simulator
    events (DESIGN.md Sec 10); ``tests/oracles.py`` keeps that schedule
    as the reference by handing the same applier one-event slices.
    """

    def __init__(self, sim: Simulator, columns: tuple[np.ndarray, ...],
                 apply_batch: Callable[..., None], phase: Phase) -> None:
        self._sim = sim
        self._columns = columns
        self._times = columns[0]
        self._apply_batch = apply_batch
        self._phase = phase
        self._cursor = 0
        #: the run horizon last seen, and the end of the events within it
        self._horizon = np.inf
        self._horizon_end = len(self._times)
        self._schedule_next()

    @property
    def remaining(self) -> int:
        return len(self._times) - self._cursor

    def _schedule_next(self) -> None:
        if self._cursor >= len(self._times):
            return
        time = float(self._times[self._cursor])
        self._sim.at(max(time, self._sim.now), self._fire, phase=self._phase)

    def _fire(self) -> None:
        """Apply the run of events up to the next foreign event.

        Called when this replayer's own event is already off the heap, so
        every queued event is *foreign*.  The run covers events strictly
        before the next foreign event time -- an event at exactly that
        timestamp goes back through the heap so the ``(time, phase,
        seq)`` ordering arbitrates, exactly as a per-event reschedule
        would -- and never beyond the simulator's ``run_horizon`` (events
        past the ``run_until`` cut-off would not have fired at all).  At
        least the event this firing was scheduled for is included.
        """
        sim = self._sim
        times = self._times
        horizon = sim.run_horizon
        if horizon != self._horizon:
            # The horizon holds for a whole run_until: one search per run.
            self._horizon = horizon
            self._horizon_end = int(np.searchsorted(times, horizon,
                                                    side="right"))
        end = self._horizon_end
        boundary = sim.next_event_time
        if boundary is not None:
            end = min(end, int(np.searchsorted(times, boundary,
                                               side="left")))
        self._apply_through(max(end, self._cursor + 1))

    def _apply_through(self, end: int) -> None:
        """Hand events ``cursor .. end - 1`` to the applier, then queue
        the next one."""
        k = self._cursor
        self._apply_batch(*[column[k:end] for column in self._columns])
        self._cursor = end
        self._schedule_next()
