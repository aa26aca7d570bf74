"""The cache's store of (possibly stale) object copies.

A thin value store: the heavy divergence bookkeeping lives on the
:class:`repro.core.objects.DataObject` truth views so that the evaluation
machinery sees a single consistent record.  The store exists so that user
code (examples, applications) has a natural read API with staleness
introspection, like a real cache would expose -- and, since the replicated
read model landed, so that each replica's *own* snapshot history is
queryable independently of the shared truth view (which always tracks the
freshest replica).

Freshness rule: a snapshot is fresher than another when its
``(refresh_time, applied_count)`` pair is lexicographically larger.  Two
replicas can apply the *same* snapshot count at different times (a slower
link delivering later), and -- within one tick -- different counts at the
same timestamp (cache links drain in cache-id order inside the NETWORK
phase), so neither component alone orders snapshots; the pair does.
"""

from __future__ import annotations

import numpy as np


class CacheStore:
    """Values as last applied at the cache, with refresh timestamps."""

    def __init__(self, num_objects: int,
                 initial_values: np.ndarray | None = None) -> None:
        if initial_values is None:
            initial_values = np.zeros(num_objects)
        if len(initial_values) != num_objects:
            raise ValueError(
                f"expected {num_objects} initial values, "
                f"got {len(initial_values)}")
        #: the count-0 snapshot every copy starts from; kept so a crash
        #: can cold-restart the store (see :meth:`reset`)
        self.initial_values = np.array(initial_values, dtype=float)
        #: the object count every bounds check compares against
        self._size = num_objects
        self.values = self.initial_values.copy()
        self.refresh_times = np.zeros(num_objects)
        #: update counter carried by the last applied snapshot (0 until the
        #: first refresh: the initial value is the count-0 snapshot)
        self.applied_counts = np.zeros(num_objects, dtype=np.int64)

    def reset(self) -> None:
        """Cold restart: forget every applied snapshot (crash recovery).

        The store reverts to its construction state -- initial values,
        zero refresh history -- exactly as if the cache process came
        back up empty and re-primed from its seed data.
        """
        self.values = self.initial_values.copy()
        self.refresh_times.fill(0.0)
        self.applied_counts.fill(0)

    def __len__(self) -> int:
        return self._size

    def _check_index(self, index: int) -> None:
        # Negative indices would silently wrap (numpy semantics), which for
        # a cache keyed by object id is always a caller bug.
        if not 0 <= index < self._size:
            raise IndexError(
                f"object index {index} out of range [0, {self._size})")

    def apply(self, index: int, value: float, now: float,
              update_count: int = 0) -> None:
        """Record a delivered refresh.

        ``update_count`` is the source update counter carried by the
        snapshot; the read model's freshest-replica selection uses it to
        break refresh-time ties across replicas.  The bounds check runs
        in this frame: this is called once per delivered refresh.
        """
        if not 0 <= index < self._size:
            self._check_index(index)  # raises
        self.values[index] = value
        self.refresh_times[index] = now
        self.applied_counts[index] = update_count

    def read(self, index: int) -> float:
        """Read the cached value (possibly stale -- that is the point)."""
        self._check_index(index)
        return float(self.values[index])

    def age(self, index: int, now: float) -> float:
        """Time since the cached copy was last refreshed."""
        self._check_index(index)
        return now - float(self.refresh_times[index])

    def freshness_key(self, index: int) -> tuple[float, int]:
        """Snapshot recency as a sortable ``(refresh_time, applied_count)``
        pair -- larger is fresher (see the module docstring)."""
        self._check_index(index)
        return (float(self.refresh_times[index]),
                int(self.applied_counts[index]))
