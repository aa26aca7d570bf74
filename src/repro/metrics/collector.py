"""Divergence measurement over a whole simulation.

The collector maintains, per object, a piecewise integration of the *truth*
divergence (source value vs. the value the cache last applied), both
weighted by the exact time-varying weight model and unweighted.  Divergence
only changes at update / refresh-delivery events, so the integration is
event-driven and exact for piecewise-constant weights; for fluctuating
(sine) weights, each piece's weight is evaluated at the piece start and a
periodic ``resample`` tick re-breaks long pieces so the approximation error
stays bounded.

The headline quantity is the paper's objective (Sec 3.3): the sum over
objects of time-averaged weighted divergence, reported per object so that
numbers are comparable across configuration sizes (Figures 4-6 all plot
"average divergence").
Records are logged and folded in batches by one kernel (DESIGN.md
Sec 10).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.weights import StaticWeights, WeightModel

#: Records :meth:`DivergenceCollector.record` logs before folding them.
LOG_CAPACITY = 4096


class DivergenceCollector:
    """Event-driven, warm-up-aware divergence integration."""

    def __init__(self, num_objects: int, weights: WeightModel,
                 warmup: float = 0.0, start: float = 0.0) -> None:
        if weights.n != num_objects:
            raise ValueError(
                f"weight model covers {weights.n} objects, "
                f"expected {num_objects}")
        self.num_objects = num_objects
        self.weights = weights
        self.warmup = warmup
        self._last_time = np.full(num_objects, float(start))
        self._divergence = np.zeros(num_objects)
        self._weighted_integral = np.zeros(num_objects)
        self._unweighted_integral = np.zeros(num_objects)
        self._end = float(start)
        #: records logged since the last fold, flat: index, time,
        #: divergence, index, ... (one list folds faster than three)
        self._log: list = []
        #: records the log takes before it folds
        self._log_room = LOG_CAPACITY

    # ------------------------------------------------------------------
    # Event-driven recording
    # ------------------------------------------------------------------
    def record(self, index: int, now: float, divergence: float) -> None:
        """Object ``index``'s truth divergence changed to ``divergence``
        (logged; see :meth:`record_at`)."""
        log = self._log
        log += (index, now, divergence)
        self._log_room -= 1
        if not self._log_room:
            self._flush()

    def record_at(self, indices: np.ndarray, times: np.ndarray,
                  divergences: np.ndarray) -> None:
        """Batched :meth:`record` with *per-event* times, duplicates
        allowed: the kernel the record log folds through.

        Each event's piece starts where that object's previous event (in
        the batch, or before it) left off, so the linkage is a stable
        grouping by object; within one object the integral increments
        land via ``np.add.at`` in batch order, a fold-left like a
        sequence of scalar records.  The arithmetic is operand for operand
        that of the scalar reference collector in ``tests/oracles.py``
        (``d * span``, ``d * w * span``, weights at each piece's start),
        so a batch and the equivalent record sequence agree bit for bit.
        """
        self._flush()
        self._fold(np.asarray(indices, dtype=np.int64),
                   np.asarray(times, dtype=float),
                   np.asarray(divergences, dtype=float))

    def _flush(self) -> None:
        """Fold every logged record into the integration state."""
        log = self._log
        if log:
            # Object indices are exact in float64 (they are far below
            # 2**53), so one float array carries all three fields.
            flat = np.array(log, dtype=float)
            log.clear()
            self._log_room = LOG_CAPACITY
            self._fold(flat[0::3].astype(np.int64), flat[1::3], flat[2::3])

    def _fold(self, indices: np.ndarray, times: np.ndarray,
              divergences: np.ndarray) -> None:
        """The :meth:`record_at` kernel, on an empty log."""
        if not len(indices):
            return
        order = np.argsort(indices, kind="stable")
        sidx = indices[order]
        stimes = times[order]
        sdiv = divergences[order]
        same = sidx[1:] == sidx[:-1]  # entry k + 1 continues k's object
        follows = np.concatenate(([False], same))
        prev_time = np.where(follows, np.roll(stimes, 1),
                             self._last_time[sidx])
        prev_div = np.where(follows, np.roll(sdiv, 1),
                            self._divergence[sidx])
        lo = np.maximum(prev_time, self.warmup)
        hi = np.maximum(stimes, self.warmup)
        active = (hi > lo) & (prev_div != 0.0)
        if active.any():
            sel = sidx[active]
            span = hi[active] - lo[active]
            d = prev_div[active]
            w = self.weights.weights_at(lo[active], sel)
            np.add.at(self._unweighted_integral, sel, d * span)
            np.add.at(self._weighted_integral, sel, d * w * span)
        last = np.concatenate((~same, [True]))  # each object's last entry
        self._last_time[sidx[last]] = stimes[last]
        self._divergence[sidx[last]] = sdiv[last]
        end = float(times.max())
        if end > self._end:
            self._end = end

    def schedule_resample(self, sim, interval: float) -> None:
        """Run :meth:`resample` every ``interval`` -- the only periodic
        metric work, never per simulation tick."""
        from repro.sim.events import Phase
        sim.every(interval, self.resample, phase=Phase.METRICS)

    def resample(self, now: float) -> None:
        """Re-break every object's current piece at ``now``.

        Keeps weighted integration accurate under fluctuating weights even
        for objects that rarely change.  Vectorized; cheap to call every few
        simulated seconds.

        Each closed piece is weighed at its *start*, exactly as a record
        weighs the piece it closes -- so the integral a fluctuating-weight
        run accumulates does not depend on whether a piece was closed by
        an event or by a resample tick.
        """
        self._flush()
        lo = np.maximum(self._last_time, self.warmup)
        span = np.maximum(max(now, self.warmup) - lo, 0.0)
        active = (self._divergence != 0.0) & (span > 0.0)
        if active.any():
            sel = np.nonzero(active)[0]
            d = self._divergence[sel]
            w = self.weights.weights_at(lo[sel], sel)
            self._unweighted_integral[sel] += d * span[sel]
            self._weighted_integral[sel] += d * w * span[sel]
        self._last_time[:] = np.maximum(self._last_time, now)
        if now > self._end:
            self._end = now

    def finalize(self, end: float) -> None:
        """Close all pieces at the measurement end."""
        self.resample(end)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Length of the measured (post-warm-up) window.  Every reader
        below starts here, so it folds the record log first."""
        self._flush()
        return max(self._end - self.warmup, 0.0)

    def total_weighted_average(self) -> float:
        """Sum over objects of time-averaged weighted divergence."""
        if self.duration <= 0:
            return 0.0
        return float(self._weighted_integral.sum()) / self.duration

    def total_unweighted_average(self) -> float:
        """Sum over objects of time-averaged divergence."""
        if self.duration <= 0:
            return 0.0
        return float(self._unweighted_integral.sum()) / self.duration

    def mean_weighted_average(self) -> float:
        """Per-object average of weighted divergence (Figures 4-6 y-axis)."""
        return self.total_weighted_average() / self.num_objects

    def mean_unweighted_average(self) -> float:
        """Per-object average of unweighted divergence."""
        return self.total_unweighted_average() / self.num_objects

    def per_object_weighted_average(self) -> np.ndarray:
        """Time-averaged weighted divergence for each object."""
        if self.duration <= 0:
            return np.zeros(self.num_objects)
        return self._weighted_integral / self.duration


class ReadCollector:
    """Read-observed divergence: what clients *see*, not what copies hold.

    The paper's metric time-averages the divergence of the cache copy;
    a client's experience is instead the divergence of the snapshots its
    reads actually return.  This collector accumulates, at each read,
    ``|answered value - true source value|`` and its weighted form -- the
    object's refresh weight at read time times the divergence, the
    point-sample analogue of the paper's weighted divergence integrand --
    plus per-replica serving counts so experiments can see which
    replicas answered.  Means divide by the read count, so under Poisson
    read times the weighted mean is an unbiased estimate of the paper's
    ``(1/T) integral w(t) D(t) dt`` as seen through the read policy.

    Reads strictly before ``warmup`` are discarded, mirroring the
    integral collectors.
    """

    def __init__(self, num_objects: int, weights: WeightModel,
                 num_replicas: int = 1, warmup: float = 0.0) -> None:
        if weights.n != num_objects:
            raise ValueError(
                f"weight model covers {weights.n} objects, "
                f"expected {num_objects}")
        self.num_objects = num_objects
        self.weights = weights
        self.warmup = warmup
        self.reads = 0  #: post-warm-up reads served
        self.replica_reads = [0] * num_replicas  #: reads each cache served
        self.stale_reads = 0  #: post-warm-up reads that observed divergence
        self._sum = 0.0
        self._weighted_sum = 0.0

    def record_read(self, index: int, now: float, divergence: float,
                    cache_id: int) -> None:
        """One served read of object ``index`` at time ``now``."""
        if now < self.warmup:
            return
        self.reads += 1
        self._sum += divergence
        self._weighted_sum += self.weights.weight(index, now) * divergence
        self.replica_reads[cache_id] += 1
        if divergence != 0.0:
            self.stale_reads += 1

    def mean_read_divergence(self) -> float:
        """Mean weighted read-observed divergence per read."""
        return self._weighted_sum / self.reads if self.reads else 0.0

    def mean_unweighted_read_divergence(self) -> float:
        """Mean |answered - true| per read, unweighted."""
        return self._sum / self.reads if self.reads else 0.0

    def stale_read_fraction(self) -> float:
        """Share of reads that returned a diverged value."""
        return self.stale_reads / self.reads if self.reads else 0.0


class ReplicaDivergenceTracker:
    """Exact per-replica time-averaged divergence ``|replica copy - truth|``.

    The :class:`DivergenceCollector` integrates the divergence of the
    *logical* cached copy (the freshest applied snapshot, shared by all
    replicas through the truth view).  Under replication each replica's own
    store can lag behind that logical copy; this tracker integrates every
    ``(replica, object)`` pair's divergence separately, which is what the
    paper's metric *would* report if replica ``k`` were the cache.

    The signal is piecewise-constant -- it changes only when the source
    applies an update or replica ``k`` applies a refresh -- so hooking both
    event kinds gives an exact integral.  The integral is a
    :class:`DivergenceCollector`'s over the flattened pairs
    ``k * num_objects + i``, so it folds through the collector's one
    kernel.  Cost is O(replication) records per update, so only runs with
    a read stream wire it in (not plain policy runs).

    The uniform any-replica read policy samples precisely this signal at
    read times: its read-observed divergence converges, as the read rate
    grows, to the mean of these per-replica time averages.
    """

    def __init__(self, stores: Sequence, objects: Sequence,
                 replicas_of: Sequence[tuple[int, ...]],
                 warmup: float = 0.0) -> None:
        num_objects = len(objects)
        if len(replicas_of) != num_objects:
            raise ValueError(
                f"replica map covers {len(replicas_of)} objects, "
                f"expected {num_objects}")
        self.stores = list(stores)
        self.objects = list(objects)
        self.replicas_of = list(replicas_of)
        pairs = len(self.stores) * num_objects
        self._pairs = DivergenceCollector(pairs, StaticWeights.uniform(pairs),
                                          warmup=warmup)
        self._member = np.zeros((len(self.stores), num_objects), dtype=bool)
        for i, replicas in enumerate(self.replicas_of):
            for k in replicas:
                self._member[k, i] = True

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def on_update(self, obj, now: float) -> None:
        """Source-side update hook: every replica's divergence moves."""
        for k in self.replicas_of[obj.index]:
            self._touch(k, obj.index, now)

    def refresh_hook(self, cache_id: int):
        """A per-cache ``hook(obj, now)`` for ``CacheNode.add_refresh_hook``.

        Fired after the store applied the snapshot, so re-reading the store
        picks up the new value.
        """
        def hook(obj, now: float) -> None:
            self._touch(cache_id, obj.index, now)
        return hook

    def _touch(self, k: int, i: int, now: float) -> None:
        self._pairs.record(
            k * len(self.objects) + i, now,
            abs(float(self.stores[k].values[i]) - self.objects[i].value))

    def finalize(self, end: float) -> None:
        """Close every pair's current piece at the measurement end."""
        self._pairs.finalize(end)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def per_replica_object_average(self) -> np.ndarray:
        """Time-averaged divergence per ``(cache, object)`` pair.

        Entries for caches that never hold an object are NaN, so averages
        over replicas cannot silently dilute with non-members.
        """
        out = np.full(self._member.shape, np.nan)
        if self._pairs.duration > 0:
            # Unit weights: each weighted increment is ``d * 1.0 * span``,
            # bit for bit the unweighted one.
            average = self._pairs.per_object_weighted_average()
            out[self._member] = average.reshape(out.shape)[self._member]
        return out

    def mean_over_replicas(self) -> float:
        """Objects' replica-averaged divergence, averaged over objects.

        This is the large-read-rate limit of uniform any-replica
        read-observed divergence when every object is read at the same
        rate: reads sample objects uniformly and replicas uniformly.
        """
        per_pair = self.per_replica_object_average()
        with np.errstate(invalid="ignore"):
            per_object = np.nanmean(per_pair, axis=0)
        return float(np.mean(per_object)) if per_object.size else 0.0
