"""The cache's positive-feedback controller (paper Sec 5).

"The cache continually monitors cache-side bandwidth utilization.  If
underutilized, the cache uses the excess bandwidth to send positive
feedback messages to as many sources as possible (until the excess
bandwidth is utilized), asking them each to decrease their thresholds by a
multiplicative factor omega.  If it is not possible to provide feedback to
every source, the sources with the highest local thresholds are selected to
receive feedback."

The controller learns source thresholds from the values piggybacked on
refresh messages.  Sources it has never heard from are treated as having an
infinite threshold, which bootstraps the protocol: silent sources are the
first to receive feedback.  After sending feedback the controller
optimistically applies the protocol's ``/ omega`` to its local record, so
repeated surplus ticks spread feedback across sources instead of hammering
the same one.

In a multi-cache topology each cache node runs its own controller over the
sources for which it is the *primary* cache, spending only its own link's
surplus; feedback messages are addressed by ``(cache_id, source_id)``.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from repro.network.topology import Topology

#: Heap key of a source with an unknown (infinite) threshold, shared by
#: every seed entry instead of a fresh float each.
_UNKNOWN_KEY = float("-inf")


class FeedbackController:
    """Selects feedback targets and spends surplus cache bandwidth.

    ``min_threshold`` prevents waste in bandwidth-rich regimes: a source
    whose piggybacked threshold is already at the numerical floor refreshes
    everything it has, so further feedback cannot increase the refresh rate
    and would only burn capacity.  Because the controller optimistically
    divides its local record by ``omega`` after each feedback, a silent
    source stops receiving feedback after a few rounds until fresh
    piggybacked evidence arrives.

    ``source_ids`` restricts the controller to the sources this cache is
    responsible for (``None`` means every source in the topology);
    ``known_thresholds`` is indexed in step with that tuple.

    ``gains``, aligned with ``source_ids``, weights the ranking by how
    much divergence one refresh from that source removes (the delivery
    plane's :meth:`~repro.network.delivery.DeliveryPlane.feedback_gain`:
    under multicast a source replicated ``r`` ways freshens ``r``
    replicas per unit of upstream bandwidth, so its threshold counts
    ``r`` times heavier when choosing whom to ask for more refreshes).
    ``None`` keeps the paper's unweighted ranking and leaves the
    selection arithmetic untouched -- the unicast path stays bitwise
    identical.  Gains only reorder *selection* under scarcity; recorded
    thresholds and the ``/ omega`` decay always use raw values.
    """

    def __init__(self, topology: Topology, omega: float,
                 max_per_tick: int | None = None,
                 min_threshold: float = 1e-11,
                 cache_id: int = 0,
                 source_ids: Sequence[int] | None = None,
                 gains: Sequence[float] | None = None) -> None:
        self.topology = topology
        self.omega = omega
        self.max_per_tick = max_per_tick
        self.min_threshold = min_threshold
        self.cache_id = cache_id
        if source_ids is None:
            source_ids = range(topology.num_sources)
        self.source_ids = tuple(source_ids)
        if gains is not None:
            gains = list(gains)
            if len(gains) != len(self.source_ids):
                raise ValueError(
                    f"gains lists {len(gains)} entries for "
                    f"{len(self.source_ids)} sources")
        self._gains: list[float] | None = gains
        self._position = {sid: pos for pos, sid in enumerate(self.source_ids)}
        # Permanent sid -> slot map: slots are never compacted, so a
        # source migrated away and back (see add/remove_source) reuses
        # its original slot instead of aliasing a second heap identity.
        self._slots = dict(self._position)
        self.known_thresholds = [float("inf")] * len(self.source_ids)
        self.feedback_sent = 0
        # Lazy max-heap over (threshold, source) so selecting the top
        # ``budget`` targets costs O(budget log m) instead of rebuilding an
        # O(m) candidate list every tick.  Entries are stamped with a
        # per-source version; stale entries are discarded on pop.
        self._versions = [0] * len(self.source_ids)
        self._heap: list[tuple[float, int, int]] = [
            (_UNKNOWN_KEY, sid, 0) for sid in self.source_ids
        ]
        heapq.heapify(self._heap)
        self._eligible = len(self.source_ids)

    def reset(self) -> None:
        """Cold restart: forget every learned threshold (crash recovery).

        All sources revert to the unknown-infinite state, exactly as at
        construction, which re-bootstraps the protocol: the recovered
        cache first pays feedback to everyone, then rebuilds its records
        from the thresholds piggybacked on the refreshes that triggers.
        Versions keep advancing (never reset) so heap entries drained
        before the crash stay stale.
        """
        live = self._position
        self.known_thresholds = [
            float("inf") if sid in live else self.min_threshold
            for sid in self.source_ids]
        self._versions = [v + 1 for v in self._versions]
        self._heap = [(_UNKNOWN_KEY, sid, self._versions[pos])
                      for pos, sid in enumerate(self.source_ids)
                      if sid in live]
        heapq.heapify(self._heap)
        self._eligible = len(live)

    def remove_source(self, source_id: int) -> float:
        """Forget one migrated-away source; returns its learned threshold.

        The slot is parked, not compacted: the recorded threshold drops
        to the floor (fixing the eligible count and invalidating live
        heap entries via the version bump) and the source leaves the
        live ``_position`` map, so late refreshes that were still in
        flight to this cache can no longer resurrect it through
        :meth:`observe_threshold`.  The returned threshold travels with
        the migration so the recipient skips the infinite bootstrap.
        """
        position = self._position.get(source_id)
        if position is None:
            raise ValueError(
                f"source {source_id} is not owned by cache {self.cache_id}")
        threshold = self.known_thresholds[position]
        self._set_threshold(position, self.min_threshold)
        del self._position[source_id]
        return threshold

    def add_source(self, source_id: int,
                   threshold: float = float("inf")) -> None:
        """Adopt a migrated-in source, seeding its learned threshold.

        A source this controller has seen before (migrated away and
        back) reuses its original slot; a brand-new one is appended.
        Already-live sources just observe the threshold.
        """
        position = self._position.get(source_id)
        if position is not None:
            self._set_threshold(position, threshold)
            return
        position = self._slots.get(source_id)
        if position is None:
            position = len(self.known_thresholds)
            self._slots[source_id] = position
            self.source_ids = self.source_ids + (source_id,)
            # Seed the new slot at the floor (ineligible) so the
            # _set_threshold below accounts the eligibility delta.
            self.known_thresholds.append(self.min_threshold)
            self._versions.append(0)
            if self._gains is not None:
                # Migrations only move sharded (unreplicated) sources,
                # whose refresh gain is 1 under every delivery plane.
                self._gains.append(1.0)
        self._position[source_id] = position
        self._set_threshold(position, threshold)

    def observe_threshold(self, source_id: int, threshold: float) -> None:
        """Record a threshold piggybacked on a refresh message."""
        position = self._position.get(source_id)
        if position is not None:
            self._set_threshold(position, threshold)

    def _set_threshold(self, position: int, threshold: float) -> None:
        old = self.known_thresholds[position]
        self.known_thresholds[position] = threshold
        self._eligible += ((threshold > self.min_threshold)
                           - (old > self.min_threshold))
        self._versions[position] += 1
        if threshold > self.min_threshold:
            # Heap keys carry the gain; eligibility and the push condition
            # use the raw threshold, so a gained entry can never outlive
            # its source's eligibility (version bumps invalidate anyway).
            gains = self._gains
            if gains is not None:
                threshold = threshold * gains[position]
            heapq.heappush(self._heap, (-threshold,
                                        self.source_ids[position],
                                        self._versions[position]))

    def has_targets(self) -> bool:
        """True while at least one source could usefully receive feedback.

        Lets an event-driven cache park its per-tick wakeup once every
        known threshold has decayed to the floor and the queue is empty.
        """
        return self._eligible > 0

    def on_tick(self, now: float) -> None:
        """Spend any surplus credit of this cache's link on feedback.

        The whole target batch goes through one
        :meth:`Topology.send_downstream_batch` call -- one link accrue,
        one counter update, one reused message object -- instead of a
        per-target :class:`FeedbackMessage` allocation and ``send``.
        """
        surplus = self.topology.cache_surplus(self.cache_id, now)
        budget = int(surplus)
        if budget <= 0:
            return
        if self.max_per_tick is not None:
            budget = min(budget, self.max_per_tick)
        budget = min(budget, len(self.source_ids))
        targets, entries = self._select_targets(budget)
        delivered = self.topology.send_downstream_batch(
            self.cache_id, targets, now)
        self.feedback_sent += delivered
        for rank, source_id in enumerate(targets):
            position = self._position[source_id]
            if rank < delivered:
                # The protocol's optimistic ``/ omega``; its _set_threshold
                # pushes a fresh heap entry, superseding the drained one.
                # A still-infinite threshold has no entry to supersede, so
                # the drained entry goes back as is.
                known = self.known_thresholds[position]
                if known != float("inf"):
                    self._set_threshold(position, known / self.omega)
                elif entries is not None:
                    heapq.heappush(self._heap, entries[rank])
            elif entries is not None:
                # Out of credit before this target: nothing changed for it,
                # so its drained entry is restored untouched.
                heapq.heappush(self._heap, entries[rank])

    def _select_targets(self, budget: int
                        ) -> tuple[list[int],
                                   list[tuple[float, int, int]] | None]:
        """The ``budget`` eligible sources with the highest thresholds.

        When the budget covers every eligible source the selection is all
        of them in source-id order (entries ``None``: the heap was not
        touched); otherwise the lazy heap is *drained* into a local buffer
        -- top ``budget`` by (threshold desc, source id asc), the same
        total order a ``heapq.nlargest`` scan would produce -- and the
        popped entries are returned alongside so :meth:`on_tick` can
        restore exactly the ones that were not superseded.  Stale entries
        (version mismatch or decayed to the floor) are dropped permanently
        during the drain instead of being re-scanned every call.
        """
        if budget >= self._eligible:
            return ([source_id
                     for source_id, threshold in zip(self.source_ids,
                                                     self.known_thresholds)
                     if threshold > self.min_threshold], None)
        selected: list[int] = []
        popped: list[tuple[float, int, int]] = []
        heap = self._heap
        while heap and len(selected) < budget:
            entry = heapq.heappop(heap)
            neg_threshold, source_id, version = entry
            position = self._position.get(source_id)
            if (position is None
                    or version != self._versions[position]
                    or -neg_threshold <= self.min_threshold):
                # Stale, no longer eligible, or migrated away since the
                # entry was pushed: dropped for good.
                continue
            selected.append(source_id)
            popped.append(entry)
        return selected, popped
