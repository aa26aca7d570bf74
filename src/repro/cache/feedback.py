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

#: Heap key of a source with an unknown (infinite) threshold: every seed
#: entry's.
_UNKNOWN_KEY = float("-inf")

#: Recorded thresholds at or below this are at the sources' numerical
#: floor (1e-12): such a source already refreshes everything it has, so
#: it gets no feedback until a higher threshold is piggybacked again.
MIN_THRESHOLD = 1e-11

#: Stale entries the target heap may carry beyond twice its eligible
#: sources before :meth:`FeedbackController.on_tick` rebuilds it.
_HEAP_SLACK = 64


class FeedbackController:
    """Selects feedback targets and spends surplus cache bandwidth.

    :data:`MIN_THRESHOLD` prevents waste in bandwidth-rich regimes: a
    source whose piggybacked threshold is already at the numerical floor
    refreshes everything it has, so further feedback cannot increase the
    refresh rate and would only burn capacity.  Because the controller
    optimistically divides its local record by ``omega`` after each
    feedback, a silent source stops receiving feedback after a few rounds
    until fresh piggybacked evidence arrives.

    ``source_ids`` restricts the controller to the sources this cache is
    responsible for (``None`` means every source in the topology).  Its
    per-source state is in columns indexed by source id and sized for the
    topology's sources: ``known_thresholds``, a version per source and
    whether the source is one of this cache's now.

    ``gains``, aligned with ``source_ids``, weights the ranking by how
    much divergence one refresh from that source removes
    (:meth:`~repro.network.topology.Topology.feedback_gain`: under
    multicast a source replicated ``r`` ways freshens ``r``
    replicas per unit of upstream bandwidth, so its threshold counts
    ``r`` times heavier when choosing whom to ask for more refreshes).
    ``None`` keeps the paper's unweighted ranking and leaves the
    selection arithmetic untouched -- the unicast path stays bitwise
    identical.  Gains only reorder *selection* under scarcity; recorded
    thresholds and the ``/ omega`` decay always use raw values.
    """

    def __init__(self, topology: Topology, omega: float,
                 cache_id: int = 0,
                 source_ids: Sequence[int] | None = None,
                 gains: Sequence[float] | None = None) -> None:
        self.topology = topology
        self.omega = omega
        self.cache_id = cache_id
        if source_ids is None:
            source_ids = range(topology.num_sources)
        #: this cache's sources in the order it met them: its sources at
        #: construction, then each migrated-in one (a range stays one)
        self.source_ids: Sequence[int] = (
            source_ids if isinstance(source_ids, (tuple, range))
            else tuple(source_ids))
        m = topology.num_sources
        self._gains: list[float] | None = None
        if gains is not None:
            gains = list(gains)
            if len(gains) != len(self.source_ids):
                raise ValueError(
                    f"gains lists {len(gains)} entries for "
                    f"{len(self.source_ids)} sources")
            # Migrations only move sharded (unreplicated) sources, whose
            # refresh gain is 1 under every delivery plane.
            self._gains = [1.0] * m
            for source_id, gain in zip(self.source_ids, gains):
                self._gains[source_id] = gain
        # ``_live`` marks this cache's sources now; a source migrated
        # away keeps its column entries, so migrating back resumes them.
        self._live = bytearray(m)
        for source_id in self.source_ids:
            self._live[source_id] = 1
        self.known_thresholds = [float("inf")] * m
        self.feedback_sent = 0
        # Lazy max-heap over (threshold, source) so selecting the top
        # ``budget`` targets costs O(budget log m) instead of rebuilding an
        # O(m) candidate list every tick.  Entries are stamped with a
        # per-source version; stale entries are discarded on pop.
        self._versions = [0] * m
        self._heap: list[tuple[float, int, int]] = []
        # The heap's seed entries ``(-inf, sid, _seed_version)``, one per
        # source of unknown threshold, are a cursor into the ascending
        # ids ``_seeds``, so an unheard source costs no tuple: seeds pop
        # in id order, so the heap and the unread seeds merge exactly.
        self._seeds: Sequence[int] = _ascending(self.source_ids)
        self._seed_cursor = 0
        self._seed_version = 0
        self._eligible = len(self.source_ids)
        #: sources whose piggybacked threshold awaits its heap entry
        self._marked: set[int] = set()

    def reset(self) -> None:
        """Cold restart: forget every learned threshold (crash recovery).

        All sources revert to the unknown-infinite state, exactly as at
        construction, which re-bootstraps the protocol: the recovered
        cache first pays feedback to everyone, then rebuilds its records
        from the thresholds piggybacked on the refreshes that triggers.
        Versions keep advancing (never reset): every source moves to one
        version above all earlier ones, so heap entries drained before
        the crash stay stale.
        """
        live = self._live
        known = self.known_thresholds
        for source_id in self.source_ids:
            known[source_id] = (float("inf") if live[source_id]
                                else MIN_THRESHOLD)
        version = max(self._versions) + 1
        self._versions = [version] * len(self._versions)
        self._heap = []
        self._seeds = _ascending(tuple(
            source_id for source_id in self.source_ids if live[source_id]))
        self._seed_cursor = 0
        self._seed_version = version
        self._eligible = len(self._seeds)
        self._marked.clear()

    def remove_source(self, source_id: int) -> float:
        """Forget one migrated-away source; returns its learned threshold.

        The source is parked, not dropped: the recorded threshold drops
        to the floor (fixing the eligible count and invalidating live
        heap entries via the version bump) and the source stops being
        live, so late refreshes that were still in flight to this cache
        can no longer resurrect it through :meth:`observe_threshold`.
        The returned threshold travels with the migration so the
        recipient skips the infinite bootstrap.
        """
        if not self.owns(source_id):
            raise ValueError(
                f"source {source_id} is not owned by cache {self.cache_id}")
        threshold = self.known_thresholds[source_id]
        self._set_threshold(source_id, MIN_THRESHOLD)
        self._live[source_id] = 0
        return threshold

    def add_source(self, source_id: int,
                   threshold: float = float("inf")) -> None:
        """Adopt a migrated-in source, seeding its learned threshold.

        A source this controller has seen before (migrated away and
        back) keeps its place in :attr:`source_ids`; a brand-new one is
        appended.  Already-live sources just observe the threshold.
        """
        if not 0 <= source_id < len(self._live):
            raise ValueError(f"unknown source {source_id}")
        if source_id not in self.source_ids:
            self.source_ids = tuple(self.source_ids) + (source_id,)
            # Seed the new source at the floor (ineligible) so the
            # _set_threshold below accounts the eligibility delta.
            self.known_thresholds[source_id] = MIN_THRESHOLD
        self._live[source_id] = 1
        self._set_threshold(source_id, threshold)

    def owns(self, source_id: int) -> bool:
        """Whether ``source_id`` is one of this cache's sources now."""
        return (0 <= source_id < len(self._live)
                and bool(self._live[source_id]))

    def observe_threshold(self, source_id: int, threshold: float) -> None:
        """Record a threshold piggybacked on a refresh message.

        The record and the eligible count change now; the source is
        marked, and its heap entry waits for the next selection
        (:meth:`_push_marked`), so however many refreshes a source sends
        between two selections, it pushes one entry.  Only a selection
        pops the heap, and it pops by the live entries' (threshold, id)
        keys, so it sees the same order as if each threshold had been
        pushed on arrival.
        """
        if self._live[source_id]:
            known = self.known_thresholds
            self._eligible += ((threshold > MIN_THRESHOLD)
                               - (known[source_id] > MIN_THRESHOLD))
            known[source_id] = threshold
            self._marked.add(source_id)

    def _set_threshold(self, source_id: int, threshold: float) -> None:
        old = self.known_thresholds[source_id]
        self.known_thresholds[source_id] = threshold
        self._eligible += ((threshold > MIN_THRESHOLD)
                           - (old > MIN_THRESHOLD))
        self._marked.discard(source_id)
        self._push(source_id)

    def _push(self, source_id: int) -> None:
        """Supersede ``source_id``'s heap entries with one for its
        recorded threshold (none when it is not eligible)."""
        version = self._versions[source_id] + 1
        self._versions[source_id] = version
        threshold = self.known_thresholds[source_id]
        if threshold > MIN_THRESHOLD:
            # Heap keys carry the gain; eligibility and the push condition
            # use the raw threshold, so a gained entry can never outlive
            # its source's eligibility (version bumps invalidate anyway).
            gains = self._gains
            if gains is not None:
                threshold = threshold * gains[source_id]
            heapq.heappush(self._heap, (-threshold, source_id, version))

    def _push_marked(self) -> None:
        """One heap entry for each marked source (see
        :meth:`observe_threshold`)."""
        for source_id in self._marked:
            self._push(source_id)
        self._marked.clear()

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

        A source pushes at most one heap entry per selection for its
        piggybacked thresholds, plus one per feedback it receives, and a
        superseded entry leaves only when it surfaces, so stale entries
        pile up.  Once the heap holds more than twice the eligible
        sources plus a slack (its unread seeds included), the tick
        starts by rebuilding it from the one live entry per eligible
        source -- before any entry is drained, so the selection sees
        exactly the entries it would have.
        """
        entries_held = (len(self._heap) + len(self._seeds)
                        - self._seed_cursor)
        if entries_held > 2 * self._eligible + _HEAP_SLACK:
            self._rebuild_heap()
        surplus = self.topology.cache_surplus(self.cache_id, now)
        budget = int(surplus)
        if budget <= 0:
            return
        budget = min(budget, len(self.source_ids))
        targets, entries = self._select_targets(budget)
        delivered = self.topology.send_downstream_batch(
            self.cache_id, targets, now)
        self.feedback_sent += delivered
        known = self.known_thresholds
        for rank, source_id in enumerate(targets):
            if rank < delivered:
                # The protocol's optimistic ``/ omega``; its _set_threshold
                # pushes a fresh heap entry, superseding the drained one.
                # A still-infinite threshold has no entry to supersede, so
                # the drained entry goes back as is.
                threshold = known[source_id]
                if threshold != float("inf"):
                    self._set_threshold(source_id, threshold / self.omega)
                elif entries is not None:
                    heapq.heappush(self._heap, entries[rank])
            elif entries is not None:
                # Out of credit before this target: nothing changed for it,
                # so its drained entry is restored untouched.
                heapq.heappush(self._heap, entries[rank])

    def _rebuild_heap(self) -> None:
        """One live entry per eligible source; the unread seeds and the
        marked sources' entries are among them (an unknown threshold's
        entry is its seed)."""
        self._marked.clear()
        gains = self._gains
        versions = self._versions
        known = self.known_thresholds
        heap = []
        # A parked source's threshold sits at the floor, so only live
        # sources that are eligible pass.
        for source_id in self.source_ids:
            threshold = known[source_id]
            if threshold > MIN_THRESHOLD:
                if gains is not None:
                    threshold = threshold * gains[source_id]
                heap.append((-threshold, source_id, versions[source_id]))
        heapq.heapify(heap)
        self._heap = heap
        self._seed_cursor = len(self._seeds)

    def _select_targets(self, budget: int
                        ) -> tuple[list[int],
                                   list[tuple[float, int, int]] | None]:
        """The ``budget`` eligible sources with the highest thresholds.

        When the budget covers every eligible source the selection is all
        of them in :attr:`source_ids` order (entries ``None``: the heap
        was not touched); otherwise the lazy heap, merged with the unread
        seeds, is *drained* into a local buffer -- top ``budget`` by
        (threshold desc, source id asc), the same total order a
        ``heapq.nlargest`` scan would produce -- and the popped entries
        are returned alongside so :meth:`on_tick` can restore exactly the
        ones that were not superseded.  Stale entries (version mismatch
        or decayed to the floor) are dropped permanently during the
        drain instead of being re-scanned every call.
        """
        if budget >= self._eligible:
            known = self.known_thresholds
            return ([source_id for source_id in self.source_ids
                     if known[source_id] > MIN_THRESHOLD], None)
        if self._marked:
            self._push_marked()
        selected: list[int] = []
        popped: list[tuple[float, int, int]] = []
        heap = self._heap
        versions = self._versions
        seeds = self._seeds
        cursor = self._seed_cursor
        while len(selected) < budget:
            if cursor < len(seeds):
                entry = (_UNKNOWN_KEY, seeds[cursor], self._seed_version)
                if heap and heap[0] < entry:
                    entry = heapq.heappop(heap)
                else:
                    cursor += 1
            elif heap:
                entry = heapq.heappop(heap)
            else:
                break
            neg_threshold, source_id, version = entry
            if (version != versions[source_id]
                    or -neg_threshold <= MIN_THRESHOLD):
                # Stale (migrating away bumps the version too) or no
                # longer eligible: dropped for good.
                continue
            selected.append(source_id)
            popped.append(entry)
        self._seed_cursor = cursor
        return selected, popped


def _ascending(source_ids: Sequence[int]) -> Sequence[int]:
    """``source_ids`` itself when already ascending, else sorted."""
    if isinstance(source_ids, range) and source_ids.step > 0:
        return source_ids
    if all(a < b for a, b in zip(source_ids, source_ids[1:])):
        return source_ids
    return tuple(sorted(source_ids))
