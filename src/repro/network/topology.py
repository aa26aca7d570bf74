"""Cache-side network layout: ``m`` sources feeding ``N`` cache nodes.

A :class:`Topology` connects ``m`` sources to ``N`` cache nodes and owns
every link in between.  All message flows are addressed by the
``(cache_id, source_id)`` pair carried on the message itself; the topology
decides which links a message crosses and where congestion materializes.

Routing rules (see DESIGN.md Sec 4):

* **Upstream** (source -> cache: refreshes, poll responses): the message
  first consumes credit on the sending source's link (once, regardless of
  fan-out), then is *enqueued* on each target cache link, whose FIFO queue
  is where congestion and queueing delay materialize.  Delivery to a cache
  happens when that cache's link drains.
* **Downstream** (cache -> source: positive feedback, poll requests): the
  message consumes credit on the sending cache's link and is delivered to
  the source with negligible latency.  The cooperative policy only sends
  feedback out of *surplus* credit, so feedback never queues behind
  refreshes, matching the paper's flood-avoidance argument.

One class covers every layout: each cache node has its own link, FIFO
queue and bandwidth profile, and an assignment maps each source to the
cache ids it reports to.  The paper's star is the one-cache case (every
source on cache 0); a *sharded* source reports to exactly one of several
caches, a *replicated* one fans every upstream message out to several.

The topology is policy-agnostic: receivers are registered as callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.network.bandwidth import (
    BandwidthProfile,
    ConstantBandwidth,
    split_bandwidth,
)
from repro.network.link import Link
from repro.network.messages import FeedbackMessage, Message

Receiver = Callable[[Message], None]

#: How a replicated source's upstream send reaches its sibling replicas
#: (accepted by :class:`Topology` and :class:`TopologyConfig`).
DELIVERY_MODES = ("unicast", "multicast")


class Topology:
    """N cache nodes, each with its own link, queue and bandwidth profile.

    ``assignment`` maps each source to the tuple of cache ids its upstream
    messages reach; the first entry is the *primary* cache (feedback and
    poll traffic), and the default is :func:`shard_assignment`.  The
    paper's star is ``Topology([profile], source_profiles)``: one cache,
    every source on it.  A one-element tuple per source is a sharded
    layout; a longer tuple replicates the source's refreshes onto several
    cache links (the source-side link is charged once -- the fan-out
    happens inside the network, as with IP multicast).

    **Fan-out.**  The primary replica gets the message itself; every
    sibling replica ``k`` gets ``replace(message, cache_id=k)``, a copy
    that rides its link's FIFO and keeps per-leg delivery, ack and fault
    semantics.  ``delivery`` sets what a sibling copy costs: full size
    under ``"unicast"`` (``r`` units of cache-side bandwidth per logical
    refresh) and size 0 under ``"multicast"`` (one unit whatever ``r``).
    :meth:`feedback_gain` tells the feedback economy what that buys.

    **Active-link set.**  The per-tick network phase used to refill every
    link, making each tick O(m) even when nothing moves.  Source links
    with *steady* bandwidth profiles are instead marked lazy: they skip
    the tick loop and are brought up to date on first touch through
    :meth:`Link.sync_to_tick`, whose closed-form refill replay is
    bit-for-bit identical to the eager schedule (steady per-tick caps
    telescope).  Cache links stay eager -- they carry FIFO queues, surplus
    telemetry and possibly time-varying profiles -- as do source links
    with non-steady profiles.
    """

    def __init__(self, cache_profiles: Sequence[BandwidthProfile],
                 source_profiles: Sequence[BandwidthProfile],
                 assignment: Sequence[Sequence[int]] | None = None,
                 delivery: str = "unicast") -> None:
        if not cache_profiles:
            raise ValueError("need at least one cache profile")
        _check_delivery(delivery)
        num_caches = len(cache_profiles)
        num_sources = len(source_profiles)
        if assignment is None:
            assignment = shard_assignment(num_sources, num_caches)
        if len(assignment) != num_sources:
            raise ValueError(
                f"assignment covers {len(assignment)} sources, "
                f"expected {num_sources}")
        # Routes every upstream send; reassign_source edits it in place.
        self._assignment: list[tuple[int, ...]] = [
            tuple(targets) for targets in assignment]
        # One pass groups the sources by target tuple, so validation and
        # membership cost one step per distinct tuple (one on a star, N
        # on a sharding).  Groups keep first-occurrence order: the first
        # bad group names the first bad source.
        groups: dict[tuple[int, ...], list[int]] = {}
        for j, targets in enumerate(self._assignment):
            groups.setdefault(targets, []).append(j)
        members: list[list[int]] = [[] for _ in range(num_caches)]
        owned: list[list[int]] = [[] for _ in range(num_caches)]
        for targets, group in groups.items():
            j = group[0]
            if not targets:
                raise ValueError(f"source {j} is assigned to no cache")
            if len(set(targets)) != len(targets):
                raise ValueError(f"source {j} has duplicate cache targets")
            for k in targets:
                if not 0 <= k < num_caches:
                    raise ValueError(
                        f"source {j} assigned to unknown cache {k}")
                members[k] += group
            owned[targets[0]] += group
        self._sources_by_cache = [tuple(sorted(s)) for s in members]
        self._owned_by_cache = [tuple(sorted(s)) for s in owned]
        #: One constrained link per cache node, indexed by ``cache_id``;
        #: each delivers to its cache's receiver (see _wire_cache_link).
        self.cache_links = [Link(f"cache-{k}", profile)
                            for k, profile in enumerate(cache_profiles)]
        self.source_links = [
            Link(f"source-{j}", profile)
            for j, profile in enumerate(source_profiles)
        ]
        self.delivery = delivery
        # The primary cache of each source, and whether any source has
        # sibling replicas: all a single-target send_upstream reads.
        self._primary = [targets[0] for targets in self._assignment]
        self._replicated = any(len(targets) > 1 for targets in groups)
        self._cache_receivers: list[Receiver | None] = [None] * num_caches
        self._source_receivers: list[Receiver | None] = [None] * num_sources
        self._tick_no = 0
        self._tick_time = 0.0
        self._prev_tick_time = 0.0
        # The exact ticker interval float: the first network tick fires at
        # sim-start (0.0) + dt, so its timestamp *is* dt.  Lazy links need
        # it to reproduce the ticker's boundary accumulation bit for bit.
        self._tick_dt = 0.0
        # Every tick's timestamp, indexed by tick number (entry 0 is the
        # simulation start).  Lazy links on piecewise profiles need the
        # true boundary floats to replay skipped refills and to bisect
        # their saturation jumps; ~8 bytes per tick, independent of m.
        self._tick_boundaries: list[float] = [0.0]
        # Scratch message reused by send_downstream_batch: feedback carries
        # no per-message payload beyond its routing fields, so the batch
        # path restamps one instance instead of allocating per target.
        self._feedback_scratch = FeedbackMessage(source_id=0)
        # Fault machinery (absent by default).  _delivery_guard is the
        # single upstream interception point: when it stays None every
        # delivery path runs the exact fault-free instruction sequence,
        # which is what makes an empty FaultPlan bitwise-identical to no
        # plan at all.
        self._fault_injector = None
        self._reliable = None
        self._delivery_guard: Callable[[Message, int], bool] | None = None
        self._crash_listeners: dict[int, list[Callable[[float], None]]] = {}
        # Cache-to-cache transfer links (rebalancer migrations).  Empty
        # unless a controller installs some; the tick loop then iterates
        # nothing, keeping the no-peer path exact.
        self._peer_links: dict[tuple[int, int], Link] = {}
        self._peer_link_list: list[Link] = []
        self._classify_links()

    def _classify_links(self) -> None:
        eager: list[Link] = []
        for link in self.source_links:
            # Steady profiles replay lazily in closed form; non-steady
            # trace profiles replay by segment walk (Link._sync_trace).
            # Anything else (sine) must stay eager.
            link.lazy = (link.profile.steady_rate is not None
                         or link._trace is not None)
            if not link.lazy:
                eager.append(link)
        self._eager_source_links = eager

    @property
    def active_link_count(self) -> int:
        """Links refilled eagerly each network tick (telemetry)."""
        return len(self._eager_source_links) + len(self.cache_links)

    def _sync_source_link(self, source_id: int) -> None:
        """Bring a lazy source link up to the last tick boundary."""
        link = self.source_links[source_id]
        if link.lazy and link._synced_tick < self._tick_no:
            link.sync_to_tick(self._tick_no, self._tick_time,
                              self._prev_tick_time, self._tick_dt,
                              self._tick_boundaries)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_sources(self) -> int:
        """Number of source endpoints."""
        return len(self.source_links)

    @property
    def num_caches(self) -> int:
        """Number of cache endpoints."""
        return len(self.cache_links)

    def caches_of(self, source_id: int) -> tuple[int, ...]:
        """Cache ids source ``source_id`` reports to; the first is primary."""
        return self._assignment[source_id]

    def primary_cache_of(self, source_id: int) -> int:
        """The cache that runs the feedback protocol for this source."""
        return self._assignment[source_id][0]

    def feedback_gain(self, source_id: int) -> float:
        """Replicas one refresh from ``source_id`` freshens per unit of
        cache-side bandwidth: its replication ``r`` under multicast, 1
        under unicast (``r`` replica updates for ``r`` units).  The
        cooperative cache weighs the source's threshold by it when it
        ranks feedback targets."""
        if self.delivery == "multicast":
            return float(len(self._assignment[source_id]))
        return 1.0

    def sources_of(self, cache_id: int) -> tuple[int, ...]:
        """All sources whose upstream messages reach cache ``cache_id``."""
        return self._sources_by_cache[cache_id]

    def owned_sources_of(self, cache_id: int) -> tuple[int, ...]:
        """Sources for which ``cache_id`` is the *primary* cache.

        Feedback targeting partitions sources by primary cache so that a
        replicated source never receives double feedback per surplus tick.
        """
        return self._owned_by_cache[cache_id]

    def object_replicas(self, owner: Sequence[int]
                        ) -> list[tuple[int, ...]]:
        """Replica cache ids per object, given each object's owning source.

        ``owner`` maps global object index to source id (the workload's
        precomputed :attr:`~repro.workloads.synthetic.Workload.owner`
        array).  An object lives wherever its source's upstream messages
        land, so its replica set is its owner's cache assignment.  The read
        model resolves this once per run.
        """
        assignment = self._assignment
        return [assignment[int(j)] for j in owner]

    def reassign_source(self, source_id: int, cache_id: int) -> int:
        """Re-home a sharded source to a new primary cache; returns the old.

        Routing flips immediately: the next upstream refresh lands on the
        new cache's link, and :meth:`caches_of`/:meth:`owned_sources_of`
        reflect the move (the precomputed membership tuples are rebuilt
        for the two affected caches only).  Messages already sitting in
        the old cache's FIFO still deliver there -- exactly the in-flight
        window the migration protocol's freshness counters tolerate.
        Only single-target (sharded) sources can migrate; a replicated
        source's copies are load-balanced by construction.
        """
        if not 0 <= source_id < self.num_sources:
            raise ValueError(f"unknown source {source_id}")
        if not 0 <= cache_id < self.num_caches:
            raise ValueError(f"unknown cache {cache_id}")
        targets = self._assignment[source_id]
        if len(targets) != 1:
            raise ValueError(
                f"source {source_id} is replicated to {targets}; only "
                f"sharded sources can be re-homed")
        old = targets[0]
        if cache_id == old:
            raise ValueError(
                f"source {source_id} is already homed on cache {cache_id}")
        self._assignment[source_id] = (cache_id,)
        self._primary[source_id] = cache_id
        for k in (old, cache_id):
            members = tuple(
                j for j in range(self.num_sources)
                if k in self._assignment[j])
            self._sources_by_cache[k] = members
            self._owned_by_cache[k] = tuple(
                j for j in members if self._assignment[j][0] == k)
        return old

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_cache_receiver(self, receiver: Receiver,
                           cache_id: int = 0) -> None:
        """Register the message handler of cache node ``cache_id``."""
        self._cache_receivers[cache_id] = receiver
        self._wire_cache_link(cache_id)

    def set_source_receiver(self, source_id: int,
                            receiver: Receiver) -> None:
        """Register the message handler of source ``source_id``."""
        self._source_receivers[source_id] = receiver

    def _wire_cache_link(self, cache_id: int) -> None:
        """Point cache link ``cache_id`` at its receiver.

        While no fault guard is installed the link delivers straight to
        the cache's receiver; with one, through a closure that asks the
        guard first.
        """
        receiver = self._cache_receivers[cache_id]
        guard = self._delivery_guard
        if guard is None:
            self.cache_links[cache_id].deliver = receiver
            return

        def deliver(message: Message) -> None:
            if guard(message, cache_id) and receiver is not None:
                receiver(message)
        self.cache_links[cache_id].deliver = deliver

    # ------------------------------------------------------------------
    # Fault injection and reliable delivery (see repro.faults)
    # ------------------------------------------------------------------
    def install_faults(self, injector=None, reliable=None) -> None:
        """Hook fault machinery into every delivery path.

        ``injector`` (a :class:`~repro.faults.injector.FaultInjector`)
        decides the fate of each delivery *after* link credit was spent;
        ``reliable`` (a :class:`~repro.faults.retry.ReliableDelivery`)
        tracks refresh acks and suppresses duplicate deliveries.  Each
        cache link then delivers through the guard; with both ``None``
        it delivers straight to its cache's receiver again.
        """
        self._fault_injector = injector
        self._reliable = reliable
        if reliable is not None:
            reliable.bind(self)
        guard = None
        if injector is not None or reliable is not None:
            def guard(message: Message, cache_id: int) -> bool:
                if injector is not None and not injector.allow_upstream(
                        message, cache_id):
                    if reliable is not None:
                        reliable.on_lost(message, cache_id)
                    return False
                if reliable is not None:
                    return reliable.on_delivered(message, cache_id)
                return True

        self._delivery_guard = guard
        for cache_id in range(self.num_caches):
            self._wire_cache_link(cache_id)

    @property
    def reliable(self):
        """The installed reliable-delivery layer, if any."""
        return self._reliable

    def add_crash_listener(self, cache_id: int,
                           listener: Callable[[float], None]) -> None:
        """Register ``listener(now)`` to run when ``cache_id`` crashes."""
        self._crash_listeners.setdefault(cache_id, []).append(listener)

    def crash_cache(self, cache_id: int, now: float) -> None:
        """Cold-restart one cache: drop its in-flight queue, reset state.

        Messages sitting in the crashed link's FIFO die with the node
        (they consumed send-side accounting but never deliver -- the
        reliable layer, if any, learns of each loss so its timeouts can
        retransmit).  Registered listeners then rebuild the node's
        learned state; accrued link credit survives, since the link
        models the network path, not the process.
        """
        link = self.cache_links[cache_id]
        if link.queue:
            injector = self._fault_injector
            reliable = self._reliable
            for message in link.queue:
                if injector is not None:
                    injector.dropped_crash += 1
                if reliable is not None:
                    reliable.on_lost(message, cache_id)
            link.queue.clear()
        for listener in self._crash_listeners.get(cache_id, ()):
            listener(now)

    # ------------------------------------------------------------------
    # Per-tick network phase
    # ------------------------------------------------------------------
    def on_network_tick(self, now: float) -> None:
        """Refill every *active* link and drain each cache link's queue.

        Lazy source links are skipped here and catch up on first touch;
        see the class docstring for why that is behavior-preserving.
        """
        self._prev_tick_time = self._tick_time
        self._tick_no += 1
        self._tick_time = now
        self._tick_boundaries.append(now)
        if self._tick_no == 1:
            self._tick_dt = now
        for link in self._eager_source_links:
            link.refill(now)
        for link in self.cache_links:
            link.refill(now)
            link.drain()
        for link in self._peer_link_list:
            link.refill(now)
            link.drain()

    def drain_cache(self, cache_id: int) -> int:
        """Second in-tick drain of one cache link (the CACHE phase)."""
        return self.cache_links[cache_id].drain()

    # ------------------------------------------------------------------
    # Cache-to-cache transfer links
    # ------------------------------------------------------------------
    def add_peer_link(self, from_cache: int, to_cache: int,
                      profile: BandwidthProfile,
                      now: float = 0.0) -> Link:
        """Install a directed transfer link between two cache nodes.

        Peer links carry migrations; they are refilled and drained in the
        NETWORK phase like cache links but deliver straight to the
        destination cache's receiver (no fault guard: they model an
        internal backbone, not the source-edge paths the injector
        perturbs).  ``now`` anchors credit accrual at the installation
        time so a link created mid-run does not bank the whole elapsed
        history on its first refill.
        """
        if from_cache == to_cache:
            raise ValueError(f"peer link {from_cache}->{to_cache} is a loop")
        for k in (from_cache, to_cache):
            if not 0 <= k < self.num_caches:
                raise ValueError(f"unknown cache {k} for peer link")
        key = (from_cache, to_cache)
        if key in self._peer_links:
            raise ValueError(f"peer link {from_cache}->{to_cache} exists")
        link = Link(f"peer-{from_cache}-{to_cache}", profile,
                    deliver=self._make_peer_deliver(to_cache))
        link._last_accrue = now
        self._peer_links[key] = link
        self._peer_link_list.append(link)
        return link

    def send_peer(self, message: Message) -> bool:
        """Cache ``from_cache`` -> cache ``cache_id`` over the peer link.

        The message (a :class:`~repro.network.messages.MigrateMessage`)
        consumes peer-link credit proportional to its payload and queues
        FIFO when the link is saturated.  Returns True when delivered
        in-tick.  Raises when no such link exists: migrations must never
        silently teleport state.
        """
        key = (message.from_cache, message.cache_id)
        link = self._peer_links.get(key)
        if link is None:
            raise ValueError(f"no peer link {key[0]}->{key[1]} installed")
        return link.transmit_or_queue(message)

    def _make_peer_deliver(self, cache_id: int) -> Receiver:
        def deliver(message: Message) -> None:
            receiver = self._cache_receivers[cache_id]
            if receiver is not None:
                receiver(message)
        return deliver

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_upstream(self, message: Message) -> bool:
        """Source -> assigned cache(s); source credit is charged once.

        Returns False if the source link lacks credit; routing stamps
        ``message.cache_id`` with the primary target, then every sibling
        replica gets its copy (see the class docstring's fan-out rule).

        The sync/accrue/consume helpers are inlined here: every
        update-driven source drain lands on this method, and at m ~ 1e6
        the call overhead of the layered helpers dominates.  The float
        operations run in the helpers' exact order, so results are
        bit-for-bit unchanged (pinned by the equivalence suites).  A
        single-target send reads one list entry for its route, and the
        sibling fan-out is skipped on a topology with no replicated
        source.
        """
        source_id = message.source_id
        source_link = self.source_links[source_id]
        if source_link._lazy and source_link._synced_tick < self._tick_no:
            source_link.sync_to_tick(self._tick_no, self._tick_time,
                                     self._prev_tick_time, self._tick_dt,
                                     self._tick_boundaries)
        now = message.sent_at
        last = source_link._last_accrue
        if now > last:
            rate = source_link._const_rate
            added = (rate * (now - last) if rate is not None
                     else source_link.profile.capacity(last, now))
            source_link._last_accrue = now
            source_link.credit += added
            source_link._tick_added += added
        size = message.size
        if source_link.queue or source_link.credit < size:
            return False
        source_link.credit -= size
        source_link.tick_used += size
        source_link.total_units += size
        source_link.total_sent += 1
        source_link.total_delivered += 1
        if self._reliable is not None:
            self._reliable.on_send(message)
        primary = self._primary[source_id]
        message.cache_id = primary
        self.cache_links[primary].transmit_or_queue(message)
        if self._replicated:
            targets = self._assignment[source_id]
            links = self.cache_links
            multicast = self.delivery == "multicast"
            for k in targets[1:]:
                links[k].transmit_or_queue(
                    replace(message, cache_id=k, size=0.0) if multicast
                    else replace(message, cache_id=k))
        return True

    def send_upstream_unconstrained(self, message: Message) -> None:
        """Source -> cache ignoring source-side limits.

        Figure 6's CGM comparison states "the polling model used in the CGM
        approach assumes no limitations on source-side bandwidth", so poll
        responses bypass the source link.  The target cache is
        ``message.cache_id`` (the cache that issued the poll) -- polls are
        point-to-point round-trips, so no replica fan-out applies.
        """
        self.cache_links[message.cache_id].transmit_or_queue(message)

    def send_downstream(self, message: Message) -> bool:
        """Cache ``message.cache_id`` -> source ``message.source_id``.
        Consumes that cache link's credit; immediate delivery."""
        receiver = self._source_receivers[message.source_id]
        injector = self._fault_injector
        if injector is not None and not injector.allow_downstream(
                message.cache_id, message.source_id):
            receiver = None  # credit still spent; delivery suppressed
        return self.cache_links[message.cache_id].send(message, receiver)

    def send_downstream_batch(self, cache_id: int,
                              source_ids: Sequence[int],
                              now: float) -> int:
        """Positive feedback from one cache to many sources; returns the
        number delivered (a prefix of ``source_ids``).

        The fast path behind :meth:`FeedbackController.on_tick`: the cache
        link is charged through one accrue and one counter update for the
        whole batch, and a single scratch :class:`FeedbackMessage` is
        restamped per target instead of allocating one per message.

        Credit is still *consumed* one message at a time, interleaved with
        delivery.  That is deliberate, not an oversight: delivering
        feedback makes the source drain, and the refreshes it sends come
        straight back through this same cache link's credit bucket -- a
        pre-charged batch would let later feedback messages spend credit
        the re-entrant refreshes already used, diverging from the
        per-message path the equivalence suite pins.  Receivers must not
        retain the scratch message beyond the callback.
        """
        link = self.cache_links[cache_id]
        link.accrue(now)
        receivers = self._source_receivers
        injector = self._fault_injector
        message = self._feedback_scratch
        message.cache_id = cache_id
        message.sent_at = now
        delivered = 0
        for source_id in source_ids:
            if not link.try_consume(message.size):
                break
            delivered += 1
            message.source_id = source_id
            if injector is not None and not injector.allow_downstream(
                    cache_id, source_id):
                continue  # credit spent; delivery suppressed
            receiver = receivers[source_id]
            if receiver is not None:
                receiver(message)
        link.total_sent += delivered
        link.total_delivered += delivered
        return delivered

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def source_at_capacity(self, source_id: int) -> bool:
        """True when the source spent all its credit this tick (footnote 3)."""
        self._sync_source_link(source_id)
        return not self.source_links[source_id].has_credit()

    def cache_surplus(self, cache_id: int,
                      now: float | None = None) -> float:
        """Leftover credit on one cache link (0 when backlogged).

        ``now`` forwards to :meth:`Link.surplus` so mid-tick readers (a
        feedback controller probing between refills) see credit earned
        since the link was last touched instead of a stale balance.
        """
        return self.cache_links[cache_id].surplus(now)

    def cache_messages_total(self) -> int:
        """Messages accepted by all cache links so far."""
        return sum(link.total_sent for link in self.cache_links)

    def cache_units_total(self) -> float:
        """Bandwidth units consumed across all cache links so far.

        Distinct from :meth:`cache_messages_total`: a multicast sibling
        copy is one more *message* but zero more *units*, so this is the
        honest denominator for divergence-per-unit-bandwidth comparisons
        across delivery planes (experiment E14).
        """
        return sum(link.total_units for link in self.cache_links)

    def cache_queued(self) -> int:
        """Messages still waiting on the cache links."""
        return sum(link.queued for link in self.cache_links)

    def cache_queued_peak(self) -> int:
        """Worst FIFO backlog observed on any cache link."""
        return max((link.total_queued_peak for link in self.cache_links),
                   default=0)

    def fault_counters(self) -> tuple[int, int, int]:
        """Deliveries the fault injector dropped, refreshes retransmitted
        and duplicate copies suppressed so far (zeros without the fault
        machinery)."""
        injector = self._fault_injector
        reliable = self._reliable
        return (injector.dropped if injector is not None else 0,
                reliable.retransmitted if reliable is not None else 0,
                reliable.duplicate_suppressed if reliable is not None
                else 0)

    def telemetry(self, now: float | None = None) -> dict:
        """Per-cache capacity counters, for reports and diagnostics.

        ``now`` forwards to each link's :meth:`Link.surplus` so the
        reported ``cache_surplus`` folds in credit accrued since the
        link was last touched (the stale-credit pitfall PR 5 fixed);
        reports pass the simulation clock instead of hand-rolling
        per-cache ``cache_surplus`` calls.
        """
        dropped, retransmitted, duplicates = self.fault_counters()
        return {
            "num_caches": self.num_caches,
            "cache_utilization": [link.utilization()
                                  for link in self.cache_links],
            "cache_queued": [link.queued for link in self.cache_links],
            "cache_queued_peak": [link.total_queued_peak
                                  for link in self.cache_links],
            "cache_surplus": [link.surplus(now)
                              for link in self.cache_links],
            "dropped": dropped,
            "retransmitted": retransmitted,
            "duplicate_suppressed": duplicates,
        }

    def total_messages(self) -> int:
        """All messages accepted anywhere in the network so far."""
        return (sum(link.total_sent for link in self.cache_links)
                + sum(link.total_sent for link in self.source_links)
                + sum(link.total_sent for link in self._peer_link_list))

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop every callback this topology holds; it cannot route again.

        Link delivery closures reach back to the topology and receivers
        reach the nodes that hold it, so a finished run's graph is
        cyclic until these go.  Counters stay readable.
        """
        for link in self.cache_links + self._peer_link_list:
            link.deliver = None
            link.on_queue = None
        self._cache_receivers.clear()
        self._source_receivers.clear()
        self._crash_listeners.clear()
        self._delivery_guard = None
        self._fault_injector = None
        self._reliable = None


# ----------------------------------------------------------------------
# Assignment helpers
# ----------------------------------------------------------------------
def _check_delivery(delivery: str) -> None:
    if delivery not in DELIVERY_MODES:
        raise ValueError(f"unknown delivery plane {delivery!r}; expected "
                         f"one of {DELIVERY_MODES}")


def shard_assignment(num_sources: int,
                     num_caches: int) -> list[tuple[int, ...]]:
    """One cache per source, contiguous source ranges kept together.

    A balanced block partition, the natural layout when object indices
    are row-major per source: source ``j`` reports to cache
    ``j * num_caches // num_sources``.  Sources on one cache share one
    tuple, so a star's assignment is one list repetition.
    """
    if num_caches < 1:
        raise ValueError(f"need at least one cache, got {num_caches}")
    # Cache k's block starts at the first j with j * N // m == k.
    starts = [-(-k * num_sources // num_caches)
              for k in range(num_caches + 1)]
    assignment: list[tuple[int, ...]] = []
    for k in range(num_caches):
        assignment += [(k,)] * (starts[k + 1] - starts[k])
    return assignment


def replica_assignment(num_sources: int, num_caches: int,
                       replication: int) -> list[tuple[int, ...]]:
    """``replication`` caches per source: its shard plus the next ring
    neighbours, so replica load stays balanced across caches."""
    if not 1 <= replication <= num_caches:
        raise ValueError(
            f"replication must be in [1, {num_caches}], got {replication}")
    rings = [tuple((k + r) % num_caches for r in range(replication))
             for k in range(num_caches)]
    return [rings[k] for (k,) in shard_assignment(num_sources, num_caches)]


@dataclass(frozen=True)
class TopologyConfig:
    """Declarative topology choice, pluggable into a simulation context.

    ``kind`` is ``"star"`` (the paper's layout), ``"sharded"`` (each source
    reports to one of ``num_caches`` caches) or ``"replicated"`` (each
    source fans out to ``replication`` caches).  The aggregate cache-side
    bandwidth is split evenly across the cache links, so scenarios with
    different ``num_caches`` stay budget-comparable -- unless
    ``cache_rates`` pins explicit per-cache rates (heterogeneous edges:
    one beefy regional cache plus thin PoPs), in which case those absolute
    msgs/s rates replace the even split of the aggregate profile.

    ``delivery`` sets what a sibling replica copy costs (``"unicast"`` /
    ``"multicast"``, see :class:`Topology`); it only changes behavior
    when sources are replicated, but is accepted for every kind so sweeps
    can vary it orthogonally.
    """

    kind: str = "star"
    num_caches: int = 1
    replication: int = 2
    cache_rates: tuple[float, ...] | None = None
    delivery: str = "unicast"

    def __post_init__(self) -> None:
        if self.kind not in ("star", "sharded", "replicated"):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        _check_delivery(self.delivery)
        if self.num_caches < 1:
            raise ValueError(
                f"num_caches must be >= 1, got {self.num_caches}")
        if self.kind == "star" and self.num_caches != 1:
            raise ValueError("a star topology has exactly one cache; "
                             "use kind='sharded' for more")
        if self.kind == "replicated" and not (
                1 <= self.replication <= self.num_caches):
            raise ValueError(
                f"replication must be in [1, {self.num_caches}], "
                f"got {self.replication}")
        if self.cache_rates is not None:
            object.__setattr__(self, "cache_rates",
                               tuple(float(r) for r in self.cache_rates))
            if len(self.cache_rates) != self.num_caches:
                raise ValueError(
                    f"cache_rates lists {len(self.cache_rates)} rates for "
                    f"{self.num_caches} caches")
            if any(r <= 0 for r in self.cache_rates):
                raise ValueError(
                    f"cache_rates must be > 0, got {self.cache_rates}")

    def assignment_for(self, num_sources: int) -> list[tuple[int, ...]]:
        """The source -> caches map this configuration induces."""
        if self.kind == "replicated":
            return replica_assignment(num_sources, self.num_caches,
                                      self.replication)
        return shard_assignment(num_sources, self.num_caches)

    def cache_profiles(self, cache_profile: BandwidthProfile
                       ) -> list[BandwidthProfile]:
        """Per-cache link profiles: the explicit heterogeneous rates when
        configured, otherwise an even split of the aggregate bandwidth."""
        if self.cache_rates is not None:
            return [ConstantBandwidth(rate) for rate in self.cache_rates]
        return split_bandwidth(cache_profile, self.num_caches)

    def build(self, cache_profile: BandwidthProfile,
              source_profiles: Sequence[BandwidthProfile]) -> Topology:
        """Materialize the topology for one simulation run."""
        return Topology(self.cache_profiles(cache_profile), source_profiles,
                        assignment=self.assignment_for(len(source_profiles)),
                        delivery=self.delivery)
