"""The rebalancer: migrate source shards toward surplus bandwidth.

Decision loop (DESIGN.md Sec 14): at every window boundary the
controller reads three per-cache signals --

* the *windowed* FIFO peak of each cache link
  (:meth:`~repro.network.link.Link.queued_peak_since`, reset each
  window, so one historical burst cannot brand a cache saturated
  forever);
* the link's banked surplus credit (accrued by the NETWORK-phase refill
  that just ran, so the reading is tick-fresh without touching the
  accrual chain);
* per-source applied-refresh counts and divergence removed, from the
  :class:`~repro.cache.cache.WindowStats` the rebalancer installs on
  each cache node.

``"adaptive"`` mode ranks globally: the worst saturated cache donates
its hottest source (by windowed refresh count) to the cache with the
most surplus.  ``"distributed"`` mode is the Avrachenkov-style
low-complexity baseline: each cache sees only itself and its ring
neighbour and offloads to it when locally saturated -- no global state,
one comparison per cache per window.

A migration is a *warm* handoff: the donor's store snapshots travel in
one :class:`~repro.network.messages.MigrateMessage` over a peer link
(paying credit proportional to the shard size), routing flips
immediately, and the shared truth views are never touched -- so
divergence accounting through a migration is exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import CacheNode, WindowStats
from repro.network.bandwidth import ConstantBandwidth
from repro.network.messages import MigrateMessage
from repro.network.topology import Topology
from repro.sim.events import Phase

MODES = ("adaptive", "distributed")
#: Credit a recipient cache must have banked to accept a shard.
MIN_SURPLUS = 1.0


@dataclass(frozen=True)
class RebalanceConfig:
    """Knobs of one rebalancer run.

    ``max_moves = 0`` arms the full machinery (peer links, window
    telemetry, the decision ticker) but never migrates -- the inert
    configuration the bitwise off-pin compares against, mirroring the
    fault injector's empty-plan discipline.
    """

    interval: float = 20.0  #: seconds between decision windows
    mode: str = "adaptive"  #: "adaptive" (global) or "distributed" (ring)
    saturation_queue: int = 4  #: windowed FIFO peak that flags a donor
    max_moves: int = 1  #: migrations per decision window (0 = inert)
    peer_rate: float = 4.0  #: msgs/s capacity of each peer link

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown rebalance mode {self.mode!r}")
        if self.interval <= 0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        if self.saturation_queue < 1:
            raise ValueError(
                f"saturation_queue must be >= 1, got {self.saturation_queue}")
        if self.max_moves < 0:
            raise ValueError(f"max_moves must be >= 0, got {self.max_moves}")
        if self.peer_rate <= 0:
            raise ValueError(f"peer_rate must be > 0, got {self.peer_rate}")


class Rebalancer:
    """Runs the decision loop over one policy's caches and topology.

    Inert (no links, no ticker, no windows) on a one-cache topology such
    as the star, where there is nowhere to move load, and on a
    replicated assignment, whose copies are balanced by construction:
    only a fully sharded layout of two or more caches migrates.
    """

    def __init__(self, config: RebalanceConfig, topology: Topology,
                 caches: list[CacheNode]) -> None:
        self.config = config
        self.topology = topology
        self.caches = caches
        self.migrations = 0
        self.active = topology.num_caches >= 2 and all(
            len(topology.caches_of(j)) == 1
            for j in range(topology.num_sources))
        self._can_migrate = self.active and config.max_moves > 0
        # Row-major object blocks per source, for store handoffs.
        self._objects_of: dict[int, list[int]] = {}
        if self.active:
            for obj in caches[0].objects:
                self._objects_of.setdefault(obj.source_id,
                                            []).append(obj.index)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def install(self, ctx) -> None:
        """Install peer links, window telemetry and the decision ticker."""
        if not self.active:
            return
        topology = self.topology
        n = topology.num_caches
        profile = ConstantBandwidth(self.config.peer_rate)
        if self.config.mode == "distributed":
            # Ring only: each cache talks to its right neighbour.
            pairs = [(k, (k + 1) % n) for k in range(n)]
        else:
            pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for a, b in pairs:
            topology.add_peer_link(a, b, profile, now=ctx.sim.now)
        for cache in self.caches:
            cache.window = WindowStats()
        ctx.sim.every(self.config.interval, self.on_window,
                      phase=Phase.METRICS)

    # ------------------------------------------------------------------
    # Decision loop
    # ------------------------------------------------------------------
    def on_window(self, now: float) -> None:
        """One decision window: read telemetry, move shards, reset."""
        topology = self.topology
        links = topology.cache_links
        n = topology.num_caches
        # surplus() without a clock: the NETWORK-phase refill of this
        # same timestamp already accrued each link to ``now``, and an
        # extra mid-window accrue here would split the credit float
        # chain and break the inert-config bitwise pin.
        peaks = [links[k].queued_peak_since() for k in range(n)]
        surpluses = [links[k].surplus() for k in range(n)]
        for source_id, donor, recipient in self._plan(peaks, surpluses):
            self._migrate(source_id, donor, recipient, now)
        for k in range(n):
            links[k].reset_queued_peak()
            window = self.caches[k].window
            if window is not None:
                window.reset()

    def _plan(self, peaks: list[int], surpluses: list[float]
              ) -> list[tuple[int, int, int]]:
        if not self._can_migrate:
            return []
        if self.config.mode == "adaptive":
            return self._plan_adaptive(peaks, surpluses)
        return self._plan_distributed(peaks, surpluses)

    def _plan_adaptive(self, peaks: list[int], surpluses: list[float]
                       ) -> list[tuple[int, int, int]]:
        """Global rule: worst backlog donates its hottest source to the
        most surplus-rich uncongested cache."""
        config = self.config
        moves: list[tuple[int, int, int]] = []
        taken: set[int] = set()
        for _ in range(config.max_moves):
            donor = max(range(len(peaks)), key=lambda k: peaks[k])
            if peaks[donor] < config.saturation_queue:
                break
            recipients = [k for k in range(len(peaks))
                          if k != donor
                          and peaks[k] < config.saturation_queue
                          and surpluses[k] >= MIN_SURPLUS]
            if not recipients:
                break
            recipient = max(recipients, key=lambda k: surpluses[k])
            source_id = self._hottest_source(donor, taken)
            if source_id is None:
                break
            taken.add(source_id)
            moves.append((source_id, donor, recipient))
            # One accepted shard per window per recipient: its surplus
            # estimate no longer holds once new load is routed there.
            surpluses[recipient] = 0.0
        return moves

    def _plan_distributed(self, peaks: list[int], surpluses: list[float]
                          ) -> list[tuple[int, int, int]]:
        """Avrachenkov-style local rule: each cache compares itself with
        its ring neighbour only, offloading when locally saturated and
        the neighbour is demonstrably better off.  O(1) state per cache,
        no global ranking."""
        config = self.config
        moves: list[tuple[int, int, int]] = []
        taken: set[int] = set()
        n = len(peaks)
        for k in range(n):
            if len(moves) >= config.max_moves:
                break
            neighbour = (k + 1) % n
            if (peaks[k] >= config.saturation_queue
                    and peaks[neighbour] < peaks[k]
                    and surpluses[neighbour] >= MIN_SURPLUS):
                source_id = self._hottest_source(k, taken)
                if source_id is not None:
                    taken.add(source_id)
                    moves.append((source_id, k, neighbour))
        return moves

    def _hottest_source(self, donor: int,
                        taken: set[int]) -> int | None:
        """The donor's busiest source this window, by applied refreshes.

        Telemetry-driven by design: with no window evidence there is no
        basis to pick a shard, so no move happens (a saturated cache
        whose refreshes all came from one burst earlier in the window
        still shows them here -- the window spans the whole interval).
        The donor always keeps at least one source.
        """
        window = self.caches[donor].window
        owned = self.topology.owned_sources_of(donor)
        if window is None or len(owned) < 2:
            return None
        best, best_count = None, 0
        for j in owned:
            if j in taken:
                continue
            count = window.refreshes.get(j, 0)
            if count > best_count:
                best, best_count = j, count
        return best

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def _migrate(self, source_id: int, donor: int, recipient: int,
                 now: float) -> None:
        """Warm shard handoff: snapshot, re-route, ship over the peer link.

        Routing flips before the payload lands: refreshes sent after
        this instant flow to the recipient, whose store compares
        ``update_count`` per item on arrival, so a racing refresh can
        never be regressed by the (older) migrated snapshot.  Truth
        views are untouched throughout -- see
        :meth:`CacheNode.export_source`.
        """
        items, threshold = self.caches[donor].export_source(
            source_id, self._objects_of.get(source_id, []))
        self.topology.reassign_source(source_id, recipient)
        self.migrations += 1
        self.topology.send_peer(MigrateMessage(
            source_id=source_id, sent_at=now, cache_id=recipient,
            from_cache=donor, items=items, threshold=threshold))
