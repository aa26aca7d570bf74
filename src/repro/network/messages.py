"""Message types exchanged between sources and the cache.

Every message has size 1 (the paper: "all messages have the same size, and
each message requires 1 unit of bandwidth"), so links account capacity in
whole messages.  The dataclasses carry exactly the payload the corresponding
protocol step needs:

* :class:`RefreshMessage` -- a source pushes the current value of one object
  to the cache, piggybacking its local refresh threshold (Sec 5: "each
  source can piggyback its current local threshold in refresh messages").
* :class:`FeedbackMessage` -- the cache's *positive feedback* asking one
  source to lower its threshold (Sec 5).
* :class:`PollRequest` / :class:`PollResponse` -- the round-trip used by the
  cache-driven CGM baselines (Sec 6.3), where the response reports the
  current value plus whatever change-tracking information the estimator
  variant is allowed to see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Bandwidth cost of any message, in link-capacity units.
MESSAGE_SIZE = 1.0


def message_cost(item_count: int = 1) -> float:
    """Bandwidth cost of a message carrying ``item_count`` payload items.

    The single authority for size arithmetic: the paper's base rule is
    "all messages have the same size, and each message requires 1 unit
    of bandwidth", and multi-item messages that pay per item (migrations)
    scale that unit by their item count -- an empty payload still costs
    one unit, since the envelope crosses the wire either way.  Sec 10.1
    batches deliberately do *not* use the multiplier (amortization is
    their whole point); they keep the one-unit default.
    """
    return MESSAGE_SIZE * max(1, item_count)


@dataclass(slots=True)
class Message:
    """Base class: common routing fields.

    Every message flows between one source and one cache node, so it is
    addressed by the ``(cache_id, source_id)`` pair.  Single-cache (star)
    layouts leave ``cache_id`` at 0; multi-cache topologies stamp the
    cache endpoint during routing (sharded) or fan a copy out per replica.

    ``size`` is a real field rather than a computed property so delivery
    planes can restamp it per replica copy (multicast siblings ride at
    size 0); it defaults to the paper's one-unit cost.
    """

    source_id: int  #: id of the source endpoint of this message's flow
    sent_at: float = field(default=0.0, kw_only=True)
    cache_id: int = field(default=0, kw_only=True)  #: cache endpoint id
    #: bandwidth cost in link-capacity units (see :func:`message_cost`)
    size: float = field(default=MESSAGE_SIZE, kw_only=True)


@dataclass(slots=True)
class RefreshMessage(Message):
    """Source -> cache: new value for one object."""

    object_index: int = 0  #: global object index
    value: float = 0.0  #: source value snapshot at send time
    threshold: float = float("inf")  #: piggybacked local refresh threshold
    update_count: int = 0  #: source's cumulative update counter at send time
    #: reliable-delivery sequence number (-1 = best-effort, no tracking);
    #: stamped per source by :class:`repro.faults.retry.ReliableDelivery`
    seq: int = field(default=-1, kw_only=True)


@dataclass(slots=True)
class BatchRefreshMessage(Message):
    """Source -> cache: several object refreshes packaged into one message.

    Implements the paper's Sec 10.1 bandwidth-amortization idea: the batch
    costs one bandwidth unit regardless of how many items it carries, at
    the price of artificially delaying the earliest items while the batch
    fills.  ``items`` holds ``(object_index, value, update_count)``
    snapshots taken at each item's enqueue time.
    """

    items: list[tuple[int, float, int]] = field(default_factory=list)
    threshold: float = float("inf")  #: piggybacked local refresh threshold
    #: reliable-delivery sequence number (-1 = best-effort, no tracking)
    seq: int = field(default=-1, kw_only=True)


@dataclass(slots=True)
class FeedbackMessage(Message):
    """Cache -> source: positive feedback (please refresh more)."""


@dataclass(slots=True)
class MigrateMessage(Message):
    """Cache -> cache: hand one source's cached state to a peer.

    Sent over a cache-to-cache transfer link when the rebalancer moves
    ``source_id`` from ``from_cache`` to ``cache_id``.  ``items`` carries
    the donor's store snapshots ``(object_index, value, update_count)``;
    the receiver applies each only if at least as fresh as what it holds
    (late refreshes may have raced ahead over the re-routed source link).
    ``threshold`` is the donor feedback controller's learned threshold so
    the recipient does not restart the Sec 5 bootstrap from infinity.

    Unlike :class:`BatchRefreshMessage` (the paper's one-unit amortized
    batch), a migration pays for what it moves: ``size`` scales with the
    item count, so a whole-shard handoff honestly competes for peer-link
    credit.
    """

    items: list[tuple[int, float, int]] = field(default_factory=list)
    #: donor's learned threshold (inf: the donor had learned none)
    threshold: float = float("inf")
    from_cache: int = 0  #: donor cache id

    def __post_init__(self) -> None:
        # A migration pays for what it moves; any ``size`` passed in
        # (e.g. by dataclasses.replace) is overridden by the payload.
        self.size = message_cost(len(self.items))


@dataclass(slots=True)
class PollRequest(Message):
    """Cache -> source: CGM polling request for one object."""

    object_index: int = 0


@dataclass(slots=True)
class PollResponse(Message):
    """Source -> cache: CGM polling response.

    ``last_update_time`` is only populated for the CGM1 variant, where the
    source tracks the time of the most recent update (Sec 6.3).  CGM2 only
    learns the boolean ``changed``.
    """

    object_index: int = 0
    value: float = 0.0
    update_count: int = 0  #: source's cumulative update counter at send time
    changed: bool = False
    last_update_time: float | None = None
