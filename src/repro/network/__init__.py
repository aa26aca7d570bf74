"""Network substrate: bandwidth profiles, links, topologies, messages.

A :class:`Topology` owns every link between the sources and the cache
nodes and routes each message; its ``delivery`` mode (``"unicast"`` or
``"multicast"``) is the one rule for what a replicated source's sibling
copies cost.
"""

from repro.network.bandwidth import (
    BandwidthProfile,
    TraceBandwidth,
    ConstantBandwidth,
    ScaledBandwidth,
    SineBandwidth,
    make_bandwidth,
    split_bandwidth,
)
from repro.network.link import Link
from repro.network.messages import (
    MESSAGE_SIZE,
    BatchRefreshMessage,
    FeedbackMessage,
    Message,
    PollRequest,
    PollResponse,
    RefreshMessage,
    message_cost,
)
from repro.network.topology import (
    DELIVERY_MODES,
    Topology,
    TopologyConfig,
    replica_assignment,
    shard_assignment,
)

__all__ = [
    "DELIVERY_MODES",
    "MESSAGE_SIZE",
    "BandwidthProfile",
    "BatchRefreshMessage",
    "ConstantBandwidth",
    "FeedbackMessage",
    "Link",
    "Message",
    "PollRequest",
    "PollResponse",
    "RefreshMessage",
    "ScaledBandwidth",
    "SineBandwidth",
    "Topology",
    "TopologyConfig",
    "TraceBandwidth",
    "make_bandwidth",
    "message_cost",
    "replica_assignment",
    "shard_assignment",
    "split_bandwidth",
]
