"""Network substrate: bandwidth profiles, links, topologies, messages."""

from repro.network.bandwidth import (
    BandwidthProfile,
    TraceBandwidth,
    ConstantBandwidth,
    ScaledBandwidth,
    SineBandwidth,
    make_bandwidth,
    split_bandwidth,
)
from repro.network.delivery import (
    DELIVERY_MODES,
    DeliveryPlane,
    MulticastDelivery,
    UnicastDelivery,
    make_delivery_plane,
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
    "DeliveryPlane",
    "FeedbackMessage",
    "Link",
    "Message",
    "MulticastDelivery",
    "PollRequest",
    "PollResponse",
    "RefreshMessage",
    "ScaledBandwidth",
    "SineBandwidth",
    "Topology",
    "TopologyConfig",
    "TraceBandwidth",
    "UnicastDelivery",
    "make_bandwidth",
    "make_delivery_plane",
    "message_cost",
    "replica_assignment",
    "shard_assignment",
    "split_bandwidth",
]
