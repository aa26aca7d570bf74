"""Cache-side machinery: store, refresh application, feedback, read model."""

from repro.cache.cache import CacheNode
from repro.cache.feedback import FeedbackController
from repro.cache.readmodel import (
    READ_POLICIES,
    ReadModel,
    parse_read_policy,
)
from repro.cache.store import CacheStore

__all__ = [
    "CacheNode",
    "CacheStore",
    "FeedbackController",
    "READ_POLICIES",
    "ReadModel",
    "parse_read_policy",
]
