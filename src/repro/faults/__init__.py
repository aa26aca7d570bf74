"""Deterministic fault injection for the network substrate.

The paper assumes a reliable transport: every message that wins
bandwidth is delivered and caches never lose state.  This package makes
partial failure a first-class, *seeded* experiment axis:

* :class:`FaultPlan` -- a declarative schedule of piecewise per-link
  loss-probability windows and cache crash/restart events (a feedback
  blackout is a downstream loss window with probability 1).
* :class:`FaultInjector` -- the runtime hooked into the
  :class:`~repro.network.topology.Topology` delivery paths.  Drops
  happen at *delivery* time, after link credit is spent, like real
  packet loss.
* :class:`RetryPolicy` / :class:`ReliableDelivery` -- an optional
  per-refresh ack/timeout/retransmit layer with exponential backoff,
  bounded attempts and per-``(source, seq)`` duplicate suppression.

Everything is deterministic: loss draws come from a counter-keyed
integer hash (:func:`hash01`), never from shared RNG state, so the
tick == event and parallel == serial bitwise pins extend to faulty runs.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FAULT_SCENARIOS,
    CacheCrash,
    FaultPlan,
    LossRule,
    fault_scenario,
    hash01,
)
from repro.faults.retry import ReliableDelivery, RetryPolicy

__all__ = [
    "FAULT_SCENARIOS",
    "CacheCrash",
    "FaultInjector",
    "FaultPlan",
    "LossRule",
    "ReliableDelivery",
    "RetryPolicy",
    "fault_scenario",
    "hash01",
]
