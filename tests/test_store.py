"""Dedicated CacheStore tests: read semantics and the stale-discard path.

The store is the substrate of the replicated read model, so its contract
is pinned here independently of any policy:

* reads of never-written objects return the initial (count-0) snapshot;
* out-of-range indices -- including negative ones, which numpy would
  silently wrap -- raise ``IndexError`` from every accessor;
* the freshness key orders snapshots by ``(refresh_time, applied_count)``;
* the cache node's stale-replica discard (``cache.py``): once any replica
  applied a newer snapshot, a late older snapshot is dropped on delivery,
  so no replica store -- and therefore no read policy -- can ever travel
  backwards in snapshot count.
"""

import numpy as np
import pytest

from repro.cache.cache import CacheNode
from repro.cache.readmodel import ReadModel
from repro.cache.store import CacheStore
from repro.core.divergence import ValueDeviation
from repro.core.objects import DataObject
from repro.network.bandwidth import ConstantBandwidth
from repro.network.messages import RefreshMessage
from repro.network.topology import Topology


class TestReadSemantics:
    def test_never_written_reads_initial_snapshot(self):
        store = CacheStore(3, initial_values=np.array([1.5, 0.0, -2.0]))
        assert store.read(0) == 1.5
        assert store.read(2) == -2.0
        assert store.applied_counts[2] == 0
        # The initial value is the count-0 snapshot taken at time 0.
        assert store.freshness_key(2) == (0.0, 0)
        assert store.age(2, now=7.0) == 7.0

    def test_apply_advances_value_time_and_counts(self):
        store = CacheStore(2)
        store.apply(1, 7.5, now=4.0, update_count=3)
        assert store.read(1) == 7.5
        assert store.refresh_times[1] == 4.0
        assert store.applied_counts[1] == 3
        assert store.freshness_key(1) == (4.0, 3)

    @pytest.mark.parametrize("index", [-1, 3, 100])
    def test_out_of_range_indices_raise(self, index):
        store = CacheStore(3)
        with pytest.raises(IndexError):
            store.read(index)
        with pytest.raises(IndexError):
            store.age(index, now=1.0)
        with pytest.raises(IndexError):
            store.freshness_key(index)
        # The write path is guarded too: a negative index would otherwise
        # silently corrupt the last object via numpy wrapping.
        with pytest.raises(IndexError):
            store.apply(index, 1.0, now=1.0)

    def test_freshness_key_orders_time_then_count(self):
        """Same-time snapshots order by applied count (intra-tick drains),
        different-time snapshots by time (slower link delivering later)."""
        a, b = CacheStore(1), CacheStore(1)
        a.apply(0, 1.0, now=5.0, update_count=4)
        b.apply(0, 2.0, now=5.0, update_count=5)
        assert b.freshness_key(0) > a.freshness_key(0)
        b.apply(0, 3.0, now=6.0, update_count=5)
        a.apply(0, 4.0, now=7.0, update_count=5)
        assert a.freshness_key(0) > b.freshness_key(0)


class Clock:
    """A settable clock for driving CacheNode deliveries by hand."""

    def __init__(self) -> None:
        self.now = 0.0


def make_replicated_pair():
    """Two cache nodes sharing one source's objects, replication 2."""
    topology = Topology(
        cache_profiles=[ConstantBandwidth(10.0), ConstantBandwidth(10.0)],
        source_profiles=[ConstantBandwidth(10.0)],
        assignment=[(0, 1)])
    objects = [DataObject(index=0, source_id=0)]
    metric = ValueDeviation()
    clock = Clock()
    nodes, stores = [], []
    for k in range(2):
        store = CacheStore(1)
        nodes.append(CacheNode(objects, metric, topology, store=store,
                               sim=clock, cache_id=k))
        stores.append(store)
    return topology, objects, nodes, stores, clock


def refresh(value, count, now):
    return RefreshMessage(source_id=0, sent_at=now, object_index=0,
                          value=value, update_count=count)


class TestStaleReplicaDiscard:
    """cache.py's _is_stale: late old snapshots never regress any store."""

    def test_late_stale_snapshot_is_dropped(self):
        topology, objects, nodes, stores, clock = make_replicated_pair()
        objects[0].apply_update(1.0, 10.0, ValueDeviation())
        objects[0].apply_update(2.0, 20.0, ValueDeviation())
        # Fast replica 0 applies the count-2 snapshot first...
        clock.now = 2.0
        nodes[0].on_message(refresh(20.0, 2, now=2.0))
        assert stores[0].read(0) == 20.0
        assert stores[0].freshness_key(0) == (2.0, 2)
        assert nodes[0].refreshes_applied == 1
        # ...then replica 1's congested link delivers the *older*
        # count-1 snapshot late: discarded, store untouched.
        clock.now = 3.0
        nodes[1].on_message(refresh(10.0, 1, now=3.0))
        assert nodes[1].stale_discards == 1
        assert nodes[1].refreshes_applied == 0
        assert stores[1].read(0) == 0.0  # still the initial snapshot
        assert stores[1].freshness_key(0) == (0.0, 0)

    def test_equal_count_snapshot_still_applies(self):
        """A same-count copy on the slower replica is not stale -- it is
        the same snapshot arriving later, and brings the replica up to
        date."""
        topology, objects, nodes, stores, clock = make_replicated_pair()
        objects[0].apply_update(1.0, 10.0, ValueDeviation())
        clock.now = 1.0
        nodes[0].on_message(refresh(10.0, 1, now=1.0))
        clock.now = 2.0
        nodes[1].on_message(refresh(10.0, 1, now=2.0))
        assert nodes[1].stale_discards == 0
        assert stores[1].read(0) == 10.0
        assert stores[1].freshness_key(0) == (2.0, 1)

    def test_no_read_policy_observes_discarded_snapshot(self):
        """After a discard, every read policy answers from a surviving
        snapshot -- the dropped value is unobservable on all paths."""
        topology, objects, nodes, stores, clock = make_replicated_pair()
        objects[0].apply_update(1.0, 10.0, ValueDeviation())
        objects[0].apply_update(2.0, 20.0, ValueDeviation())
        clock.now = 2.0
        nodes[0].on_message(refresh(20.0, 2, now=2.0))
        clock.now = 3.0
        nodes[1].on_message(refresh(10.0, 1, now=3.0))  # discarded
        model = ReadModel(stores, topology, owner=np.zeros(1, np.int64),
                          rng=np.random.default_rng(0))
        observed = {model.any_replica(0)[0] for _ in range(20)}
        observed.add(model.freshest_replica(0)[0])
        for k in (1, 2):
            observed.add(model.quorum(0, k)[0])
        assert 10.0 not in observed  # the discarded snapshot
        assert model.freshest_replica(0) == (20.0, 0)
