"""Replicated read model: which replica answers a client read.

The paper's divergence metric is time-averaged over *the* cache copy.  With
a replicated :class:`~repro.network.topology.Topology` there is no single
copy any more: each replica's :class:`~repro.cache.store.CacheStore`
holds whatever snapshots its own (possibly congested) link has delivered,
so which replica answers a read decides the divergence the client actually
observes.  The :class:`ReadModel` exposes the three classic read-side
policies over the per-replica stores:

* **any-replica** -- a uniformly random replica answers; the cheapest read,
  and the one that exposes the full replica-staleness spread;
* **freshest-replica** -- consult every replica, answer from the freshest
  snapshot (the logical cached copy the shared truth view tracks);
* **quorum(k)** -- consult ``k`` randomly chosen replicas and answer from
  the freshest among them.  ``quorum(1)`` *is* any-replica and
  ``quorum(r)`` *is* freshest-replica, so one mechanism spans the whole
  read-cost/staleness trade-off.

Snapshot freshness is the store's ``(refresh_time, applied_count)`` pair
(see :mod:`repro.cache.store`); ties across replicas resolve to the lowest
cache id, keeping every read deterministic given the subset drawn.

**Quorum nesting.**  Each read draws one replica *permutation* from the
model's rng and quorum(k) consults its first ``k`` entries, so for a fixed
rng stream the consulted sets are nested in ``k``: a quorum(k+1) read sees
a superset of the snapshots the quorum(k) read saw and therefore answers
with an equally-fresh-or-fresher snapshot.  That is what makes quorum-k
read-observed *staleness* monotone in ``k`` read-by-read (and divergence
monotone in aggregate) when experiments sweep ``k`` on one seed.

With one cache the model degenerates to the star's ``CacheStore.read``:
every policy consults the single store and returns exactly its value.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cache.store import CacheStore
from repro.network.topology import Topology

#: Read-policy names understood by :func:`parse_read_policy`.
READ_POLICIES = ("any", "freshest", "quorum")


def parse_read_policy(name: str) -> tuple[str, int]:
    """Parse ``"any"`` / ``"freshest"`` / ``"quorum-k"`` into ``(kind, k)``.

    ``k`` is 0 for the non-quorum policies (any consults 1 replica,
    freshest consults all; neither takes a parameter).
    """
    if name == "any":
        return ("any", 0)
    if name == "freshest":
        return ("freshest", 0)
    if name.startswith("quorum-"):
        try:
            k = int(name[len("quorum-"):])
        except ValueError:
            raise ValueError(f"bad quorum size in read policy {name!r}")
        if k < 1:
            raise ValueError(f"quorum size must be >= 1, got {k}")
        return ("quorum", k)
    raise ValueError(
        f"unknown read policy {name!r}; expected 'any', 'freshest' "
        f"or 'quorum-k'")


class ReadModel:
    """Policy-parameterized reads over the per-replica cache stores.

    Parameters
    ----------
    stores:
        One :class:`CacheStore` per cache node, indexed by cache id --
        exactly the list a policy builds in :meth:`attach` (e.g.
        ``CooperativePolicy.stores``).
    topology:
        The run's topology; supplies the replica set per source.
    owner:
        Owning source of every global object index
        (:attr:`repro.workloads.synthetic.Workload.owner`).
    rng:
        Generator for replica-subset draws.  Runs that sweep quorum sizes
        on one seed share the permutation stream, which makes consulted
        sets nested in ``k`` (see the module docstring).  ``None`` is
        allowed when only deterministic reads (``freshest``) are issued.
    """

    def __init__(self, stores: Sequence[CacheStore], topology: Topology,
                 owner: np.ndarray,
                 rng: np.random.Generator | None = None) -> None:
        if len(stores) != topology.num_caches:
            raise ValueError(
                f"got {len(stores)} stores for {topology.num_caches} "
                f"caches")
        self.stores = list(stores)
        self.topology = topology
        self.rng = rng
        #: replica cache ids per object, resolved once from the topology
        self.replicas: list[tuple[int, ...]] = \
            topology.object_replicas(owner)

    # ------------------------------------------------------------------
    # Read policies
    # ------------------------------------------------------------------
    def any_replica(self, index: int) -> tuple[float, int]:
        """Answer from one uniformly random replica (= quorum(1))."""
        return self.quorum(index, 1)

    def freshest_replica(self, index: int) -> tuple[float, int]:
        """Answer from the freshest replica snapshot; deterministic, no
        rng draw (unlike ``quorum(r)``, which consumes a permutation to
        stay aligned with smaller quorums on the same stream)."""
        return self._freshest(index, self.replicas[index])

    def quorum(self, index: int, k: int) -> tuple[float, int]:
        """Answer from the freshest of ``k`` randomly drawn replicas.

        The draw is the first ``k`` entries of one full replica
        permutation, so quorums of different sizes on the same rng stream
        consult nested sets.
        """
        replicas = self.replicas[index]
        if not 1 <= k <= len(replicas):
            raise ValueError(
                f"quorum size must be in [1, {len(replicas)}] for object "
                f"{index}, got {k}")
        if len(replicas) == 1:
            # Single replica: nothing to draw.  Keeping the rng untouched
            # here is what makes the one-cache read path bit-for-bit the
            # star's CacheStore.read baseline.
            return self._freshest(index, replicas)
        if self.rng is None:
            raise ValueError("quorum reads need an rng for subset draws")
        perm = self.rng.permutation(len(replicas))
        chosen = tuple(replicas[p] for p in perm[:k])
        return self._freshest(index, chosen)

    def _freshest(self, index: int,
                  candidates: Sequence[int]) -> tuple[float, int]:
        best = -1
        best_key = (float("-inf"), -1)
        for cache_id in candidates:
            store = self.stores[cache_id]
            key = (float(store.refresh_times[index]),
                   int(store.applied_counts[index]))
            # Strict > keeps the lowest cache id on full ties only when
            # candidates are scanned in id order; with a permuted subset
            # the id must join the comparison explicitly.
            if best < 0 or key > best_key or (key == best_key
                                              and cache_id < best):
                best = cache_id
                best_key = key
        return float(self.stores[best].values[index]), best
