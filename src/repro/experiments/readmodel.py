"""The client read path: a read stream wired into one simulation run.

The paper's metric (and every experiment so far) time-averages the
divergence of the *logical* cache copy -- the freshest applied snapshot.
What a client experiences under replication is different: the replica that
answers its read may be behind the logical copy, and which replica answers
is a read-path policy decision.  ``run_policy(..., reads=trace)`` (in
:mod:`repro.experiments.runner`) runs a policy with a Poisson client read
stream through a :class:`ReadRun` and measures, per read policy:

* **read-observed divergence** -- mean weighted ``|answered - true|`` over
  the reads actually served (the client's-eye metric);
* the paper's **copy divergence** for the same run (identical across read
  policies -- reads never perturb the simulation), as the baseline the
  read-observed number degrades from;
* the **per-replica divergence** mean (what the paper's metric would say
  if each replica were the cache), the large-read-rate limit of uniform
  any-replica reads.

Sweeping the quorum size k at fixed bandwidth (the ``readmodel`` matrix,
E10, in :mod:`repro.experiments.matrix`) shows the read-cost / staleness
trade-off: quorum(1) (= any-replica) is cheapest and stalest, quorum(r)
(= freshest-replica) dearest and freshest, and read-observed divergence is
monotone non-increasing in k -- each read's consulted replica set is
nested in k (one shared permutation stream; see
:mod:`repro.cache.readmodel`), so larger quorums answer from
equally-or-more-recent snapshots.

With one cache every policy degenerates to the star's ``CacheStore.read``;
:class:`ReadRun` cross-checks that bit for bit on every single-cache run.
"""

from __future__ import annotations

import numpy as np

from repro.cache.readmodel import ReadModel, parse_read_policy
from repro.metrics.collector import ReadCollector, ReplicaDivergenceTracker
from repro.metrics.report import ReadStats
from repro.policies.base import SimulationContext, SyncPolicy
from repro.workloads.read_process import ReadReplayer, ReadTrace


class ReadRun:
    """The read path of one simulation run, wired into a context.

    Construct after ``policy.attach(ctx)`` (the per-cache stores must
    exist) and before ``ctx.run``.  Reads are measurement-only: they never
    send messages or touch policy state, so attaching a read stream
    changes no simulated outcome -- the equivalence suite pins that.
    """

    def __init__(self, ctx: SimulationContext, policy: SyncPolicy,
                 read_trace: ReadTrace, read_policy: str = "any") -> None:
        stores = [cache.store for cache in policy.caches]
        topology = policy.topology
        if not stores or None in stores or topology is None:
            raise ValueError(
                f"policy {policy.name!r} exposes no per-cache stores; "
                f"attach it first and use a store-backed policy")
        self.read_policy = read_policy
        self._kind, self._k = parse_read_policy(read_policy)
        self.model = ReadModel(stores, topology, ctx.workload.owner,
                               rng=ctx.rngs.stream("read-subsets"))
        self.collector = ReadCollector(ctx.workload.num_objects,
                                       ctx.workload.weights,
                                       num_replicas=topology.num_caches,
                                       warmup=ctx.warmup)
        self.tracker = ReplicaDivergenceTracker(
            stores, ctx.objects, self.model.replicas, warmup=ctx.warmup)
        ctx.add_update_hook(self.tracker.on_update)
        for cache in policy.caches:
            cache.add_refresh_hook(self.tracker.refresh_hook(cache.cache_id))
        # Single cache: every policy must answer exactly what the star's
        # CacheStore.read returns.  Cross-check each read bit for bit.
        self._baseline_store = stores[0] if topology.num_caches == 1 \
            else None
        self.baseline_mismatches = 0
        self._objects = ctx.objects
        self._sim = ctx.sim
        self.replayer = ReadReplayer(ctx.sim, read_trace, self._on_read,
                                     on_read_batch=self._on_read_batch)

    def _on_read(self, now: float, index: int) -> None:
        if self._kind == "any":
            sample = self.model.any_replica(index)
        elif self._kind == "freshest":
            sample = self.model.freshest_replica(index)
        else:
            sample = self.model.quorum(index, self._k)
        divergence = abs(sample.value - self._objects[index].value)
        self.collector.record_read(index, now, divergence,
                                   sample.cache_id)
        if self._baseline_store is not None and \
                sample.value != float(self._baseline_store.values[index]):
            self.baseline_mismatches += 1

    def _on_read_batch(self, times: np.ndarray,
                       indices: np.ndarray) -> None:
        """Serve a run of consecutive reads between simulator wakeups.

        Answers come from :meth:`ReadModel.read_batch` (same values, same
        rng consumption as the per-read loop) and land in one
        :meth:`ReadCollector.record_many` call.  The true source values
        are gathered per read -- they change between batches -- but
        ``abs`` and the baseline cross-check vectorize.
        """
        values, cache_ids = self.model.read_batch(
            indices, policy=self.read_policy)
        objects = self._objects
        truth = np.array([objects[index].value
                          for index in indices.tolist()])
        divergences = np.abs(values - truth)
        self.collector.record_many(indices, times, divergences, cache_ids)
        if self._baseline_store is not None:
            baseline = self._baseline_store.values[indices]
            self.baseline_mismatches += int(
                np.count_nonzero(values != baseline))
        # Keep the clock where per-event replay would have left it (reads
        # never touch simulator state, so only the final position matters).
        self._sim.advance_clock(float(times[-1]))

    @property
    def matches_direct(self) -> bool | None:
        """True when every single-cache read equalled ``CacheStore.read``
        exactly (None on multi-cache runs, where there is no baseline)."""
        if self._baseline_store is None:
            return None
        return self.baseline_mismatches == 0

    def stats(self, end: float) -> ReadStats:
        """Close the replica integrals at ``end`` and summarize the reads."""
        self.tracker.finalize(end)
        reads = self.collector
        return ReadStats(
            count=reads.reads,
            divergence=reads.mean_read_divergence(),
            divergence_unweighted=reads.mean_unweighted_read_divergence(),
            stale_fraction=reads.stale_read_fraction(),
            replica_reads=tuple(reads.replica_reads.tolist()),
            replica_divergence=self.tracker.mean_over_replicas(),
            matches_direct=self.matches_direct)
