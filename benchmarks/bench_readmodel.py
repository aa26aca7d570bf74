"""E10: batched vs per-event read replay on a read-heavy sweep.

Every cell of a read-dominated ``readmodel`` matrix (3 caches, read rate
8/s, so many consecutive reads fall between simulator wakeups) runs
twice: reads replayed one event at a time, then in batches.  The batched
path must reproduce every number float for float; the wall-clock ratio
is advisory on shared runners but logged so the read-side replay cost
stays visible.  The E10 matrix's verdicts are asserted in
``bench_matrix``.
"""

import time
from dataclasses import replace

from conftest import run_once

from repro.core.divergence import ValueDeviation
from repro.experiments.matrix import READMODEL, make_policy
from repro.experiments.parallel import build_workload
from repro.experiments.readmodel import run_policy_with_reads
from repro.sim.random import RngRegistry

READ_HEAVY = "replication=1,2 read-rate=8 warmup=50 measure=250"


def _run_read_heavy(replay):
    """Each read-heavy cell's read-path numbers under one replay mode."""
    out = []
    params = READMODEL.parse(READ_HEAVY.split())
    for _, _, scenario in READMODEL.cells(params):
        workload = build_workload(scenario.workload)
        policy = make_policy(scenario.policy,
                             *scenario.profiles(workload.num_sources),
                             workload.num_objects)
        reads = workload.read_stream(
            RngRegistry(scenario.seed).stream("read-workload"),
            read_rate=scenario.read_rate)
        result, read_run = run_policy_with_reads(
            workload, ValueDeviation(), policy,
            replace(scenario.spec(), replay=replay), reads,
            read_policy=scenario.read_policy, track_replicas=True)
        out.append((result.read_divergence,
                    result.read_divergence_unweighted, result.reads,
                    result.weighted_divergence, result.refreshes,
                    read_run.collector.stale_read_fraction(),
                    read_run.tracker.mean_over_replicas()))
    return out


def test_readmodel_batched_reads(benchmark):
    """Batched read replay reproduces per-event replay float for float."""
    def compare():
        timings = {}
        results = {}
        for replay in ("event", "batched"):
            start = time.perf_counter()
            results[replay] = _run_read_heavy(replay)
            timings[replay] = time.perf_counter() - start
        return timings, results

    timings, results = run_once(benchmark, compare)
    assert results["event"] == results["batched"], \
        "batched read replay diverged from per-event replay"
    speedup = timings["event"] / timings["batched"] \
        if timings["batched"] > 0 else float("inf")
    print(f"read-heavy sweep: event {timings['event']:.2f}s, "
          f"batched {timings['batched']:.2f}s ({speedup:.2f}x)")
