"""The benchmark's four workloads, their pins, and one repeat of one.

Each workload is a closed-loop batch run: one seeded simulation at a
time, built and driven through the package's public API.  Why each one
exists is recorded in ``BENCHMARK.json`` and ``bench/README.md``.

``bench/run.py`` calls :func:`run_repeat` in a freshly forked process
per repeat.  Run as a script, this module executes exactly one repeat in
the current process and prints its record as one JSON line::

    PYTHONPATH=src python bench/suite.py --workload dense-star-2k --seed 0 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.parallel import WorkloadSpec, run_cooperative_sharded
from repro.experiments.runner import RunSpec, run_policy
from repro.experiments.scale import sparse_workload
from repro.faults import RetryPolicy, fault_scenario
from repro.network.bandwidth import BandwidthProfile, ConstantBandwidth
from repro.network.topology import TopologyConfig
from repro.policies.cooperative import CooperativePolicy
from repro.rebalance import RebalanceConfig
from repro.workloads.bandwidth_traces import scenario_profile
from repro.workloads.hotspot import moving_hotspot
from repro.workloads.synthetic import uniform_random_walk

from spans import Tracer

WARMUP = 100.0
MEASURE = 500.0
HORIZON = WARMUP + MEASURE
SHARDED4 = TopologyConfig(kind="sharded", num_caches=4)


@dataclass(frozen=True)
class Case:
    """One workload at one size and seed: everything a repeat runs."""

    workload: WorkloadSpec
    spec: RunSpec
    cache_bandwidth: Callable[[], BandwidthProfile]
    source_bandwidth: float
    policy_kwargs: dict[str, Any] = field(default_factory=dict)
    #: run through ``run_cooperative_sharded`` (one shard per worker task)
    #: instead of one in-process simulation
    shard_parallel: bool = False

    @property
    def num_sources(self) -> int:
        return dict(self.workload.kwargs)["num_sources"]


def _sparse_star(seed: int, tiny: bool) -> Case:
    # The E9 point of BENCH_scale.json, so its seed-0 pin is E9's pin.
    m = 2_000 if tiny else 100_000
    return Case(
        workload=WorkloadSpec.make(sparse_workload, seed, num_sources=m,
                                   horizon=HORIZON, update_rate=0.002),
        spec=RunSpec(warmup=WARMUP, measure=MEASURE, seed=seed),
        cache_bandwidth=lambda: ConstantBandwidth(8.0),
        source_bandwidth=1.0)


def _dense_star(seed: int, tiny: bool) -> Case:
    sources, objects = (4, 25) if tiny else (40, 50)
    return Case(
        workload=WorkloadSpec.make(uniform_random_walk, seed,
                                   num_sources=sources,
                                   objects_per_source=objects,
                                   horizon=HORIZON,
                                   fluctuating_weights=True),
        spec=RunSpec(warmup=WARMUP, measure=MEASURE, seed=seed,
                     resample_interval=10.0),
        cache_bandwidth=lambda: ConstantBandwidth(20.0 if tiny else 400.0),
        source_bandwidth=5.0 if tiny else 100.0)


def _sharded4(seed: int, tiny: bool) -> Case:
    m = 4_000 if tiny else 200_000
    return Case(
        workload=WorkloadSpec.make(sparse_workload, seed, num_sources=m,
                                   horizon=HORIZON),
        spec=RunSpec(warmup=WARMUP, measure=MEASURE, seed=seed,
                     topology=SHARDED4),
        cache_bandwidth=lambda: ConstantBandwidth(8.0),
        source_bandwidth=1.0,
        shard_parallel=True)


def _chaos_hotspot(seed: int, tiny: bool) -> Case:
    sources = 16 if tiny else 128
    return Case(
        workload=WorkloadSpec.make(moving_hotspot, seed,
                                   num_sources=sources, objects_per_source=8,
                                   horizon=HORIZON, hot_boost=25.0,
                                   rate_range=(0.02, 0.12)),
        spec=RunSpec(warmup=WARMUP, measure=MEASURE, seed=seed,
                     topology=SHARDED4,
                     faults=fault_scenario("lossy-10", WARMUP, MEASURE,
                                           seed=seed),
                     retry=RetryPolicy()),
        # 1.5 msgs/s of aggregate cache bandwidth per source, as in E13.
        cache_bandwidth=lambda: scenario_profile("diurnal", 1.5 * sources,
                                                 HORIZON),
        source_bandwidth=4.0,
        policy_kwargs={
            "feedback_ttl": 50.0,
            "rebalance": RebalanceConfig(interval=10.0, max_moves=2,
                                         saturation_queue=2),
        })


WORKLOADS: dict[str, Callable[[int, bool], Case]] = {
    "sparse-star-100k": _sparse_star,
    "dense-star-2k": _dense_star,
    "sharded4-200k": _sharded4,
    "chaos-hotspot-4c": _chaos_hotspot,
}

#: Seed-0 outputs of the full-size workloads, captured on the commit that
#: introduced this benchmark.  ``sparse-star-100k`` is BENCH_scale.json's
#: E9 point; ``sharded4-200k`` equals serial ``run_policy`` on the same
#: sharded-4 configuration.  Any other seed is held out: its repeats are
#: only required to agree with each other bit for bit.
PINS: dict[str, dict[str, Any]] = {
    "sparse-star-100k": {"weighted_divergence": 0.48856192209942767,
                         "refreshes": 4792, "feedback_messages": 8},
    "dense-star-2k": {"weighted_divergence": 2.2250446860272017,
                      "refreshes": 230213, "feedback_messages": 9786},
    "sharded4-200k": {"weighted_divergence": 0.4982924769495886,
                      "refreshes": 4793, "feedback_messages": 7},
    "chaos-hotspot-4c": {"weighted_divergence": 1.704814077218849,
                         "refreshes": 63562, "feedback_messages": 10231,
                         "migrations": 71},
}


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of its waited-for pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, pool) / 1024.0  # ru_maxrss is in KiB on Linux


def _serial(case: Case) -> tuple[dict, int]:
    workload = case.workload.build()
    policy = CooperativePolicy(
        case.cache_bandwidth(),
        [ConstantBandwidth(case.source_bandwidth)
         for _ in range(case.num_sources)],
        priority_fn=AreaPriority(), **case.policy_kwargs)
    result = run_policy(workload, ValueDeviation(), policy, case.spec)
    telemetry = policy.topology.telemetry()
    outputs = _outputs(result)
    outputs.update(
        dropped=telemetry["dropped"],
        retransmitted=telemetry["retransmitted"],
        migrations=(policy.rebalancer.migrations
                    if policy.rebalancer is not None else 0))
    return outputs, len(workload.trace)


def _shard_parallel(case: Case, workers: int,
                    tracer: Tracer) -> tuple[dict, int]:
    result = run_cooperative_sharded(
        case.workload, ValueDeviation(), case.spec, case.cache_bandwidth(),
        [ConstantBandwidth(case.source_bandwidth)
         for _ in range(case.num_sources)],
        priority_fn=AreaPriority(), workers=workers, **case.policy_kwargs)
    outputs = _outputs(result)
    outputs.update(dropped=0, retransmitted=0, migrations=0)
    return outputs, tracer.updates


def _outputs(result) -> dict:
    return {
        "weighted_divergence": result.weighted_divergence,
        "unweighted_divergence": result.unweighted_divergence,
        "refreshes": result.refreshes,
        "feedback_messages": result.feedback_messages,
        "messages_total": result.messages_total,
        "mean_threshold": result.extras["mean_threshold"],
        "queued_peak": result.extras["cache_queue_peak"],
    }


def check_outputs(name: str, outputs: dict, updates: int,
                  pins: dict[str, Any]) -> list[str]:
    """Mismatches against ``pins`` and broken invariants, as messages."""
    problems = [f"{key} = {outputs[key]!r}, pinned {want!r}"
                for key, want in pins.items() if outputs[key] != want]
    divergence = outputs["weighted_divergence"]
    if not (math.isfinite(divergence) and divergence > 0):
        problems.append(f"weighted_divergence = {divergence!r}")
    if not 0 < outputs["refreshes"] <= updates:
        problems.append(f"refreshes = {outputs['refreshes']} "
                        f"of {updates} updates")
    if name == "chaos-hotspot-4c":
        # The point of this workload is that the features actually ran.
        for key in ("dropped", "retransmitted", "migrations"):
            if outputs[key] <= 0:
                problems.append(f"{key} = {outputs[key]} on the chaos mix")
    return problems


def run_repeat(name: str, seed: int, traced: bool = False,
               tiny: bool = False, workers: int | None = None) -> dict:
    """Run one repeat of one workload in this process; return its record.

    Wall time runs from the start of workload generation to the
    ``RunResult``; set-up ends at the first ``Simulator.run_until`` entry
    (for the shard-parallel case, the first shard's, in its worker).
    Untraced, those two ``perf_counter`` stamps are the only
    instrumentation; ``traced`` adds the per-layer spans of :mod:`spans`.
    """
    case = WORKLOADS[name](seed, tiny)
    if workers is None:
        # One worker per shard, at most one per core.
        workers = (min(SHARDED4.num_caches, os.cpu_count() or 1)
                   if case.shard_parallel else 1)
    with Tracer(spans=traced) as tracer:
        start = time.perf_counter()
        tracer.open_root()
        if case.shard_parallel:
            outputs, updates = _shard_parallel(case, workers, tracer)
        else:
            outputs, updates = _serial(case)
        tracer.close_root()
        end = time.perf_counter()
    if tracer.first_run_until is None:
        raise RuntimeError("no Simulator.run_until entry was stamped; shard "
                           "pools must start their workers by fork")
    wall = end - start
    setup = tracer.first_run_until - start
    run = wall - setup
    pins = PINS[name] if seed == 0 and not tiny else {}
    record = {
        "workload": name,
        "seed": seed,
        "workers": workers,
        "traced": traced,
        "outputs": outputs,
        "updates": updates,
        "problems": check_outputs(name, outputs, updates, pins),
        "metrics": {
            "wall_s": wall,
            "setup_s": setup,
            "run_s": run,
            "updates_per_s": updates / run,
            "peak_rss_mb": _peak_rss_mb(),
        },
    }
    if traced:
        record["layers"] = tracer.layer_metrics(outputs)
        record["spans"] = {span: {"calls": calls, "total_s": total / 1e9,
                                  "self_s": own / 1e9}
                           for span, (calls, total, own)
                           in tracer.stats.items()}
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_repeat(args.workload, args.seed, traced=bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
