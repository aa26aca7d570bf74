"""X2 -- Sec 8.2.1: sampling-based priority monitoring.

Sources without update triggers estimate priorities by sampling.  The
bench sweeps the sampling interval and checks the expected trade-off:
denser sampling approaches trigger-based (exact) monitoring; predictive
scheduling of the next sample recovers part of the loss at equal budget.
"""

import numpy as np
from conftest import run_once

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.runner import RunSpec, run_policy
from repro.metrics.report import format_table
from repro.network.bandwidth import ConstantBandwidth
from repro.policies.cooperative import CooperativePolicy
from repro.workloads.synthetic import uniform_random_walk

SPEC = RunSpec(warmup=100.0, measure=400.0)


def make_workload(seed=0):
    return uniform_random_walk(num_sources=4, objects_per_source=10,
                               horizon=SPEC.end_time,
                               rng=np.random.default_rng(seed),
                               rate_range=(0.1, 0.6))


def run_monitoring_sweep(intervals=(2.0, 10.0, 30.0), seed=0):
    rows = []
    trigger = CooperativePolicy(
        ConstantBandwidth(8.0), [ConstantBandwidth(5.0)] * 4,
        AreaPriority())
    result = run_policy(make_workload(seed), ValueDeviation(), trigger,
                        SPEC)
    rows.append(["triggers (exact)", result.unweighted_divergence, 0])
    for interval in intervals:
        for predictive in (False, True):
            policy = CooperativePolicy(
                ConstantBandwidth(8.0), [ConstantBandwidth(5.0)] * 4,
                AreaPriority(), monitor="sampling",
                sampling_interval=interval,
                predictive_sampling=predictive)
            result = run_policy(make_workload(seed), ValueDeviation(),
                                policy, SPEC)
            samples = sum(policy.sources.monitors[j].samples_taken
                          for j in range(4))
            label = (f"sampling every {interval:g}s"
                     + (" + predictive" if predictive else ""))
            rows.append([label, result.unweighted_divergence, samples])
    return rows


def test_x2_sampling_monitor(benchmark):
    rows = run_once(benchmark, run_monitoring_sweep)
    print()
    print(format_table(
        ["monitor", "avg deviation", "samples taken"],
        rows, title="X2: Sec 8.2.1 sampling-based priority monitoring"))
    exact = rows[0][1]
    dense = next(r[1] for r in rows if r[0] == "sampling every 2s")
    sparse = next(r[1] for r in rows if r[0] == "sampling every 30s")
    # Dense sampling approaches exact monitoring; sparse costs accuracy.
    assert dense <= sparse * 1.05
    assert dense <= exact * 1.6
