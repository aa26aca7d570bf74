"""E12: the fault layer's machinery overhead.

A machinery-overhead pair: one cooperative run fault-free, one with an
*armed but inert* plan (a zero-probability loss rule spanning the whole
horizon), so the delivery guard is consulted on every message yet never
fires.  The results must match bit for bit and the guarded wall must
stay within ``MACHINERY_OVERHEAD_LIMIT`` x the unguarded one -- the
acceptance number for keeping the fault hooks out of the fault-free hot
path.  The E12 matrix's verdicts are asserted in ``bench_matrix``.

The overhead test merges its walls into ``BENCH_scale.current.json``
(untracked; see ``bench_scale.py``) under a ``faults`` section so the
perf regression job archives them alongside the E9/E11 points.

Timing-ratio asserts are machine-sensitive; CI runs this bench in the
non-failing perf-smoke job.
"""

import json
import time

import numpy as np
from conftest import run_once

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.runner import RunSpec, run_policy
from repro.faults.plan import FaultPlan, LossRule
from repro.network.bandwidth import ConstantBandwidth
from repro.policies.cooperative import CooperativePolicy
from repro.workloads.synthetic import uniform_random_walk

#: Max guarded / unguarded wall-clock ratio with an inert fault plan.
MACHINERY_OVERHEAD_LIMIT = 1.2


def _cooperative_wall(workload, spec):
    policy = CooperativePolicy(
        ConstantBandwidth(24.0),
        [ConstantBandwidth(4.0) for _ in range(workload.num_sources)],
        priority_fn=AreaPriority())
    start = time.perf_counter()
    result = run_policy(workload, ValueDeviation(), policy, spec)
    return time.perf_counter() - start, result.weighted_divergence


def test_fault_machinery_overhead(benchmark):
    """An armed-but-inert plan: bitwise identical, <= 1.2x the wall.

    The inert plan (one zero-probability loss rule over the whole
    horizon) defeats the empty-plan normalization, so the injector is
    installed and the delivery guard runs on every upstream and
    downstream message -- the worst case for machinery-off overhead.
    """

    def both():
        workload = uniform_random_walk(48, 8, horizon=300.0,
                                       rng=np.random.default_rng(0))
        spec_off = RunSpec(warmup=50.0, measure=250.0, seed=0)
        inert = FaultPlan(loss=(LossRule(0.0, 300.0, 0.0),))
        spec_on = RunSpec(warmup=50.0, measure=250.0, seed=0,
                          faults=inert)
        # Interleave and take minima so clock drift hits both arms.
        walls_off, walls_on, divs = [], [], []
        for _ in range(2):
            wall, div = _cooperative_wall(workload, spec_off)
            walls_off.append(wall)
            divs.append(div)
            wall, div = _cooperative_wall(workload, spec_on)
            walls_on.append(wall)
            divs.append(div)
        return min(walls_off), min(walls_on), divs

    wall_off, wall_on, divs = run_once(benchmark, both)
    assert len(set(divs)) == 1, \
        "the inert fault plan changed the cooperative result"

    ratio = wall_on / wall_off
    try:
        with open("BENCH_scale.current.json") as f:
            payload = json.load(f)
    except FileNotFoundError:
        payload = {"experiment": "E9-extreme"}
    payload["faults"] = {
        "machinery_overhead_limit": MACHINERY_OVERHEAD_LIMIT,
        "machinery_overhead": ratio,
        "wall_off_seconds": wall_off,
        "wall_on_seconds": wall_on,
    }
    with open("BENCH_scale.current.json", "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    assert ratio <= MACHINERY_OVERHEAD_LIMIT, (
        f"inert-plan run {ratio:.2f}x the fault-free wall "
        f"(limit {MACHINERY_OVERHEAD_LIMIT}x) -- the delivery guard is "
        f"leaking into the hot path")
