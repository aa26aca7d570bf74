"""E12: the fault layer's machinery overhead.

A machinery-overhead pair: one cooperative run fault-free, one with an
*armed but inert* plan (a zero-probability loss rule spanning the whole
horizon), so the delivery guard is consulted on every message yet never
fires.  The results must match bit for bit and the guarded wall must
stay within ``MACHINERY_OVERHEAD_LIMIT`` x the unguarded one, as the
median ratio over repeated pairs (:func:`conftest.ab_ratio`) -- the
acceptance number for keeping the fault hooks out of the fault-free hot
path.  The E12 matrix's verdicts are asserted in ``bench_matrix``.

Timing-ratio asserts are machine-sensitive; CI runs this bench in the
non-failing perf-smoke job.
"""

import time

import numpy as np
from conftest import ab_ratio, run_once

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.runner import RunSpec, run_policy
from repro.faults.plan import FaultPlan, LossRule
from repro.network.bandwidth import ConstantBandwidth
from repro.policies.cooperative import CooperativePolicy
from repro.workloads.synthetic import uniform_random_walk

#: Max guarded / unguarded wall-clock ratio with an inert fault plan.
MACHINERY_OVERHEAD_LIMIT = 1.2

#: A run takes ~0.3 s, so extra pairs are cheap and steady the median.
PAIRS = 11


def _arm(workload, spec):
    def run():
        policy = CooperativePolicy(
            ConstantBandwidth(24.0),
            [ConstantBandwidth(4.0) for _ in range(workload.num_sources)],
            priority_fn=AreaPriority())
        start = time.perf_counter()
        result = run_policy(workload, ValueDeviation(), policy, spec)
        return time.perf_counter() - start, result.weighted_divergence
    return run


def test_fault_machinery_overhead(benchmark):
    """An armed-but-inert plan: bitwise identical, <= 1.2x the wall.

    The inert plan (one zero-probability loss rule over the whole
    horizon) defeats the empty-plan normalization, so the injector is
    installed and the delivery guard runs on every upstream and
    downstream message -- the worst case for machinery-off overhead.
    """
    workload = uniform_random_walk(48, 8, horizon=300.0,
                                   rng=np.random.default_rng(0))
    inert = FaultPlan(loss=(LossRule(0.0, 300.0, 0.0),))
    ratio, off, on = run_once(
        benchmark, ab_ratio,
        _arm(workload, RunSpec(warmup=50.0, measure=250.0, seed=0)),
        _arm(workload, RunSpec(warmup=50.0, measure=250.0, seed=0,
                               faults=inert)),
        pairs=PAIRS)
    assert len({divergence for _, divergence in off + on}) == 1, \
        "the inert fault plan changed the cooperative result"
    print(f"\ninert plan / fault-free: median ratio {ratio:.3f} over "
          f"{len(off)} pairs (limit {MACHINERY_OVERHEAD_LIMIT})")
    assert ratio <= MACHINERY_OVERHEAD_LIMIT, (
        f"inert-plan run {ratio:.2f}x the fault-free wall "
        f"(limit {MACHINERY_OVERHEAD_LIMIT}x) -- the delivery guard is "
        f"leaking into the hot path")
