"""E13: the rebalance layer's machinery overhead.

A machinery-overhead pair: one static run with no rebalancer object, one
with the *inert* configuration (``max_moves = 0``), so the peer links,
per-cache window telemetry and the decision ticker all run yet no shard
ever moves.  The results must match bit for bit and the armed wall must
stay within ``MACHINERY_OVERHEAD_LIMIT`` x the bare one, as the median
ratio over repeated pairs (:func:`conftest.ab_ratio`) -- the acceptance
number for keeping the rebalance hooks out of the rebalancer-off hot
path.  The E13 matrix's verdicts are asserted in ``bench_matrix``.

Timing-ratio asserts are machine-sensitive; CI runs this bench in the
non-failing perf-smoke job.
"""

import time

import numpy as np
from conftest import ab_ratio, run_once

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth
from repro.network.topology import TopologyConfig
from repro.policies.cooperative import CooperativePolicy
from repro.rebalance import RebalanceConfig
from repro.workloads.hotspot import moving_hotspot

#: Max armed-but-inert / bare wall-clock ratio.
MACHINERY_OVERHEAD_LIMIT = 1.2

#: A run takes ~0.2 s, so extra pairs are cheap and steady the median.
PAIRS = 11


def _arm(workload, spec, rebalance):
    def run():
        policy = CooperativePolicy(
            ConstantBandwidth(24.0),
            [ConstantBandwidth(4.0) for _ in range(workload.num_sources)],
            priority_fn=AreaPriority(), rebalance=rebalance)
        start = time.perf_counter()
        result = run_policy(workload, ValueDeviation(), policy, spec)
        return time.perf_counter() - start, result.weighted_divergence
    return run


def test_rebalance_machinery_overhead(benchmark):
    """The inert config: bitwise identical, <= 1.2x the bare wall.

    ``max_moves = 0`` is the worst case for machinery-off overhead: the
    full-mesh peer links refill every network tick, every applied
    refresh books window telemetry, and the decision ticker fires every
    window -- yet nothing may move a single float in the result.
    """
    workload = moving_hotspot(16, 8, horizon=300.0,
                              rng=np.random.default_rng(0), num_phases=4,
                              hot_boost=25.0, rate_range=(0.02, 0.12))
    spec = RunSpec(warmup=50.0, measure=250.0, seed=0,
                   topology=TopologyConfig(kind="sharded", num_caches=4))
    inert = RebalanceConfig(interval=10.0, max_moves=0, saturation_queue=2)
    ratio, bare, armed = run_once(benchmark, ab_ratio,
                                  _arm(workload, spec, None),
                                  _arm(workload, spec, inert), pairs=PAIRS)
    assert len({divergence for _, divergence in bare + armed}) == 1, \
        "the inert rebalancer changed the cooperative result"
    print(f"\ninert rebalancer / static: median ratio {ratio:.3f} over "
          f"{len(bare)} pairs (limit {MACHINERY_OVERHEAD_LIMIT})")
    assert ratio <= MACHINERY_OVERHEAD_LIMIT, (
        f"inert-rebalancer run {ratio:.2f}x the bare wall "
        f"(limit {MACHINERY_OVERHEAD_LIMIT}x)")
