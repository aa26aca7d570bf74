"""E11: the trace-bandwidth fast path at m = 10^5.

The m = 10^5 sparse E9 workload runs in repeated pairs
(:func:`conftest.ab_ratio`): constant links, then a 1000-breakpoint
diurnal ``TraceBandwidth`` with the same mean on the cache link and one
*shared* diurnal trace instance across every source link (the trace is
read-only during a run -- its only mutable state is a segment-index
lookup cache -- so sharing keeps the point at one cumulative array
instead of 10^5).  The median trace / constant wall ratio must stay
within ``TRACE_OVERHEAD_LIMIT``: the acceptance number for the
O(log segments) lazy-link fast path, without whose cumulative-array
sync the same run is an order of magnitude slower.  The workload is
generated once, outside every timed span.  The E11 matrix's verdicts
are asserted in ``bench_matrix``.

Timing-ratio asserts are machine-sensitive; CI runs this bench in the
non-failing perf-smoke job.
"""

import time

import numpy as np
from conftest import ab_ratio, run_once

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.runner import RunSpec, run_policy
from repro.experiments.scale import sparse_workload
from repro.network.bandwidth import ConstantBandwidth
from repro.policies.cooperative import CooperativePolicy
from repro.workloads.bandwidth_traces import diurnal_trace

#: Max trace-driven / constant wall-clock ratio at m = 10^5.
TRACE_OVERHEAD_LIMIT = 2.0

#: Wall-clock budget for each m = 10^5 run.
SCALE_BUDGET_SECONDS = 60.0

NUM_SOURCES = 100_000
WARMUP, MEASURE = 100.0, 500.0
BREAKPOINTS = 1000


def _constant_links():
    return (ConstantBandwidth(8.0),
            [ConstantBandwidth(1.0) for _ in range(NUM_SOURCES)])


def _diurnal_links():
    duration = WARMUP + MEASURE
    shared = diurnal_trace(1.0, duration, BREAKPOINTS)
    return (diurnal_trace(8.0, duration, BREAKPOINTS),
            [shared] * NUM_SOURCES)


def _arm(workload, links):
    def run():
        cache_bw, source_bws = links()
        policy = CooperativePolicy(cache_bw, source_bws,
                                   priority_fn=AreaPriority())
        start = time.perf_counter()
        result = run_policy(workload, ValueDeviation(), policy,
                            RunSpec(warmup=WARMUP, measure=MEASURE, seed=0))
        return (time.perf_counter() - start,
                (result.weighted_divergence, result.refreshes,
                 result.feedback_messages))
    return run


def test_netcond_100000_sources_trace_fast_path(benchmark):
    """m = 10^5 trace-driven runs within 2x the constant-bandwidth wall."""
    workload = sparse_workload(NUM_SOURCES, WARMUP + MEASURE,
                               np.random.default_rng(0))
    ratio, steady, trace = run_once(benchmark, ab_ratio,
                                    _arm(workload, _constant_links),
                                    _arm(workload, _diurnal_links))
    for name, runs in (("steady", steady), ("diurnal", trace)):
        walls = [wall for wall, _ in runs]
        print(f"\n{name}: walls {', '.join(f'{w:.2f}' for w in walls)} s")
        results = {result for _, result in runs}
        assert len(results) == 1, f"the {name} runs disagree"
        ((_, refreshes, _),) = results
        assert refreshes > 0
        assert max(walls) <= SCALE_BUDGET_SECONDS, (
            f"m = 10^5 {name} run took {max(walls):.1f}s "
            f"(budget {SCALE_BUDGET_SECONDS}s)")
    print(f"diurnal / steady: median ratio {ratio:.3f} over {len(trace)} "
          f"pairs (limit {TRACE_OVERHEAD_LIMIT})")
    assert ratio <= TRACE_OVERHEAD_LIMIT, (
        f"trace-driven run {ratio:.2f}x the constant wall "
        f"(limit {TRACE_OVERHEAD_LIMIT}x) -- the lazy trace fast path "
        f"is not holding")
