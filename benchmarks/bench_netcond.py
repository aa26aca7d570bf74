"""E11: the trace-bandwidth fast path at m = 10^5.

The m = 10^5 sparse point runs twice -- constant links, then a
1000-breakpoint diurnal ``TraceBandwidth`` on every link -- asserting the
trace run stays within ``TRACE_OVERHEAD_LIMIT`` x the constant wall.
That ratio is the acceptance number for the O(log segments) lazy-link
fast path: without the cumulative-array sync the same run is an order of
magnitude slower.  The E11 matrix's verdicts are asserted in
``bench_matrix``.

The scale test merges its points into ``BENCH_scale.current.json``
(untracked; see ``bench_scale.py``) under a ``netcond`` section, keyed
apart from the E9 points by the ``bandwidth`` field so the perf
regression job tracks steady and trace-driven walls as separate
points.

Timing-ratio asserts are machine-sensitive; CI runs this bench in the
non-failing perf-smoke job.
"""

import json
from dataclasses import asdict

from conftest import run_once

from repro.experiments.scale import run_netcond_scale

#: Max trace-driven / constant wall-clock ratio at m = 10^5.
TRACE_OVERHEAD_LIMIT = 2.0

#: Wall-clock budget for each m = 10^5 run (gen is shared, counted once).
SCALE_BUDGET_SECONDS = 60.0


def _run_scale():
    return run_netcond_scale()


def test_netcond_100000_sources_trace_fast_path(benchmark):
    """m = 10^5 trace-driven run within 2x the constant-bandwidth wall.

    Merges both points into ``BENCH_scale.current.json`` next to the E9
    payload so the perf jobs archive and compare them; the committed
    ``BENCH_scale.json`` snapshot is only ever updated deliberately.
    """
    points = run_once(benchmark, _run_scale)
    by_bandwidth = {p.bandwidth: p for p in points}
    steady = by_bandwidth.pop("steady")
    (trace,) = by_bandwidth.values()

    try:
        with open("BENCH_scale.current.json") as f:
            payload = json.load(f)
    except FileNotFoundError:
        payload = {"experiment": "E9-extreme"}
    payload["netcond"] = {
        "budget_seconds": SCALE_BUDGET_SECONDS,
        "trace_overhead_limit": TRACE_OVERHEAD_LIMIT,
        "trace_overhead": trace.wall_seconds / steady.wall_seconds,
        "points": [asdict(p) for p in points],
    }
    with open("BENCH_scale.current.json", "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")

    for point in points:
        assert point.refreshes > 0
        total = point.gen_seconds + point.wall_seconds
        assert total <= SCALE_BUDGET_SECONDS, (
            f"m = 10^5 {point.bandwidth} run took {total:.1f}s "
            f"(budget {SCALE_BUDGET_SECONDS}s)")
    ratio = trace.wall_seconds / steady.wall_seconds
    assert ratio <= TRACE_OVERHEAD_LIMIT, (
        f"trace-driven run {ratio:.2f}x the constant wall "
        f"(limit {TRACE_OVERHEAD_LIMIT}x) -- the lazy trace fast path "
        f"is not holding")
