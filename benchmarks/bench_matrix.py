"""Every scenario matrix, every verdict hard-asserted.

One parametrized bench replaces the per-experiment verdict benches of
the paper's evaluation (E1-E6, X7), of its Secs 7-10 analyses (X1-X6)
and of E8 and E10-E14.  Each case
runs a registered matrix (:data:`repro.experiments.matrix.MATRICES`)
with ``KEY=VALUE`` settings, prints the table, and asserts that every
verdict it prints reads "yes" (never "n/a").  A verdict may be left out
only by a matrix that omits inapplicable verdicts, and then another case
of the same matrix must print it: ``test_every_verdict_reads_yes`` fails
otherwise, so a settings change that drops a verdict's cells cannot pass
silently.  The verdicts are exactness, ordering and bound claims, not
timings, so the asserts are hard on any machine.

The paper's cases and the X1-X6 analyses run at the sizes of the
benches they replaced, which are the matrices' defaults except E3's
scarcer link (cache 25 msgs/s), the E1 size sweep and Figure 6's reduced
m = 100 panel; the others run at reduced size.

Bandwidth is deliberately scarce in the netcond/faults cases (cache 6.0
for 32 objects): at the defaults a tiny matrix is over-provisioned,
cooperative steady divergence sits at exactly 0.0, and the outage
degradation *ratio* is undefined.

The multicache matrix's verdict is the E8 claim (cooperative beats
uniform allocation at every cache count).  The E9 scale case also
asserts that its m = 10^5 row is the seed-0 pin of ``bench/run.py``'s
``sparse-star-100k`` workload, the same run.
The machinery-overhead timing benches stay in ``bench_netcond``,
``bench_faults``, ``bench_rebalance`` and ``bench_multicast``.
"""

import pytest
from conftest import run_once

from repro.experiments.matrix import MATRICES, run_matrix

SCARCE = ("sources=8 objects=4 cache-bandwidth=6 source-bandwidth=1.5 "
          "warmup=50 measure=150")

#: case id -> (matrix, settings); the CI matrix-smoke job runs most of
#: them through ``repro matrix`` (the paper's and X1-X6 at their
#: defaults, Figure 4 on a smaller grid).
CASES = {
    "e1": ("e1", ""),
    "e1-size-sweep": ("e1", "objects=1,10,100,500 metrics=deviation "
                            "warmup=50 measure=400"),
    "e2": ("e2", ""),
    "e3": ("e3", "cache-bandwidth=25"),
    "fig4": ("fig4", ""),
    "fig5": ("fig5", ""),
    "fig5-fluctuating": ("fig5", "link=fluctuating"),
    "fig6": ("fig6", ""),
    "fig6-m100": ("fig6", "sources=100 fractions=0.1,0.5,0.9"),
    "overhead": ("overhead", ""),
    "psi": ("psi", ""),
    "sampling": ("sampling", ""),
    "bounding": ("bounding", ""),
    "poisson": ("poisson", ""),
    "batching": ("batching", ""),
    "rates": ("rates", ""),
    "netcond": ("netcond", SCARCE),
    "faults": ("faults", SCARCE),
    "rebalance": ("rebalance", "num-caches=1,2,4 warmup=50 measure=200"),
    "multicast": ("multicast", "replications=1,2 sources=8 objects=4 "
                               "cache-bandwidth=8 warmup=40 measure=160"),
    "multicache": ("multicache", "num-caches=1,2,4"),
    "multicache-replicated": ("multicache", "num-caches=4 "
                                            "topology=replicated"),
    "readmodel": ("readmodel", "cache-bandwidths=12,24"),
    "readmodel-single-cache": ("readmodel", "num-caches=1 replication=1 "
                                            "measure=300"),
    "scale": ("scale", "sources=1000,10000,100000"),
}


def _replicated_layout_runs(rows):
    assert all(row["cooperative"]["refreshes"] > 0 for row in rows)


def _reads_are_measurement_only(rows):
    # Within a (bandwidth, replication) group every read policy saw the
    # identical simulation: same copy divergence, same refresh count.
    assert all(row["reads"] > 0 for row in rows)
    groups = {}
    for row in rows:
        groups.setdefault((row["cache-bandwidths"], row["replication"]),
                          set()).add((row["divergence"], row["refreshes"]))
    assert all(len(runs) == 1 for runs in groups.values())


#: (divergence, refreshes, feedback) pinned for sparse-star-100k in
#: bench/suite.py
SPARSE_STAR_100K = (0.48856192209942767, 4792, 8)


def _e9_point_is_the_bench_pin(rows):
    (row,) = [row for row in rows if row["sources"] == 100_000]
    assert (row["divergence"], row["refreshes"],
            row["feedback"]) == SPARSE_STAR_100K


#: assertions beyond the printed verdicts
CHECKS = {
    "multicache-replicated": _replicated_layout_runs,
    "readmodel": _reads_are_measurement_only,
    "readmodel-single-cache": _reads_are_measurement_only,
    "scale": _e9_point_is_the_bench_pin,
}


_runs: dict = {}


def run_case(case, benchmark=None):
    """``(matrix, params, rows)`` of one case, run at most once."""
    if case not in _runs:
        name, settings = CASES[case]
        matrix = MATRICES[name]
        params = matrix.parse(settings.split())
        rows = (run_matrix(matrix, params) if benchmark is None
                else run_once(benchmark, run_matrix, matrix, params))
        _runs[case] = matrix, params, rows
    return _runs[case]


@pytest.mark.parametrize("case", list(CASES))
def test_matrix_verdicts(benchmark, case):
    matrix, params, rows = run_case(case, benchmark)
    print()
    print(matrix.render(params, rows))
    for verdict, ok in matrix.judge(rows):
        # Every printed verdict must read "yes"; only a verdict the
        # matrix omits when inapplicable may be skipped here.
        assert ok or (ok is None and matrix.na is None), \
            f"{matrix.name}: {verdict.label}: {ok}"
    CHECKS.get(case, lambda rows: None)(rows)


@pytest.mark.parametrize("name", list(dict.fromkeys(
    name for name, _ in CASES.values())))
def test_every_verdict_reads_yes(name):
    """Each verdict of each matrix reads "yes" in one of its cases."""
    passed = set()
    for case, (matrix_name, _) in CASES.items():
        if matrix_name == name:
            matrix, _, rows = run_case(case)
            passed |= {v.label for v, ok in matrix.judge(rows) if ok}
    missing = [v.label for v in MATRICES[name].verdicts
               if v.label not in passed]
    assert not missing, f"{name}: no case reads yes for {missing}"
