"""The six scenario matrices at reduced size, every verdict hard-asserted.

One parametrized bench replaces the per-experiment verdict benches of
E8 and E10-E14.  Each case runs a registered matrix
(:data:`repro.experiments.matrix.MATRICES`) with ``KEY=VALUE`` settings
that shrink it while keeping its verdicts meaningful, prints the table,
and asserts that every verdict applies and holds.  The verdicts are
exactness and ordering claims, not timings, so the asserts are hard on
any machine.

Bandwidth is deliberately scarce in the netcond/faults cases (cache 6.0
for 32 objects): at the defaults a tiny matrix is over-provisioned,
cooperative steady divergence sits at exactly 0.0, and the outage
degradation *ratio* is undefined.

The multicache matrix prints no verdicts; its case asserts the E8 claim
directly (cooperative beats uniform allocation at every cache count).
The machinery-overhead timing benches stay in ``bench_netcond``,
``bench_faults``, ``bench_rebalance`` and ``bench_multicast``.
"""

import pytest
from conftest import run_once

from repro.experiments.matrix import MATRICES, run_matrix

SCARCE = ("sources=8 objects=4 cache-bandwidth=6 source-bandwidth=1.5 "
          "warmup=50 measure=150")

#: case id -> (matrix, settings); the CI matrix-smoke job runs the same
#: settings through ``repro matrix``.
CASES = {
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
}


def _cooperative_beats_uniform(rows):
    for row in rows:
        cooperative = row["cooperative"]["divergence"]
        uniform = row["uniform"]["divergence"]
        assert cooperative < uniform, (
            f"uniform allocation won at {row['num-caches']} caches: "
            f"{cooperative:.4f} vs {uniform:.4f}")


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


#: assertions beyond the printed verdicts
CHECKS = {
    "multicache": _cooperative_beats_uniform,
    "multicache-replicated": _replicated_layout_runs,
    "readmodel": _reads_are_measurement_only,
    "readmodel-single-cache": _reads_are_measurement_only,
}


@pytest.mark.parametrize("case", list(CASES))
def test_matrix_verdicts(benchmark, case):
    name, settings = CASES[case]
    matrix = MATRICES[name]
    params = matrix.parse(settings.split())
    rows = run_once(benchmark, run_matrix, matrix, params)
    print()
    print(matrix.render(params, rows))
    for verdict, ok in matrix.judge(rows):
        # Every printed verdict must read "yes"; only a verdict the
        # matrix omits when inapplicable may be skipped.
        assert ok or (ok is None and matrix.na is None), \
            f"{name}: {verdict.label}: {ok}"
    CHECKS.get(case, lambda rows: None)(rows)
