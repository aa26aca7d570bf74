"""Gate a candidate revision's ``bench/run.py`` records against the base's.

    python3 benchmarks/perf_gate.py --base B1.json ... --candidate C1.json ...

CI's ``perf-regression`` job times the E9 point (workload
``sparse-star-100k``) on the base and candidate revisions of a change
in pairs of single-repeat ``bench/run.py --out`` calls on one runner,
the revision that goes first alternating between pairs, and hands every
record here, both sides in pair order.  Each side's repeats are pooled
into one record and printed as ``bench/compare.py`` prints two records,
with a verdict per metric.  The gate holds the metrics the job has
always held:

* ``wall_s`` fails when ``worse`` under its bound in BENCHMARK.json, when
  the median over pairs of the candidate/base ratio is above 1.20 (a
  ratio within a pair cancels the drift of a shared host), or when the
  candidate median is above the 60 s budget of m = 10^5;
* ``peak_rss_mb`` fails when ``worse`` (its bound is 10%);
* ``failed_frac`` fails when it grows.

``setup_s``, ``run_s`` and ``updates_per_s`` are printed, not gated: a
set-up of under a second spreads wider than its bound on a shared host.
An ``unresolved`` verdict on a gated metric (a spread wider than its
bound) defers the 1.20 check too: measure more pairs and gate again on
all of them.  Exit status: 0 pass, 1 fail, 2 records not comparable,
3 unresolved.
"""

from __future__ import annotations

import argparse
import copy
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from compare import compare, not_comparable, verdict  # noqa: E402
from run import quartiles  # noqa: E402

WORKLOAD = "sparse-star-100k"
GATED = ("wall_s", "peak_rss_mb")
#: the wall-clock tolerance the E9 gate has used since it was introduced
MAX_WALL_RATIO = 1.20
#: the E9 wall-clock budget at m = 10^5
WALL_BUDGET_S = 60.0
PASS, FAIL, UNRESOLVED = 0, 1, 3


def pool(records: list[dict]) -> dict:
    """One record holding every repeat of ``records``, one machine's."""
    pooled = copy.deepcopy(records[0])
    for name, workload in pooled["workloads"].items():
        parts = [record["workloads"][name] for record in records]
        workload["attempted"] = sum(part["attempted"] for part in parts)
        workload["failed"] = sum(part["failed"] for part in parts)
        workload["failed_frac"] = workload["failed"] / workload["attempted"]
        for metric, row in workload["end_to_end"].items():
            row["values"] = [value for part in parts
                             for value in part["end_to_end"][metric]["values"]]
            row["q1"], row["median"], row["q3"] = quartiles(row["values"])
    return pooled


def gate(bases: list[dict], candidates: list[dict]) -> tuple[list[str], int]:
    """The report lines and the exit status of records taken in pairs."""
    base, candidate = pool(bases), pool(candidates)
    lines, _ = compare(base, candidate)
    old, new = (record["workloads"][WORKLOAD] for record in (base, candidate))
    failures, unresolved = [], []
    for metric in GATED:
        outcome = verdict(old["end_to_end"][metric], new["end_to_end"][metric])
        if outcome == "worse":
            failures.append(f"{metric} worse than its bound")
        elif outcome == "unresolved":
            unresolved.append(metric)
    if new["failed_frac"] > old["failed_frac"]:
        failures.append("failed_frac grew")
    ratio = statistics.median(_wall(c) / _wall(b)
                              for b, c in zip(bases, candidates))
    wall = new["end_to_end"]["wall_s"]["median"]
    lines.append(f"gate: {WORKLOAD} wall_s median "
                 f"{old['end_to_end']['wall_s']['median']:.3f} s -> "
                 f"{wall:.3f} s; median ratio {ratio:.3f} over "
                 f"{len(bases)} pairs")
    if "wall_s" not in unresolved and ratio > MAX_WALL_RATIO:
        failures.append(f"wall_s ratio above {MAX_WALL_RATIO:.2f}")
    if wall > WALL_BUDGET_S:
        failures.append(f"wall_s median above the {WALL_BUDGET_S:.0f} s "
                        f"budget")
    if failures:
        lines.append("FAIL: " + "; ".join(failures))
        return lines, FAIL
    if unresolved:
        lines.append("UNRESOLVED: " + ", ".join(unresolved)
                     + " spread wider than the bound; measure more pairs")
        return lines, UNRESOLVED
    lines.append("ok")
    return lines, PASS


def _wall(record: dict) -> float:
    return record["workloads"][WORKLOAD]["end_to_end"]["wall_s"]["median"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True,
                        help="the base revision's records, in pair order")
    parser.add_argument("--candidate", type=Path, nargs="+", required=True,
                        help="the candidate's records, in the same order")
    args = parser.parse_args(argv)
    if len(args.base) != len(args.candidate):
        parser.error("give one candidate record per base record")
    bases, candidates = ([json.loads(path.read_text()) for path in paths]
                         for paths in (args.base, args.candidate))
    for base, candidate in zip(bases, candidates):
        reason = not_comparable(base, candidate)
        if reason is not None:
            print(f"perf_gate: refusing, {reason}", file=sys.stderr)
            return 2
    lines, status = gate(bases, candidates)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
