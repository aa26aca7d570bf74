"""Compare two result records written by ``bench/run.py --out``.

    python bench/compare.py BASE.json NEW.json

For every workload and end-to-end metric it prints both medians with
their quartiles and a verdict: ``worse`` or ``better`` when the medians
differ by more than the metric's bound, ``unchanged`` otherwise, and
``unresolved`` when either side's interquartile range, as a share of its
median, exceeds the bound -- unless every new repeat beats every base
repeat.  ``failed_frac`` has an absolute bound of zero.  Below each
workload the per-layer self-time deltas are listed largest first, so a
slowdown names its layer.

Records from machines with a different ``cpu_count``, or with a
different worker count for any workload, are refused.  Exit status: 0,
1 when any verdict is ``worse``, 2 when the records are not comparable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

LAYER_ROWS = 8


def verdict(row_base: dict, row_new: dict) -> str:
    bound = row_base["bound"]
    lower_is_better = row_base["better"] == "lower"
    change = (row_new["median"] - row_base["median"]) / row_base["median"]
    worse = change if lower_is_better else -change
    spread = max((row["q3"] - row["q1"]) / row["median"]
                 for row in (row_base, row_new))
    if spread > bound:
        if lower_is_better:
            clear_win = max(row_new["values"]) < min(row_base["values"])
        else:
            clear_win = min(row_new["values"]) > max(row_base["values"])
        return "better" if clear_win else "unresolved"
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "unchanged"


def not_comparable(base: dict, new: dict) -> str | None:
    if base["cpu_count"] != new["cpu_count"]:
        return (f"cpu_count differs: {base['cpu_count']} vs "
                f"{new['cpu_count']}")
    for name in base["workloads"].keys() & new["workloads"].keys():
        workers = (base["workloads"][name]["workers"],
                   new["workloads"][name]["workers"])
        if workers[0] != workers[1]:
            return f"{name} ran on {workers[0]} vs {workers[1]} workers"
    return None


def compare(base: dict, new: dict) -> tuple[list[str], bool]:
    """The report lines, and whether any metric got worse."""
    lines = [f"base {base.get('revision')}  seed {base['seed']}  vs  "
             f"new {new.get('revision')}  seed {new['seed']}  "
             f"(cpu_count {base['cpu_count']})"]
    any_worse = False
    for name, wl_base in base["workloads"].items():
        wl_new = new["workloads"].get(name)
        if wl_new is None:
            lines.append(f"== {name}: missing from the new record")
            continue
        lines.append(f"== {name}  (workers {wl_base['workers']})")
        for metric, row_base in wl_base["end_to_end"].items():
            row_new = wl_new["end_to_end"][metric]
            outcome = verdict(row_base, row_new)
            any_worse |= outcome == "worse"
            lines.append(
                f"  {metric:<14} {_cell(row_base)}  ->  {_cell(row_new)}"
                f"  {row_new['median'] / row_base['median']:6.3f}x"
                f"  bound {row_base['bound']:.0%}  {outcome}")
        failed = (wl_base["failed_frac"], wl_new["failed_frac"])
        outcome = "worse" if failed[1] > failed[0] else (
            "better" if failed[1] < failed[0] else "unchanged")
        any_worse |= outcome == "worse"
        lines.append(f"  {'failed_frac':<14} {failed[0]:.3f} -> "
                     f"{failed[1]:.3f}  bound 0  {outcome}")
        deltas = sorted(
            ((wl_new["per_layer"][metric]["value"] - row["value"], metric)
             for metric, row in wl_base["per_layer"].items()
             if metric.endswith(".self_s")
             and metric in wl_new["per_layer"]),
            key=lambda item: -abs(item[0]))
        for delta, metric in deltas[:LAYER_ROWS]:
            lines.append(f"    {metric.removesuffix('.self_s'):<32} "
                         f"self {delta:+.3f} s")
    return lines, any_worse


def _cell(row: dict) -> str:
    return (f"{row['median']:>11.5g} [{row['q1']:.5g}, {row['q3']:.5g}] "
            f"{row['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    reason = not_comparable(base, new)
    if reason is not None:
        print(f"compare: refusing, {reason}", file=sys.stderr)
        return 2
    lines, any_worse = compare(base, new)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
