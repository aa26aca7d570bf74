"""Benchmark runner: time the simulator's workloads, check their outputs.

Every repeat runs in a fresh child process, one at a time, forked from
this one once it has imported the package, so no repeat pays for the
imports or for tearing down its heap, and none inherits another's heap,
garbage or workload memo.  A shard-parallel repeat adds at most
``nproc`` pool workers.  The end-to-end metrics of ``BENCHMARK.json``
come from untraced repeats and are reported as medians with quartiles;
the per-layer metrics come from one separate traced repeat per workload.
Every repeat's outputs are checked: seed 0 against the pins in
``bench/suite.py``, any seed for bitwise agreement between repeats
(traced included) and for invariants.

Usage, from the repository root::

    python bench/run.py                                # 4 workloads x 5 repeats + traces
    python bench/run.py --workload dense-star-2k --seconds 15 --trace 0
    python bench/run.py --seed 7 --out new.json        # a held-out seed
    python bench/compare.py base.json new.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_REPEATS = 5
#: A time-boxed run still takes this many repeats, for a median and
#: quartiles that one slow repeat cannot move.
MIN_REPEATS = 3
REPEAT_TIMEOUT_S = 120


def load_config() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_repeat(workload: str, seed: int, traced: bool) -> dict:
    """One repeat in a forked child; its record, or ``{"error": ...}``."""
    import suite

    # Every child starts from the same collector state, and its passes
    # skip (and so do not copy-on-write) the objects of the imports.
    gc.collect()
    gc.freeze()
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(write_fd, suite.run_repeat, workload, seed, traced)
    os.close(write_fd)
    try:
        data = _read_until(read_fd, time.monotonic() + REPEAT_TIMEOUT_S)
    except TimeoutError as exc:
        _kill_group(pid)
        return {"error": str(exc)}
    except BaseException:  # interrupted or terminated: leave nothing behind
        _kill_group(pid)
        raise
    finally:
        os.close(read_fd)
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not data:
        return {"error": f"repeat exited with {code} and no record"}
    return json.loads(data)


def _child(write_fd: int, run, *args) -> None:
    """The forked side of :func:`run_repeat`; never returns."""
    # Own session, so killing its group also takes down its pool workers.
    os.setsid()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        record = run(*args)
    except BaseException as exc:
        traceback.print_exc()
        record = {"error": f"{type(exc).__name__}: {exc}"}
    try:
        with os.fdopen(write_fd, "w") as pipe:
            pipe.write(json.dumps(record))
        sys.stderr.flush()
    finally:
        # No interpreter teardown: freeing the repeat's heap is not timed
        # and would only stretch the run.
        os._exit(0)


def _read_until(fd: int, deadline: float) -> str:
    chunks = []
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise TimeoutError(f"repeat timed out after {REPEAT_TIMEOUT_S} s")
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks).decode()
        chunks.append(chunk)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # forked, but not yet in its own session
        os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def bench_workload(name: str, seed: int, repeats: int | None,
                   seconds: float | None, traced: bool,
                   config: dict) -> dict:
    """All repeats of one workload, checked and summarised."""
    records = []
    start = time.monotonic()
    trace = None
    if traced:  # first, so that the time box holds it too
        trace = run_repeat(name, seed, traced=True)
        print(f"  {name} traced: {_brief(trace)}", file=sys.stderr)
    while True:
        began = time.monotonic()
        records.append(run_repeat(name, seed, traced=False))
        took = time.monotonic() - began
        print(f"  {name} repeat {len(records)}: {_brief(records[-1])}",
              file=sys.stderr)
        if repeats is not None:
            if len(records) >= repeats:
                break
        elif (len(records) >= MIN_REPEATS
              and time.monotonic() - start + took > seconds):
            break

    good = [r for r in records if "error" not in r]
    reference = good[0]["outputs"] if good else None
    problems = []
    failed = 0
    for index, record in enumerate(records + ([trace] if trace else [])):
        label = "traced" if record is trace else f"repeat {index + 1}"
        failures = _failures(record, reference)
        if failures:
            failed += 1
            problems.extend(f"{label}: {failure}" for failure in failures)
    result = {
        "workers": good[0]["workers"] if good else None,
        "attempted": len(records) + (1 if trace else 0),
        "failed": failed,
        "problems": problems,
        "outputs": reference,
        "end_to_end": {},
        "per_layer": {},
    }
    if not good:
        return result
    for metric in config["end_to_end"]:
        values = [r["metrics"][metric["name"]] for r in good]
        q1, median, q3 = quartiles(values)
        result["end_to_end"][metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "median": median, "q1": q1, "q3": q3,
            "values": values}
    if trace is not None and "error" not in trace:
        layers = dict(trace["layers"])
        layers["trace.overhead"] = (
            trace["metrics"]["wall_s"]
            / result["end_to_end"]["wall_s"]["median"])
        for metric in config["per_layer"]:
            result["per_layer"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "value": layers[metric["name"]]}
    return result


def _brief(record: dict) -> str:
    if "error" in record:
        return f"ERROR {record['error']}"
    metrics = record["metrics"]
    return (f"wall {metrics['wall_s']:.3f} s, setup {metrics['setup_s']:.3f}"
            f" s, divergence {record['outputs']['weighted_divergence']!r}")


def _failures(record: dict, reference: dict | None) -> list[str]:
    if "error" in record:
        return [record["error"]]
    failures = list(record["problems"])
    if record["outputs"] != reference:
        differ = sorted(key for key, value in record["outputs"].items()
                        if reference.get(key) != value)
        failures.append(f"outputs differ from the first successful repeat "
                      f"in {differ}")
    return failures


def _revision() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def render(name: str, result: dict) -> str:
    lines = [f"== {name}  (workers {result['workers']}, "
             f"{result['attempted']} runs, {result['failed']} failed)"]
    for metric, row in result["end_to_end"].items():
        lines.append(
            f"  {metric:<16} {row['median']:>14.6g} {row['unit']:<6}"
            f" [q1 {row['q1']:.6g}, q3 {row['q3']:.6g}]"
            f"  n={len(row['values'])}")
    layers = result["per_layer"]
    if layers:
        busiest = sorted((row["value"], metric.removesuffix(".self_s"))
                         for metric, row in layers.items()
                         if metric.endswith(".self_s"))[::-1][:6]
        lines.append("  busiest layers (traced self time): " + ", ".join(
            f"{span} {value:.3f} s" for value, span in busiest))
        lines.append(
            f"  trace overhead {layers['trace.overhead']['value']:.2f}x, "
            f"unattributed {layers['trace.unattributed_s']['value']:.3f} s")
    lines.extend(f"  FAILED {problem}" for problem in result["problems"])
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    config = load_config()
    workloads = [workload["name"] for workload in config["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 is pinned, others held out")
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--repeats", type=int,
                        help=f"untraced repeats per workload "
                             f"(default {DEFAULT_REPEATS})")
    length.add_argument("--seconds", type=float,
                        help=f"measure each workload this long instead, "
                             f"at least {MIN_REPEATS} repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only; default: both")
    parser.add_argument("--out", type=Path,
                        help="write the full result record here")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "repro").is_dir():
        print(f"bench: no repro package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    repeats = args.repeats
    if repeats is None and args.seconds is None:
        repeats = DEFAULT_REPEATS
    # SIGTERM as an exception, so the running repeat's group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    results = {}
    for name in args.workloads:
        results[name] = bench_workload(name, args.seed, repeats, args.seconds,
                                       args.trace != 0, config)
        print(render(name, results[name]))

    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        rows = {}
        if args.trace != 1:
            rows.update((metric, {"value": row["median"], "unit": row["unit"]})
                        for metric, row in result["end_to_end"].items())
        if args.trace != 0:
            rows.update((metric, {"value": row["value"], "unit": row["unit"]})
                        for metric, row in result["per_layer"].items())
        metrics.update((prefix + metric, row) for metric, row in rows.items())
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    wanted = (len(config["end_to_end"]) * (args.trace != 1)
              + len(config["per_layer"]) * (args.trace != 0))
    if len(metrics) < wanted * len(results):
        print("bench: a workload had no successful repeat to report",
              file=sys.stderr)
        return 1

    if args.out is not None:
        record = {
            "revision": _revision(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "cpu_count": os.cpu_count(),
            "seed": args.seed,
            "repeats": repeats,
            "seconds": args.seconds,
            "workloads": {
                name: dict(result, failed_frac=result["failed"]
                           / result["attempted"])
                for name, result in results.items()},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
