"""Command-line interface for running the paper's experiments.

Usage (installed package)::

    python -m repro e1                    # Sec 4.3 uniform validation
    python -m repro e2                    # Sec 4.3 skewed validation
    python -m repro e3 --alphas 1.1 1.2   # Sec 6.1 parameter study
    python -m repro fig4 --measure 600
    python -m repro fig5 --fluctuating
    python -m repro fig6 --sources 10 --fractions 0.1 0.5 0.9
    python -m repro matrix multicache num-caches=1,2,4 topology=sharded
    python -m repro matrix faults scenarios=lossy-10,crash-restart
    python -m repro matrix multicast replications=1,2,4
    python -m repro matrix readmodel replication=3 read-rate=0.5
    python -m repro quickstart            # the README comparison
    python -m repro profile scale --sources 100000   # cProfile any command

Every subcommand prints the same rows/series the corresponding figure in
the paper plots; ``--output FILE`` additionally archives the text.

``profile`` wraps any other subcommand in cProfile and appends a top-N
cumulative-time report -- the measurement loop behind every hot-path
optimization in this repo (see DESIGN.md Sec 8 for how to read it).
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from typing import Callable, Sequence

from repro.experiments.fig4 import Fig4Config, run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.matrix import MATRICES, run_matrix
from repro.experiments.parallel import ParallelRunner
from repro.experiments.params import best_cell, run_parameter_grid
from repro.experiments.scale import render_scale, run_scale
from repro.experiments.tables import (
    render_fig4,
    render_fig5,
    render_fig6,
    render_parameter_grid,
    render_validation,
)
from repro.experiments.validation import (
    run_skewed_validation,
    run_uniform_validation,
)


def _add_timing(parser: argparse.ArgumentParser, warmup: float,
                measure: float) -> None:
    parser.add_argument("--warmup", type=float, default=warmup,
                        help="warm-up seconds discarded from measurement")
    parser.add_argument("--measure", type=float, default=measure,
                        help="measured window length in seconds")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload random seed")


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep (1 = the "
                             "serial in-process path; results are "
                             "bit-identical at any worker count)")


def _cmd_e1(args: argparse.Namespace) -> str:
    rows = run_uniform_validation(num_objects=args.objects, seed=args.seed,
                                  warmup=args.warmup, measure=args.measure)
    return render_validation(
        rows, "E1 (Sec 4.3, uniform): paper claims < 10% difference")


def _cmd_e2(args: argparse.Namespace) -> str:
    rows = run_skewed_validation(seed=args.seed, warmup=args.warmup,
                                 measure=args.measure)
    return render_validation(
        rows, "E2 (Sec 4.3, skewed): paper claims +64%/+74%/+84%")


def _cmd_e3(args: argparse.Namespace) -> str:
    cells = run_parameter_grid(alphas=tuple(args.alphas),
                               omegas=tuple(args.omegas),
                               num_sources=args.sources,
                               objects_per_source=args.objects,
                               warmup=args.warmup, measure=args.measure,
                               seed=args.seed)
    best = best_cell(cells)
    return (render_parameter_grid(cells)
            + f"\nbest setting: alpha={best.alpha}, omega={best.omega} "
              f"(paper: alpha=1.1, omega=10)")


def _cmd_fig4(args: argparse.Namespace) -> str:
    config = Fig4Config(sources=tuple(args.sources),
                        objects_per_source=tuple(args.objects),
                        cache_bandwidths=tuple(args.cache_bandwidths),
                        warmup=args.warmup, measure=args.measure,
                        seed=args.seed)
    return render_fig4(run_fig4(config, workers=args.workers))


def _cmd_fig5(args: argparse.Namespace) -> str:
    points = run_fig5(bandwidths=tuple(args.bandwidths),
                      fluctuating=args.fluctuating, days=args.days,
                      warmup_days=args.warmup_days, seed=args.seed,
                      trace_csv=args.trace_csv)
    label = "fluctuating" if args.fluctuating else "fixed"
    return render_fig5(points, f"Figure 5 ({label} bandwidth, msgs/min)")


def _cmd_fig6(args: argparse.Namespace) -> str:
    points = run_fig6(num_sources=args.sources,
                      objects_per_source=args.objects,
                      fractions=tuple(args.fractions), seed=args.seed,
                      warmup=args.warmup, measure=args.measure)
    return render_fig6(points, f"Figure 6, m = {args.sources} sources")


def _cmd_matrix(args: argparse.Namespace) -> str:
    matrix = MATRICES[args.name]
    try:
        params = matrix.parse(args.settings)
        # Build every scenario and the pool before the first run, so bad
        # configuration is a usage error, not a traceback mid-sweep.
        matrix.cells(params)
        ParallelRunner(args.workers)
    except ValueError as exc:
        args.error(f"{args.name}: {exc}")
    return matrix.render(params, run_matrix(matrix, params, args.workers))


def _cmd_scale(args: argparse.Namespace) -> str:
    points = run_scale(sources=tuple(args.sources),
                       update_rate=args.update_rate,
                       cache_bandwidth=args.cache_bandwidth,
                       source_bandwidth=args.source_bandwidth,
                       warmup=args.warmup, measure=args.measure,
                       seed=args.seed,
                       workers=args.workers,
                       shard_caches=args.shard_caches)
    return render_scale(
        points, "E9 scale sweep: event-driven simulator on sparse "
                f"updates (lambda = {args.update_rate}/s)")


def _cmd_profile(args: argparse.Namespace) -> str:
    """cProfile another subcommand and append the hot-spot report."""
    import cProfile
    import io
    import pstats

    if not args.target:
        raise SystemExit("profile: expected a subcommand to profile, "
                         "e.g. `repro profile scale --sources 10000`")
    if args.target[0] == "profile":
        raise SystemExit("profile: cannot profile itself")
    inner = build_parser().parse_args(args.target)
    inner_fn: Callable[[argparse.Namespace], str] = inner.fn
    profiler = cProfile.Profile()
    profiler.enable()
    text = inner_fn(inner)
    profiler.disable()
    report = io.StringIO()
    stats = pstats.Stats(profiler, stream=report)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return (f"{text}\n\n--- cProfile: {' '.join(args.target)} "
            f"(top {args.top} by {args.sort}) ---\n"
            f"{report.getvalue().rstrip()}")


def _cmd_quickstart(args: argparse.Namespace) -> str:
    import io
    from contextlib import redirect_stdout

    sys.path.insert(0, "examples")
    buffer = io.StringIO()
    try:
        import quickstart  # noqa: F401  (examples/quickstart.py)
        with redirect_stdout(buffer):
            quickstart.main()
    except ImportError:
        return ("examples/quickstart.py not found; run from the "
                "repository root")
    finally:
        sys.path.pop(0)
    return buffer.getvalue().rstrip()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from Olston & Widom, "
                    "'Best-Effort Cache Synchronization with Source "
                    "Cooperation' (SIGMOD 2002)")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the result text to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("e1", help="Sec 4.3 uniform validation")
    p.add_argument("--objects", type=int, default=100)
    _add_timing(p, warmup=100.0, measure=1000.0)
    p.set_defaults(fn=_cmd_e1)

    p = sub.add_parser("e2", help="Sec 4.3 skewed validation")
    _add_timing(p, warmup=100.0, measure=1000.0)
    p.set_defaults(fn=_cmd_e2)

    p = sub.add_parser("e3", help="Sec 6.1 threshold parameter study")
    p.add_argument("--alphas", type=float, nargs="+",
                   default=[1.05, 1.1, 1.2, 1.5, 2.0])
    p.add_argument("--omegas", type=float, nargs="+",
                   default=[2.0, 5.0, 10.0, 20.0, 100.0])
    p.add_argument("--sources", type=int, default=10)
    p.add_argument("--objects", type=int, default=10)
    _add_timing(p, warmup=100.0, measure=400.0)
    p.set_defaults(fn=_cmd_e3)

    p = sub.add_parser("fig4", help="Figure 4 sweep")
    p.add_argument("--sources", type=int, nargs="+", default=[1, 10, 50])
    p.add_argument("--objects", type=int, nargs="+", default=[1, 10])
    p.add_argument("--cache-bandwidths", type=float, nargs="+",
                   default=[10.0, 40.0, 100.0])
    _add_timing(p, warmup=250.0, measure=600.0)
    _add_workers(p)
    p.set_defaults(fn=_cmd_fig4)

    p = sub.add_parser("fig5", help="Figure 5 buoy experiment")
    p.add_argument("--bandwidths", type=float, nargs="+",
                   default=[1, 2, 5, 10, 20, 40, 80])
    p.add_argument("--fluctuating", action="store_true",
                   help="fluctuate the link with the paper's mB = 0.25")
    p.add_argument("--days", type=float, default=7.0)
    p.add_argument("--warmup-days", type=float, default=1.0)
    p.add_argument("--trace-csv", type=str, default=None,
                   help="real buoy trace in time,object,value CSV form")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_fig5)

    p = sub.add_parser("fig6", help="Figure 6 CGM comparison")
    p.add_argument("--sources", type=int, default=10)
    p.add_argument("--objects", type=int, default=10)
    p.add_argument("--fractions", type=float, nargs="+",
                   default=[0.1, 0.3, 0.5, 0.7, 0.9])
    _add_timing(p, warmup=100.0, measure=500.0)
    p.set_defaults(fn=_cmd_fig6)

    p = sub.add_parser(
        "matrix",
        help="a scenario matrix beyond the paper: netcond (E11), faults "
             "(E12), rebalance (E13), multicast (E14), multicache (E8), "
             "readmodel (E10)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(
            textwrap.fill(line, width=79, subsequent_indent="    ",
                          break_on_hyphens=False)
            for line in ("KEY=default per matrix (VALUE lists are "
                         "comma-separated; an axis key restricts or "
                         "reorders its axis):",
                         *(m.usage() for m in MATRICES.values()))))
    p.add_argument("name", choices=list(MATRICES))
    p.add_argument("settings", nargs="*", metavar="KEY=VALUE[,VALUE...]",
                   help="override a parameter or restrict an axis")
    _add_workers(p)
    p.set_defaults(fn=_cmd_matrix, error=p.error)

    p = sub.add_parser("scale",
                       help="E9 scale sweep: event-driven simulator on "
                            "sparse workloads")
    p.add_argument("--sources", type=int, nargs="+",
                   default=[100, 1000, 10000],
                   help="source counts to sweep (one object per source)")
    p.add_argument("--update-rate", type=float, default=0.002,
                   help="per-object Poisson update rate (<< 1/dt)")
    p.add_argument("--cache-bandwidth", type=float, default=8.0)
    p.add_argument("--source-bandwidth", type=float, default=1.0)
    p.add_argument("--shard-caches", type=int, default=None,
                   help="run each point as a sharded multi-cache "
                        "topology with this many caches, advancing the "
                        "shards in parallel worker processes (tier 2); "
                        "without it --workers parallelizes across sweep "
                        "cells (tier 1)")
    _add_timing(p, warmup=100.0, measure=500.0)
    _add_workers(p)
    p.set_defaults(fn=_cmd_scale)

    p = sub.add_parser("profile",
                       help="run another subcommand under cProfile and "
                            "print the top-N hot spots")
    p.add_argument("--top", type=int, default=25,
                   help="number of rows in the profile report")
    p.add_argument("--sort", choices=["cumulative", "tottime"],
                   default="cumulative",
                   help="profile report sort order")
    p.add_argument("target", nargs=argparse.REMAINDER,
                   help="subcommand (plus its arguments) to profile")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("quickstart", help="the README comparison")
    p.set_defaults(fn=_cmd_quickstart)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fn: Callable[[argparse.Namespace], str] = args.fn
    text = fn(args)
    print(text)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
