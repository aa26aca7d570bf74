"""Command-line interface for running the paper's experiments.

Usage (installed package)::

    python -m repro e1                    # Sec 4.3 uniform validation
    python -m repro e2                    # Sec 4.3 skewed validation
    python -m repro e3 alphas=1.1,1.2     # Sec 6.1 parameter study
    python -m repro fig4 measure=600 --workers 2
    python -m repro fig5 link=fluctuating
    python -m repro fig6 sources=10 fractions=0.1,0.5,0.9
    python -m repro matrix overhead sources=5,20,80   # X7
    python -m repro matrix psi psis=0,0.5 options=contribution  # X1-X6
    python -m repro matrix multicache num-caches=1,2,4 topology=sharded
    python -m repro matrix faults scenarios=lossy-10,crash-restart
    python -m repro matrix multicast replications=1,2,4
    python -m repro matrix readmodel replication=3 read-rate=0.5
    python -m repro matrix scale sources=1000,10000   # E9
    python -m repro quickstart            # the README comparison
    python -m repro profile matrix scale sources=100000   # cProfile any command

Every experiment is a scenario matrix (``repro matrix NAME``); the paper's
``e1`` ... ``fig6`` are also subcommands of their own.  Both take
``KEY=VALUE[,VALUE...]`` settings and ``--workers``, and print a table
or figure series followed by one verdict line per checked claim;
``--output FILE`` additionally archives the text.  A bad key or value is
a one-line usage error (exit 2) before anything runs.

``profile`` wraps any other subcommand in cProfile and appends a top-N
cumulative-time report -- the measurement loop behind every hot-path
optimization in this repo (see DESIGN.md Sec 8 for how to read it).
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from typing import Callable, Sequence

from repro.experiments.matrix import MATRICES, run_matrix

#: the paper's experiments that are subcommands of their own, with help
PAPER = {"e1": "Sec 4.3 uniform validation",
         "e2": "Sec 4.3 skewed validation",
         "e3": "Sec 6.1 threshold parameter study",
         "fig4": "Figure 4 sweep",
         "fig5": "Figure 5 buoy experiment",
         "fig6": "Figure 6 CGM comparison"}


def _bounded(name: str, kind: type, low: float) -> Callable[[str], float]:
    """An argparse ``type``: ``kind`` values ``>= low``, so a bad value is
    a usage error before any run."""
    def parse(text: str) -> float:
        value = kind(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"{name} must be >= {low}, got {text}")
        return value
    parse.__name__ = kind.__name__  # "invalid int value: 'x'"
    return parse


def _add_settings(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("settings", nargs="*",
                        metavar="KEY=VALUE[,VALUE...]",
                        help="override a parameter or restrict an axis")
    parser.add_argument("--workers", type=_bounded("workers", int, 1),
                        default=1,
                        help="worker processes for the sweep (1 = the "
                             "serial in-process path; results are "
                             "bit-identical at any worker count)")


def _keys_help(matrices) -> str:
    """The epilog listing every key of ``matrices`` with its default."""
    return "\n".join(
        textwrap.fill(line, width=79, subsequent_indent="    ",
                      break_on_hyphens=False)
        for line in ("KEY=default per matrix (VALUE lists are "
                     "comma-separated; an axis key restricts or "
                     "reorders its axis):",
                     *(m.usage() for m in matrices)))


def _cmd_matrix(args: argparse.Namespace) -> str:
    matrix = MATRICES[args.name]
    try:
        params = matrix.parse(args.settings)
        # Build every scenario before the first run, so bad configuration
        # is a usage error, not a traceback mid-sweep.
        matrix.cells(params)
    except ValueError as exc:
        args.error(f"{args.name}: {exc}")
    return matrix.render(params, run_matrix(matrix, params, args.workers))


def _cmd_profile(args: argparse.Namespace) -> str:
    """cProfile another subcommand and append the hot-spot report."""
    import cProfile
    import io
    import pstats

    if not args.target:
        args.error("expected a subcommand to profile, e.g. "
                   "`repro profile matrix scale sources=10000`")
    if args.target[0] == "profile":
        args.error("cannot profile itself")
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

    for name, help_text in PAPER.items():
        p = sub.add_parser(
            name, help=help_text,
            formatter_class=argparse.RawDescriptionHelpFormatter,
            description=f"{help_text}; the same as `repro matrix {name}`.",
            epilog=_keys_help([MATRICES[name]]))
        _add_settings(p)
        p.set_defaults(fn=_cmd_matrix, name=name, error=p.error)

    p = sub.add_parser(
        "matrix",
        help="a scenario matrix: the paper's e1, e2, e3, fig4, fig5, "
             "fig6 and overhead (X7), or beyond it netcond (E11), faults "
             "(E12), rebalance (E13), multicast (E14), multicache (E8), "
             "readmodel (E10) and scale (E9)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_keys_help(MATRICES.values()))
    p.add_argument("name", choices=list(MATRICES))
    _add_settings(p)
    p.set_defaults(fn=_cmd_matrix, error=p.error)

    p = sub.add_parser("profile",
                       help="run another subcommand under cProfile and "
                            "print the top-N hot spots")
    p.add_argument("--top", type=_bounded("top", int, 1), default=25,
                   help="number of rows in the profile report")
    p.add_argument("--sort", choices=["cumulative", "tottime"],
                   default="cumulative",
                   help="profile report sort order")
    p.add_argument("target", nargs=argparse.REMAINDER,
                   help="subcommand (plus its arguments) to profile")
    p.set_defaults(fn=_cmd_profile, error=p.error)

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
