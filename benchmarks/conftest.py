"""Shared benchmark plumbing.

Every benchmark reproduces one evaluation artifact of the paper (see
DESIGN.md Sec 3); the experiments themselves, the Secs 7-10 analyses
included, are scenario matrices run by ``bench_matrix``.  Experiment
bodies are long-running simulations, so each is executed exactly once
via ``benchmark.pedantic(rounds=1)``; the metric of interest is the
experiment's printed *output*, the wall-clock time is incidental.

Scaled-down grids: the paper's largest configurations (m = 1000 sources,
n = 100 objects each, 5000 s measurements) are CPU-days in pure Python.
Benches run shape-preserving reductions; the experiment runners accept the
full paper parameters for anyone with more patience.

The machinery-overhead benches bound a wall-clock *ratio* between two
arms; :func:`ab_ratio` measures it from repeated pairs, since one run of
each arm cannot resolve a 1.1x bound on a shared host.
"""

from __future__ import annotations

import gc
import statistics
from typing import Any, Callable

#: fewest pairs a ratio is taken over: a median of fewer moves with one
#: slow run
MIN_PAIRS = 5


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


Arm = Callable[[], tuple[float, Any]]


def ab_ratio(base: Arm, candidate: Arm, pairs: int = MIN_PAIRS
             ) -> tuple[float, list[tuple[float, Any]],
                        list[tuple[float, Any]]]:
    """The median over ``pairs`` of the per-pair wall ratio candidate/base.

    Each arm times its own work (set-up it does outside the timed span is
    not counted) and returns ``(wall_seconds, result)``.  The two arms run
    back to back in every pair, the first alternating between pairs, so
    host drift and warm-up hit both alike; the garbage of the previous run
    is collected before each arm starts.  Returns the ratio and every
    ``(wall, result)`` of each arm, for the bitwise checks.
    """
    if pairs < MIN_PAIRS:
        raise ValueError(f"pairs must be >= {MIN_PAIRS}, got {pairs}")
    runs: tuple[list, list] = ([], [])
    for i in range(pairs):
        for k in ((0, 1) if i % 2 == 0 else (1, 0)):
            gc.collect()
            runs[k].append((base, candidate)[k]())
    ratio = statistics.median(c[0] / b[0] for b, c in zip(*runs))
    return ratio, runs[0], runs[1]
