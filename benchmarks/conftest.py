"""Shared benchmark plumbing.

Every benchmark reproduces one evaluation artifact of the paper (see
DESIGN.md Sec 3).  Experiment bodies are long-running simulations, so each
is executed exactly once via ``benchmark.pedantic(rounds=1)``; the metric
of interest is the experiment's printed *output*, the wall-clock time is
incidental.

Scaled-down grids: the paper's largest configurations (m = 1000 sources,
n = 100 objects each, 5000 s measurements) are CPU-days in pure Python.
Benches run shape-preserving reductions; the experiment runners accept the
full paper parameters for anyone with more patience.
"""

from __future__ import annotations


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
