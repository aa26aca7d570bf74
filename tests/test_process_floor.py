"""What every run's process holds before and beside the simulation.

Every forked bench child and pool worker inherits the package's import
closure, and a run generates its whole trace before the simulation
starts, so on a dense workload the two together set the peak RSS
(DESIGN.md Sec 10).  These tests keep both down: no scipy in the
closure (the CGM allocation solves its root with its own Brent
transcription), trace generation that drops each event-length
intermediate after its last reader, and one shared float for equal
static weights.

CPython 3.11 with NumPy 2 builds the dense-star-2k workload at a traced
peak of ~1.7x the bytes of the arrays it returns (2.7x when each
generator still held its transient copies); the cap leaves headroom for
other NumPy versions.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np

import repro
from repro.core.weights import StaticWeights
from repro.workloads.synthetic import uniform_random_walk

MAX_PEAK_OVER_OUTPUT = 2.3

#: A tiny cooperative run and a tiny CGM run (one allocation solve),
#: then the scipy modules the process has loaded.
RUNS = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["e1", "objects=4", "warmup=5", "measure=10"])
    main(["fig6", "sources=2", "objects=2", "fractions=0.5", "warmup=5",
          "measure=10"])
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_runs_import_no_scipy():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", RUNS], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"


def workload_arrays(workload) -> list[np.ndarray]:
    trace = workload.trace
    return [workload.rates, workload.owner, trace.times,
            trace.object_indices, trace.values, trace.initial_values,
            *(value for value in vars(workload.weights).values()
              if isinstance(value, np.ndarray))]


def test_dense_trace_builds_without_transient_copies():
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        workload = uniform_random_walk(40, 50, 600.0,
                                       np.random.default_rng(0),
                                       fluctuating_weights=True)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    output = sum(array.nbytes for array in workload_arrays(workload))
    assert len(workload.trace) > 500_000
    assert peak <= MAX_PEAK_OVER_OUTPUT * output


def test_uniform_weights_share_one_float():
    weights = StaticWeights.uniform(1_000)
    assert len({id(value) for value in weights._scalars}) == 1
    assert [weights.weight(i, 0.0) for i in (0, 999)] == [1.0, 1.0]
    subset = weights.subset(np.arange(0, 1_000, 7))
    assert len({id(value) for value in subset._scalars}) == 1
