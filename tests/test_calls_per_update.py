"""A deterministic guard on the depth of the update-to-refresh path.

Wall-clock gates are noisy, but the number of Python frames a run
enters per trace update is a property of the code alone.  This test
counts them on a fixed small cooperative run with ``sys.setprofile``,
keeping only functions defined in the ``repro`` package and skipping
comprehension frames (Python 3.12 inlines comprehensions, 3.10 and 3.11
do not), so the count is the same on every supported interpreter.

The run -- 4 sources x 25 objects, sine weights, cache 20/s, sources
5/s, 600 s with 100 s warm-up, seed 0 -- makes 33,259 updates and 11,342
refreshes.  It made 39.5 calls per update before the path was folded
(every update drained its source and re-armed it, and every priority and
refresh passed through several forwarding frames) and makes 23.1 now.
"""

import os
import sys

import numpy as np

import repro
from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.runner import RunSpec, make_context
from repro.network.bandwidth import ConstantBandwidth
from repro.policies.cooperative import CooperativePolicy
from repro.workloads.synthetic import uniform_random_walk

#: The folded path's count (23.1) plus 5%.
MAX_CALLS_PER_UPDATE = 24.3

_PACKAGE = os.path.dirname(repro.__file__) + os.sep
_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def count_calls(run) -> int:
    """Python-level calls into the ``repro`` package while ``run()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(_PACKAGE)
                    and code.co_name not in _COMPREHENSIONS):
                calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_calls_per_update_stay_folded():
    workload = uniform_random_walk(
        num_sources=4, objects_per_source=25, horizon=600.0,
        rng=np.random.default_rng(0), fluctuating_weights=True)
    spec = RunSpec(warmup=100.0, measure=500.0)
    ctx = make_context(workload, ValueDeviation(), spec)
    policy = CooperativePolicy(ConstantBandwidth(20.0),
                               [ConstantBandwidth(5.0)] * 4,
                               priority_fn=AreaPriority())
    policy.attach(ctx)
    calls = count_calls(lambda: ctx.run(spec.end_time))
    updates = len(workload.trace)
    assert updates == 33_259
    assert policy.refreshes() == 11_342
    per_update = calls / updates
    assert per_update <= MAX_CALLS_PER_UPDATE, (
        f"{per_update:.1f} Python calls per update (limit "
        f"{MAX_CALLS_PER_UPDATE}): a forwarding layer crept back into "
        f"the update-to-refresh path")
