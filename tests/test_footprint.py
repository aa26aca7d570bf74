"""A cap on what one source costs after set-up.

The threshold protocol keeps all of its state per source (a priority
queue, the threshold ``T_j`` and a paced source link), so the memory of
one source bounds how large ``m`` can get.  These tests build the sparse
workload's per-source state -- one bandwidth profile per source, the
simulation context and ``CooperativePolicy.attach`` -- with the cyclic
collector paused, and cap the GC-tracked objects and the traced bytes
it adds per source, so the footprint cannot creep back.

CPython 3.11 measures 12.0 objects per source on both layouts, and
~1,650 (star) and ~1,750 (sharded-4) bytes per source at this size.
The byte cap leaves headroom for other interpreter versions.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.experiments.runner import RunSpec, make_context
from repro.experiments.scale import sparse_workload
from repro.network.bandwidth import ConstantBandwidth
from repro.network.topology import TopologyConfig
from repro.policies.cooperative import CooperativePolicy
from repro.sim.engine import gc_paused

NUM_SOURCES = 5_000
MAX_OBJECTS_PER_SOURCE = 12
MAX_BYTES_PER_SOURCE = 1_900
#: Objects one run builds whatever m is (simulator, tickers, caches,
#: feedback controllers): ~100-200 on 3.11.
FIXED_OBJECTS = 500
LAYOUTS = {"star": None,
           "sharded4": TopologyConfig(kind="sharded", num_caches=4)}


@pytest.fixture(scope="module")
def workload():
    return sparse_workload(NUM_SOURCES, 600.0, rng=np.random.default_rng(0))


def set_up(workload, topology):
    """Profiles, context and attach for one sparse run, not yet run."""
    profiles = [ConstantBandwidth(1.0) for _ in range(NUM_SOURCES)]
    spec = RunSpec(warmup=100.0, measure=500.0, topology=topology)
    ctx = make_context(workload, ValueDeviation(), spec)
    policy = CooperativePolicy(ConstantBandwidth(8.0), profiles,
                               priority_fn=AreaPriority())
    policy.attach(ctx)
    return ctx, policy


def close(ctx, policy):
    policy.close()
    ctx.close()


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestFootprintPerSource:
    def test_gc_tracked_objects(self, workload, layout):
        with gc_paused():
            before = len(gc.get_objects())
            built = set_up(workload, LAYOUTS[layout])
            added = len(gc.get_objects()) - before
        close(*built)
        cap = MAX_OBJECTS_PER_SOURCE * NUM_SOURCES + FIXED_OBJECTS
        assert added <= cap, \
            f"{added / NUM_SOURCES:.2f} GC-tracked objects per source"

    def test_traced_bytes(self, workload, layout):
        started = not tracemalloc.is_tracing()
        with gc_paused():
            if started:
                tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                built = set_up(workload, LAYOUTS[layout])
                added = tracemalloc.get_traced_memory()[0] - before
            finally:
                if started:
                    tracemalloc.stop()
        close(*built)
        assert added <= MAX_BYTES_PER_SOURCE * NUM_SOURCES, \
            f"{added / NUM_SOURCES:.0f} traced bytes per source"
