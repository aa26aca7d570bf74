"""A cap on what one source costs, after set-up and after a short run.

The threshold protocol keeps all of its state per source (a priority
queue, the threshold ``T_j`` and a paced source link), so the memory of
one source bounds how large ``m`` can get.  A source is a row: its
state lives in id-indexed columns of one object per policy, so set-up
builds no object per source beyond the caller's bandwidth profile and
the source's data object, which holds both synchronization views as
flat fields.  These tests build the sparse workload's per-source state
-- one bandwidth profile per source, the simulation context and
``CooperativePolicy.attach`` -- with the cyclic collector paused, take
a census of what it allocates by type, and cap the GC-tracked objects
and the traced bytes it adds per source, so the footprint cannot creep
back.  Some state only grows once a source has seen an update (a
priority queue's first entry), so the same caps are also taken after
the first ``RUN_FOR`` seconds of the run, by which about a third of the
sources have updated.

CPython 3.11 measures 2.0 objects per source on both layouts after
set-up, and ~459 (star) and ~608 (sharded-4, whose four caches each
keep a store and feedback columns sized for every source) bytes per
source at this size; after the short run, ~2.6 objects and ~572 and
~721 bytes.  The caps leave ~8% headroom for other interpreter
versions.
"""

import gc
import tracemalloc
from collections import Counter

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
MAX_OBJECTS_PER_SOURCE = 2.2
MAX_BYTES_PER_SOURCE = {"star": 500, "sharded4": 660}
#: Simulated seconds of the post-run measurement.
RUN_FOR = 300.0
MAX_OBJECTS_PER_SOURCE_AFTER_RUN = 2.85
MAX_BYTES_PER_SOURCE_AFTER_RUN = {"star": 620, "sharded4": 780}
#: The only classes set-up may instantiate per source: the caller's
#: bandwidth profile, and each data object.
PER_SOURCE_CLASSES = {"ConstantBandwidth", "DataObject"}
#: Objects one run builds whatever m is (simulator, tickers, caches,
#: feedback controllers): ~100-200 on 3.11.
FIXED_OBJECTS = 500
LAYOUTS = {"star": None,
           "sharded4": TopologyConfig(kind="sharded", num_caches=4)}


@pytest.fixture(scope="module")
def workload():
    return sparse_workload(NUM_SOURCES, 600.0, rng=np.random.default_rng(0))


def set_up(workload, topology, run_for=0.0):
    """Profiles, context and attach for one sparse run, run ``run_for``
    simulated seconds."""
    profiles = [ConstantBandwidth(1.0) for _ in range(NUM_SOURCES)]
    spec = RunSpec(warmup=100.0, measure=500.0, topology=topology)
    ctx = make_context(workload, ValueDeviation(), spec)
    policy = CooperativePolicy(ConstantBandwidth(8.0), profiles,
                               priority_fn=AreaPriority())
    policy.attach(ctx)
    if run_for:
        ctx.sim.run_until(run_for)
    return ctx, policy


def close(ctx, policy):
    policy.close()
    ctx.close()


def census(workload, layout) -> Counter:
    """GC-tracked objects that set-up leaves alive, by class."""
    with gc_paused():
        before = Counter(type(o) for o in gc.get_objects())
        built = set_up(workload, LAYOUTS[layout])
        added = Counter(type(o) for o in gc.get_objects()) - before
    close(*built)
    return added


def objects_added(workload, layout, run_for=0.0) -> int:
    """GC-tracked objects that set-up (and the run) leave alive."""
    with gc_paused():
        before = len(gc.get_objects())
        built = set_up(workload, LAYOUTS[layout], run_for)
        added = len(gc.get_objects()) - before
    close(*built)
    return added


def bytes_added(workload, layout, run_for=0.0) -> int:
    """Traced bytes that set-up (and the run) leave allocated."""
    started = not tracemalloc.is_tracing()
    with gc_paused():
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            built = set_up(workload, LAYOUTS[layout], run_for)
            added = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
    close(*built)
    return added


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestFootprintPerSource:
    def test_gc_tracked_objects(self, workload, layout):
        added = objects_added(workload, layout)
        cap = MAX_OBJECTS_PER_SOURCE * NUM_SOURCES + FIXED_OBJECTS
        assert added <= cap, \
            f"{added / NUM_SOURCES:.2f} GC-tracked objects per source"

    def test_traced_bytes(self, workload, layout):
        added = bytes_added(workload, layout)
        assert added <= MAX_BYTES_PER_SOURCE[layout] * NUM_SOURCES, \
            f"{added / NUM_SOURCES:.0f} traced bytes per source"

    def test_no_other_class_per_source(self, workload, layout):
        """A source is a row: no class but the profile and the data
        object has as many as one instance per ten sources."""
        added = census(workload, layout)
        per_source = {cls.__name__ for cls, count in added.items()
                      if count >= NUM_SOURCES // 10}
        extra = sorted(per_source - PER_SOURCE_CLASSES)
        assert not extra, f"per-source instances of {extra}"
        assert per_source == PER_SOURCE_CLASSES

    def test_gc_tracked_objects_after_a_run(self, workload, layout):
        added = objects_added(workload, layout, RUN_FOR)
        cap = (MAX_OBJECTS_PER_SOURCE_AFTER_RUN * NUM_SOURCES
               + FIXED_OBJECTS)
        assert added <= cap, \
            f"{added / NUM_SOURCES:.2f} GC-tracked objects per source"

    def test_traced_bytes_after_a_run(self, workload, layout):
        added = bytes_added(workload, layout, RUN_FOR)
        assert added <= (MAX_BYTES_PER_SOURCE_AFTER_RUN[layout]
                         * NUM_SOURCES), \
            f"{added / NUM_SOURCES:.0f} traced bytes per source"
