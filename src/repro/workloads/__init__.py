"""Workload generation: update processes, traces, synthetic & buoy data."""

from repro.workloads.bandwidth_traces import (
    SCENARIOS,
    diurnal_trace,
    heterogeneous_traces,
    random_walk_rates_batch,
    random_walk_trace,
    scenario_profile,
    with_bursts,
    with_outages,
)
from repro.workloads.buoy import (
    buoy_workload,
    generate_buoy_trace,
    load_buoy_trace,
)
from repro.workloads.hotspot import hotspot_shards
from repro.workloads.read_process import (
    ReadReplayer,
    ReadTrace,
    merge_reads_with_updates,
    uniform_reads,
)
from repro.workloads.random_walk import (
    expected_walk_deviation,
    random_walk_values_batch,
)
from repro.workloads.synthetic import (
    Workload,
    skewed_validation,
    uniform_random_walk,
)
from repro.workloads.trace import TraceReplayer, UpdateTrace
from repro.workloads.update_process import (
    bernoulli_tick_times_batch,
    poisson_times_batch,
)

__all__ = [
    "ReadReplayer",
    "ReadTrace",
    "SCENARIOS",
    "TraceReplayer",
    "UpdateTrace",
    "Workload",
    "bernoulli_tick_times_batch",
    "buoy_workload",
    "diurnal_trace",
    "expected_walk_deviation",
    "generate_buoy_trace",
    "heterogeneous_traces",
    "hotspot_shards",
    "load_buoy_trace",
    "merge_reads_with_updates",
    "uniform_reads",
    "poisson_times_batch",
    "random_walk_rates_batch",
    "random_walk_trace",
    "random_walk_values_batch",
    "scenario_profile",
    "skewed_validation",
    "uniform_random_walk",
    "with_bursts",
    "with_outages",
]
