"""Closed-form analysis: ideal schedules and protocol equilibria."""

from repro.analysis.equilibrium import (
    equilibrium_overhead_fraction,
    refreshes_per_feedback,
    threshold_drift_per_second,
)
from repro.analysis.ideal import (
    IdealSchedule,
    bound_schedule,
    linear_divergence_schedule,
    random_walk_deviation_rates,
    sqrt_divergence_schedule,
)

__all__ = [
    "IdealSchedule",
    "bound_schedule",
    "equilibrium_overhead_fraction",
    "linear_divergence_schedule",
    "random_walk_deviation_rates",
    "refreshes_per_feedback",
    "sqrt_divergence_schedule",
    "threshold_drift_per_second",
]
