"""Experiment harness: per-figure runners and shared configuration."""

from repro.experiments.fig4 import Fig4Config, Fig4Point, run_fig4, series_by_metric
from repro.experiments.fig5 import Fig5Point, run_fig5
from repro.experiments.fig6 import (
    Fig6Point,
    run_fig6,
    series_by_policy,
)
from repro.experiments.matrix import (
    MATRICES,
    Matrix,
    Scenario,
    make_policy,
    run_matrix,
    run_scenario,
)
from repro.experiments.overhead import (
    OverheadPoint,
    predicted_overhead_fraction,
    run_overhead_scaling,
)
from repro.experiments.params import (
    ParameterCell,
    best_cell,
    run_parameter_grid,
)
from repro.experiments.readmodel import run_policy_with_reads
from repro.experiments.runner import RunSpec, run_policy
from repro.experiments.scale import (
    ScalePoint,
    render_scale,
    run_netcond_scale,
    run_scale,
)
from repro.experiments.validation import (
    ValidationRow,
    run_size_sweep,
    run_skewed_validation,
    run_uniform_validation,
)

__all__ = [
    "Fig4Config",
    "Fig4Point",
    "Fig5Point",
    "Fig6Point",
    "MATRICES",
    "Matrix",
    "OverheadPoint",
    "ParameterCell",
    "RunSpec",
    "Scenario",
    "ScalePoint",
    "ValidationRow",
    "best_cell",
    "make_policy",
    "run_policy_with_reads",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_matrix",
    "predicted_overhead_fraction",
    "render_scale",
    "run_netcond_scale",
    "run_overhead_scaling",
    "run_parameter_grid",
    "run_policy",
    "run_scenario",
    "run_scale",
    "run_size_sweep",
    "run_skewed_validation",
    "run_uniform_validation",
    "series_by_metric",
    "series_by_policy",
]
