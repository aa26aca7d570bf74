"""Experiment harness: the scenario matrices, runners and shared plumbing."""

from repro.experiments.matrix import (
    MATRICES,
    Matrix,
    Scenario,
    make_policy,
    run_matrix,
    run_scenario,
)
from repro.experiments.readmodel import run_policy_with_reads
from repro.experiments.runner import RunSpec, run_policy
from repro.experiments.scale import (
    ScalePoint,
    render_scale,
    run_netcond_scale,
    run_scale,
)

__all__ = [
    "MATRICES",
    "Matrix",
    "RunSpec",
    "Scenario",
    "ScalePoint",
    "make_policy",
    "run_policy_with_reads",
    "run_matrix",
    "render_scale",
    "run_netcond_scale",
    "run_policy",
    "run_scenario",
    "run_scale",
]
