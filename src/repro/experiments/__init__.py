"""Experiment harness: the scenario matrices, runners and shared plumbing."""

from repro.experiments.matrix import (
    MATRICES,
    Matrix,
    Scenario,
    make_policy,
    run_matrix,
    run_scenario,
)
from repro.experiments.runner import RunSpec, run_policy

__all__ = [
    "MATRICES",
    "Matrix",
    "RunSpec",
    "Scenario",
    "make_policy",
    "run_matrix",
    "run_policy",
    "run_scenario",
]
