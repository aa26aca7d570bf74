"""Measurement: divergence integration, read sampling, result reporting."""

from repro.metrics.accumulators import ReadSampleAccumulator
from repro.metrics.collector import (
    DivergenceCollector,
    ReadCollector,
    ReplicaDivergenceTracker,
)
from repro.metrics.report import (
    RunResult,
    ascii_plot,
    format_series,
    format_table,
)

__all__ = [
    "DivergenceCollector",
    "ReadCollector",
    "ReadSampleAccumulator",
    "ReplicaDivergenceTracker",
    "RunResult",
    "ascii_plot",
    "format_series",
    "format_table",
]
