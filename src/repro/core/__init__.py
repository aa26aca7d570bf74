"""Core best-effort synchronization library (the paper's contribution).

Divergence metrics (Sec 3.1), weight models (Sec 3.2), refresh priority
functions (Secs 3.3-3.4, 4.3, 9), lazy priority tracking (Sec 8) and the
adaptive threshold controller (Sec 5).
"""

from repro.core.divergence import (
    DivergenceMetric,
    Lag,
    Staleness,
    ValueDeviation,
    absolute_difference,
    make_metric,
)
from repro.core.objects import DataObject
from repro.core.priority import (
    AreaPriority,
    DivergenceBoundPriority,
    PoissonLagPriority,
    PoissonStalenessPriority,
    PriorityFunction,
    SimpleDivergencePriority,
    default_priority_for,
    make_priority,
)
from repro.core.threshold import DEFAULT_ALPHA, DEFAULT_OMEGA, ThresholdTable
from repro.core.tracking import PriorityTable
from repro.core.weights import SineWeights, StaticWeights, WeightModel

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_OMEGA",
    "AreaPriority",
    "DataObject",
    "DivergenceBoundPriority",
    "DivergenceMetric",
    "Lag",
    "PoissonLagPriority",
    "PoissonStalenessPriority",
    "PriorityFunction",
    "PriorityTable",
    "SimpleDivergencePriority",
    "SineWeights",
    "Staleness",
    "StaticWeights",
    "ThresholdTable",
    "ValueDeviation",
    "WeightModel",
    "absolute_difference",
    "default_priority_for",
    "make_metric",
    "make_priority",
]
