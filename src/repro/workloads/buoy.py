"""Synthetic wind-buoy workload (substitute for the PMEL TAO data set).

The paper's Figure 5 uses "a real-world data set gathered from weather buoys
in January 2000 by the Pacific Marine Environmental Laboratory": m = 40
buoys, each reporting a two-component wind vector every 10 minutes, values
"generally in the range of 0-10, with typical values of around 5".

That data set is not redistributable here, so we synthesize a wind field
with the statistical properties the experiment actually exercises:

* temporal autocorrelation: each component follows a discretized
  Ornstein-Uhlenbeck (mean-reverting AR(1)) process, so consecutive
  10-minute readings are strongly correlated -- small deviations most of
  the time, occasional large excursions;
* cross-buoy correlation: a shared slowly-varying *regional forcing*
  component (weather systems span many buoys), so bandwidth demand is
  bursty across the fleet rather than independent per buoy;
* the paper's value range: processes are reflected into [0, 10] with
  long-run mean ~5.

:func:`load_buoy_trace` reads the same CSV schema
(`time,object,value`) produced by :meth:`UpdateTrace.to_csv`, so a real TAO
export converted to that schema is a drop-in replacement.
"""

from __future__ import annotations

import numpy as np

from repro.core.weights import StaticWeights
from repro.workloads.synthetic import Workload
from repro.workloads.trace import UpdateTrace

#: Paper constants for the Figure 5 experiment.
NUM_BUOYS = 40
COMPONENTS_PER_BUOY = 2
SAMPLE_INTERVAL = 600.0  # seconds: measurements every 10 minutes
DAYS = 7
SECONDS_PER_DAY = 86_400.0


def _reflect(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Reflect values into [lo, hi] (preserves continuity of the process)."""
    span = hi - lo
    folded = np.mod(values - lo, 2.0 * span)
    return lo + np.where(folded > span, 2.0 * span - folded, folded)


def generate_buoy_trace(rng: np.random.Generator,
                        num_buoys: int = NUM_BUOYS,
                        components: int = COMPONENTS_PER_BUOY,
                        days: float = DAYS,
                        sample_interval: float = SAMPLE_INTERVAL,
                        mean: float = 5.0,
                        lo: float = 0.0, hi: float = 10.0,
                        reversion: float = 0.05,
                        volatility: float = 0.6,
                        regional_reversion: float = 0.01,
                        regional_volatility: float = 0.25
                        ) -> UpdateTrace:
    """Synthesize the wind-vector measurement trace.

    Per 10-minute epoch ``k``, component ``c`` of buoy ``b`` follows::

        x[k+1] = x[k] + reversion * (mean + r_c[k] - x[k]) + volatility * N(0,1)

    where ``r_c`` is the shared regional forcing (its own OU process around
    zero).  Every epoch, *every* component reports a new measurement, i.e.
    every object updates -- matching real buoys, which transmit on a fixed
    cadence whether or not the wind changed much.
    """
    num_objects = num_buoys * components
    epochs = int(round(days * SECONDS_PER_DAY / sample_interval))
    if epochs <= 0:
        raise ValueError(f"horizon too short: {days} days")

    regional = np.zeros(components)
    values = rng.uniform(mean - 1.0, mean + 1.0, size=num_objects)
    initial_values = values.copy()

    times = np.empty(epochs * num_objects)
    indices = np.empty(epochs * num_objects, dtype=np.int64)
    samples = np.empty(epochs * num_objects)
    object_ids = np.arange(num_objects, dtype=np.int64)
    component_of = object_ids % components

    write = 0
    for k in range(epochs):
        t = (k + 1) * sample_interval
        regional += (-regional_reversion * regional
                     + regional_volatility * rng.standard_normal(components))
        target = mean + regional[component_of]
        values = (values + reversion * (target - values)
                  + volatility * rng.standard_normal(num_objects))
        values = _reflect(values, lo, hi)
        times[write:write + num_objects] = t
        indices[write:write + num_objects] = object_ids
        samples[write:write + num_objects] = values
        write += num_objects

    return UpdateTrace(num_objects=num_objects, times=times,
                       object_indices=indices, values=samples,
                       initial_values=initial_values)


def buoy_workload(rng: np.random.Generator,
                  num_buoys: int = NUM_BUOYS,
                  components: int = COMPONENTS_PER_BUOY,
                  days: float = DAYS,
                  sample_interval: float = SAMPLE_INTERVAL) -> Workload:
    """The Figure 5 workload: equal weights, one source per buoy.

    The nominal "rate" of every object is one update per sample interval
    (used only by rate-aware priority functions; Figure 5 uses the value
    deviation metric with the general area priority, which ignores rates).
    """
    trace = generate_buoy_trace(rng, num_buoys=num_buoys,
                                components=components, days=days,
                                sample_interval=sample_interval)
    num_objects = num_buoys * components
    return Workload(num_sources=num_buoys, objects_per_source=components,
                    rates=np.full(num_objects, 1.0 / sample_interval),
                    trace=trace,
                    weights=StaticWeights.uniform(num_objects),
                    horizon=days * SECONDS_PER_DAY)


def load_buoy_trace(path: str) -> UpdateTrace:
    """Load a measurement trace from CSV (drop-in for real TAO exports)."""
    return UpdateTrace.from_csv(path)


def recorded_buoy_workload(path: str, rng: np.random.Generator | None = None
                           ) -> Workload:
    """The Figure 5 workload on a recorded trace (``rng`` is unused):
    one source per buoy of ``COMPONENTS_PER_BUOY`` components."""
    trace = load_buoy_trace(path)
    num_objects = trace.num_objects
    return Workload(num_sources=num_objects // COMPONENTS_PER_BUOY,
                    objects_per_source=COMPONENTS_PER_BUOY,
                    rates=np.full(num_objects, 1.0 / SAMPLE_INTERVAL),
                    trace=trace, weights=StaticWeights.uniform(num_objects),
                    horizon=trace.horizon)
