"""Network-condition traces: piecewise-constant bandwidth generators.

The paper assumes fixed link capacities; real WAN links see diurnal load
cycles, congestion bursts and outright outages.  This module synthesizes
:class:`~repro.network.bandwidth.TraceBandwidth` profiles for the E11
network-condition experiment: seeded diurnal cycles, bounded random-walk
rates, and burst/outage window injection on top of any base trace.

Random draws are made in one numpy call per trace: ``*_rates_batch``
consumes the generator stream exactly as one draw per breakpoint would
(pinned against that scalar loop in ``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

from repro.network.bandwidth import TraceBandwidth


def diurnal_trace(mean_rate: float, duration: float,
                  num_breakpoints: int = 48, period: float | None = None,
                  amplitude: float = 0.6,
                  rng: np.random.Generator | None = None,
                  jitter: float = 0.0) -> TraceBandwidth:
    """A day/night capacity cycle sampled onto a piecewise-constant trace.

    The rate at breakpoint ``t`` is ``mean_rate * (1 + amplitude *
    sin(2 pi t / period))``, optionally perturbed by multiplicative
    uniform jitter in ``[1 - jitter, 1 + jitter]`` (requires ``rng``).
    ``period`` defaults to one cycle over the whole ``duration``.  The
    trace's horizon is pinned to ``duration`` so ``mean_rate`` averages
    over exactly the cycle, not an arbitrary trailing extension.
    """
    if mean_rate <= 0:
        raise ValueError(f"mean_rate must be > 0, got {mean_rate}")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    if num_breakpoints < 1:
        raise ValueError(
            f"num_breakpoints must be >= 1, got {num_breakpoints}")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"amplitude must be in [0, 1), got {amplitude}")
    if jitter and rng is None:
        raise ValueError("jitter requires an rng")
    period = duration if period is None else period
    times = np.linspace(0.0, duration, num_breakpoints, endpoint=False)
    rates = mean_rate * (1.0 + amplitude * np.sin(2.0 * np.pi * times
                                                  / period))
    if jitter:
        rates = rates * rng.uniform(1.0 - jitter, 1.0 + jitter,
                                    size=num_breakpoints)
    return TraceBandwidth(times, np.maximum(rates, 0.0), horizon=duration)


def random_walk_rates_batch(num_breakpoints: int,
                            rng: np.random.Generator, mean_rate: float,
                            step_frac: float = 0.1, lo_frac: float = 0.25,
                            hi_frac: float = 2.0) -> np.ndarray:
    """Bounded random-walk rates: one bulk draw, python clamp.

    Starts at ``mean_rate``; each step adds uniform noise of magnitude
    ``step_frac * mean_rate`` and clamps into
    ``[lo_frac, hi_frac] * mean_rate``.  All ``num_breakpoints`` steps come
    from a single ``rng.uniform`` call (the generator stream matches
    per-call draws bit for bit); the clamp makes the recurrence
    sequential, so it runs as a python loop over the drawn array.
    """
    _check_walk_args(num_breakpoints, mean_rate, step_frac, lo_frac,
                     hi_frac)
    lo, hi = lo_frac * mean_rate, hi_frac * mean_rate
    step = step_frac * mean_rate
    draws = rng.uniform(-step, step, size=num_breakpoints)
    rates = np.empty(num_breakpoints, dtype=float)
    rate = float(mean_rate)
    for k in range(num_breakpoints):
        rates[k] = rate
        rate = min(max(rate + draws[k], lo), hi)
    return rates


def _check_walk_args(num_breakpoints: int, mean_rate: float,
                     step_frac: float, lo_frac: float,
                     hi_frac: float) -> None:
    if num_breakpoints < 1:
        raise ValueError(
            f"num_breakpoints must be >= 1, got {num_breakpoints}")
    if mean_rate <= 0:
        raise ValueError(f"mean_rate must be > 0, got {mean_rate}")
    if step_frac <= 0:
        raise ValueError(f"step_frac must be > 0, got {step_frac}")
    if not 0.0 <= lo_frac < hi_frac:
        raise ValueError(
            f"need 0 <= lo_frac < hi_frac, got [{lo_frac}, {hi_frac}]")


def random_walk_trace(mean_rate: float, duration: float,
                      num_breakpoints: int, rng: np.random.Generator,
                      step_frac: float = 0.1, lo_frac: float = 0.25,
                      hi_frac: float = 2.0) -> TraceBandwidth:
    """A bounded-random-walk capacity trace over ``[0, duration]``."""
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    rates = random_walk_rates_batch(num_breakpoints, rng, mean_rate,
                                    step_frac, lo_frac, hi_frac)
    times = np.linspace(0.0, duration, num_breakpoints, endpoint=False)
    return TraceBandwidth(times, rates, horizon=duration)


def _with_windows(trace: TraceBandwidth, windows, transform):
    """Rebuild ``trace`` with ``transform(rate)`` applied inside windows.

    Every window edge becomes a breakpoint; rates are resampled from the
    base trace at each merged edge so the base profile's own breakpoints
    inside a window keep their (transformed) structure.  Windows are
    half-open ``[start, end)`` and must lie inside the trace span and not
    overlap.
    """
    windows = sorted((float(s), float(e)) for s, e in windows)
    start_of = trace.times[0]
    end_of = (trace.horizon if trace.horizon is not None
              else float(trace.times[-1]))
    prev_end = start_of
    for s, e in windows:
        if e <= s:
            raise ValueError(f"empty window [{s}, {e})")
        if s < prev_end:
            raise ValueError(f"window [{s}, {e}) overlaps or precedes "
                             f"span start {prev_end}")
        if e > end_of:
            raise ValueError(
                f"window [{s}, {e}) extends past trace end {end_of}")
        prev_end = e
    edges = sorted(set(map(float, trace.times))
                   | {edge for s, e in windows for edge in (s, e)})
    times, rates = [], []
    for t in edges:
        rate = trace.rate(t)
        if any(s <= t < e for s, e in windows):
            rate = transform(rate)
        if rates and rate == rates[-1]:
            continue  # merge equal-rate neighbours
        times.append(t)
        rates.append(rate)
    return TraceBandwidth(np.asarray(times), np.asarray(rates),
                          horizon=trace.horizon)


def with_outages(trace: TraceBandwidth, windows) -> TraceBandwidth:
    """Zero the trace's rate inside each ``(start, end)`` window."""
    return _with_windows(trace, windows, lambda rate: 0.0)


def with_bursts(trace: TraceBandwidth, windows,
                factor: float) -> TraceBandwidth:
    """Scale the trace's rate by ``factor`` inside each window.

    ``factor > 1`` models transient over-provisioning, ``factor < 1`` a
    congestion episode that throttles without fully severing the link.
    """
    if factor < 0:
        raise ValueError(f"factor must be >= 0, got {factor}")
    return _with_windows(trace, windows, lambda rate: rate * factor)


def heterogeneous_traces(num: int, mean_rate: float, duration: float,
                         seed: int, num_breakpoints: int = 32,
                         kind: str = "random-walk") -> list[TraceBandwidth]:
    """``num`` independent per-link traces with a shared aggregate mean.

    Link ``k`` is seeded by ``default_rng([seed, k])``, so adding links
    never reshuffles earlier ones.  ``kind`` picks the generator:
    ``"random-walk"`` (default) or ``"diurnal"`` (jittered, phase-rotated
    by ``k / num`` of a period so the fleet's peaks don't align).
    """
    if num < 1:
        raise ValueError(f"num must be >= 1, got {num}")
    if kind not in ("random-walk", "diurnal"):
        raise ValueError(f"unknown trace kind {kind!r}")
    traces = []
    for k in range(num):
        rng = np.random.default_rng([seed, k])
        if kind == "random-walk":
            traces.append(random_walk_trace(mean_rate, duration,
                                            num_breakpoints, rng))
        else:
            base = diurnal_trace(mean_rate, duration, num_breakpoints,
                                 rng=rng, jitter=0.1)
            shift = int(round(num_breakpoints * k / num))
            traces.append(TraceBandwidth(base.times,
                                         np.roll(base.rates, shift),
                                         horizon=base.horizon))
    return traces


def scenario_profile(kind: str, mean_rate: float, duration: float,
                     seed: int = 0,
                     num_breakpoints: int = 48) -> TraceBandwidth:
    """The E11 scenario menu, one named network condition per kind.

    ``"steady"``: a flat trace at ``mean_rate`` (bitwise-equivalent
    capacity to ``ConstantBandwidth`` -- the experiment's control arm).
    ``"diurnal"``: one smooth day/night cycle over the duration.
    ``"bursty"``: a bounded random walk with two half-rate congestion
    windows.  ``"outage"``: the diurnal cycle severed completely over
    ``[0.55, 0.70] * duration``.
    """
    if kind == "steady":
        return TraceBandwidth([0.0], [mean_rate], horizon=duration)
    if kind == "diurnal":
        return diurnal_trace(mean_rate, duration, num_breakpoints)
    if kind == "bursty":
        rng = np.random.default_rng([seed, 101])
        base = random_walk_trace(mean_rate, duration, num_breakpoints,
                                 rng, step_frac=0.2)
        windows = [(0.30 * duration, 0.38 * duration),
                   (0.62 * duration, 0.70 * duration)]
        return with_bursts(base, windows, 0.5)
    if kind == "outage":
        base = diurnal_trace(mean_rate, duration, num_breakpoints)
        return with_outages(base,
                            [(0.55 * duration, 0.70 * duration)])
    raise ValueError(f"unknown scenario kind {kind!r}")


SCENARIOS = ("steady", "diurnal", "bursty", "outage")
