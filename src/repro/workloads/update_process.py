"""Update-arrival processes.

Two arrival models appear in the paper's experiments:

* **Poisson processes** with per-object rate ``lambda_i`` (Secs 3.4, 6.2,
  6.3) -- generated here by the standard conditional-uniform construction:
  draw ``K ~ Poisson(lambda * horizon)`` and place ``K`` points uniformly at
  random in ``[0, horizon)``, sorted.
* **Bernoulli-per-second** updates ("each simulated object O_i was updated
  with probability lambda_i each second", Sec 4.3) -- one coin flip per tick,
  updates land exactly on tick boundaries.  ``lambda_i = 1`` degenerates to
  the deterministic "updated consistently every second" objects of the
  skewed validation experiment.

Both samplers draw for *all* objects with O(1) numpy calls and return an
object-major ``(times, owners)`` event stream: events grouped by owning
object, time-sorted within each group.  (The per-object reference loops
they are pinned against live in ``tests/oracles.py``.)
"""

from __future__ import annotations

import numpy as np


def poisson_times_batch(rates: np.ndarray, horizon: float,
                        rng: np.random.Generator
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Event times of one Poisson process per rate, drawn in bulk.

    Returns an *object-major* stream ``(times, owners)``: events are grouped
    by owning object (``owners`` nondecreasing) and time-sorted within each
    group.  Three numpy calls cover every object: a batched count draw
    (``K ~ Poisson(rate * horizon)`` each), one flat uniform draw placing
    the points in ``[0, horizon)``, and a lexsort that simultaneously
    groups and orders.
    """
    rates = np.asarray(rates, dtype=float)
    if (rates < 0).any():
        raise ValueError("rates must be >= 0")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if horizon == 0 or not len(rates):
        return (np.empty(0, dtype=float), np.empty(0, dtype=np.int64))
    counts = rng.poisson(rates * horizon)
    owners = np.repeat(np.arange(len(rates), dtype=np.int64), counts)
    times = rng.uniform(0.0, horizon, size=int(counts.sum()))
    # owners is already grouped; sorting times keyed by owner first orders
    # each object's events chronologically without touching the grouping.
    order = np.lexsort((times, owners))
    return times[order], owners


def bernoulli_tick_times_batch(probs: np.ndarray, horizon: float,
                               rng: np.random.Generator,
                               dt: float = 1.0,
                               max_draws_per_chunk: int = 4_000_000
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Per-tick Bernoulli trials for every object, drawn in bulk.

    Returns the same object-major ``(times, owners)`` stream as
    :func:`poisson_times_batch`: the ticks in ``(0, horizon]`` (multiples
    of ``dt``) at which each object's trial succeeds, so a probability of
    1 updates at every tick.  The full draw matrix would be
    ``len(probs) x ticks`` booleans, so objects are processed in chunks
    capped at ``max_draws_per_chunk`` draws to bound peak memory at
    ``m = 10^5``-scale workloads.
    """
    probs = np.asarray(probs, dtype=float)
    if ((probs < 0) | (probs > 1)).any():
        raise ValueError("probabilities must be in [0, 1]")
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    ticks = int(np.floor(horizon / dt))
    if ticks <= 0 or not len(probs):
        return (np.empty(0, dtype=float), np.empty(0, dtype=np.int64))
    chunk = max(1, max_draws_per_chunk // ticks)
    times_parts: list[np.ndarray] = []
    owner_parts: list[np.ndarray] = []
    for start in range(0, len(probs), chunk):
        block = probs[start:start + chunk]
        hits = rng.random((len(block), ticks)) < block[:, None]
        obj, tick = np.nonzero(hits)  # row-major: object-major, tick-sorted
        owner_parts.append(obj.astype(np.int64) + start)
        times_parts.append((tick + 1.0) * dt)
    return np.concatenate(times_parts), np.concatenate(owner_parts)
