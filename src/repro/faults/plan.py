"""Seeded, declarative fault schedules.

A :class:`FaultPlan` describes *what goes wrong when*, independent of any
policy or topology: loss-probability windows per direction (optionally
restricted to particular caches or sources) and cache crash/restart
events.  The plan is frozen data; the runtime half lives in
:class:`repro.faults.injector.FaultInjector`.

Loss draws must be reproducible against the reference schedule of the
tests (per-tick scan, per-event replay) and across process-parallel
fan-out, so they never touch shared RNG state.  Instead each delivery
attempt draws :func:`hash01` over ``(seed, direction, cache, attempt
counter)`` -- the per-link delivery sequences are themselves pinned
identical across schedules, so the drop pattern is too.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Scenario names understood by :func:`fault_scenario`, in E12 matrix order.
FAULT_SCENARIOS = ("none", "lossy-1", "lossy-10", "crash-restart",
                   "feedback-blackout")

_MASK64 = (1 << 64) - 1
_TWO64 = float(1 << 64)


def _mix(z: int) -> int:
    """One splitmix64 finalization round (pure-int, stable everywhere)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def hash01(seed: int, *keys: int) -> float:
    """A uniform draw in ``[0, 1)`` keyed by integers, not RNG state.

    splitmix64-style mixing over ``seed`` and each key in turn.  The same
    key tuple always yields the same draw, which is exactly the property
    the injector needs: the n-th delivery on a given (direction, cache)
    stream sees the same fate no matter which schedule or process
    produced it.
    """
    z = (seed * 0x9E3779B97F4A7C15) & _MASK64
    for key in keys:
        z = _mix(z ^ ((key * 0x9E3779B97F4A7C15) & _MASK64))
    return _mix(z) / _TWO64


@dataclass(frozen=True)
class LossRule:
    """Drop each matching delivery with ``probability`` in ``[start, end)``.

    ``direction`` is ``"upstream"`` (source -> cache: refreshes, poll
    responses), ``"downstream"`` (cache -> source: feedback, poll
    requests) or ``"both"``.  ``cache_ids`` / ``source_ids`` of ``None``
    match every endpoint.  A feedback blackout is a downstream rule with
    probability 1.
    """

    start: float
    end: float
    probability: float
    direction: str = "both"
    cache_ids: tuple[int, ...] | None = None
    source_ids: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(
                f"loss window must satisfy start < end, "
                f"got [{self.start}, {self.end})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1], "
                f"got {self.probability}")
        if self.direction not in ("upstream", "downstream", "both"):
            raise ValueError(f"unknown direction {self.direction!r}")
        for name in ("cache_ids", "source_ids"):
            ids = getattr(self, name)
            if ids is not None:
                object.__setattr__(self, name,
                                   tuple(int(i) for i in ids))

    def matches(self, now: float, cache_id: int, source_id: int) -> bool:
        """True when this rule applies to a delivery happening ``now``."""
        if not self.start <= now < self.end:
            return False
        if self.cache_ids is not None and cache_id not in self.cache_ids:
            return False
        return self.source_ids is None or source_id in self.source_ids


@dataclass(frozen=True)
class CacheCrash:
    """Cold-restart cache ``cache_id`` at ``time``.

    The crash clears that cache link's in-flight FIFO queue and resets
    the cache node's learned state (store snapshots, feedback threshold
    table); divergence accounting stays exact because the truth-view
    reset goes through the ordinary refresh path at crash time.
    """

    time: float
    cache_id: int = 0

    def __post_init__(self) -> None:
        if not self.time > 0:  # a NaN fails it too
            raise ValueError(f"crash time must be > 0, got {self.time}")
        if self.cache_id < 0:
            raise ValueError(
                f"cache_id must be >= 0, got {self.cache_id}")


@dataclass(frozen=True)
class FaultPlan:
    """A complete seeded fault schedule for one run.

    An empty plan (no rules at all) is by construction indistinguishable
    from running without fault machinery: the simulation context skips
    installing the injector entirely, leaving every delivery path on the
    exact fault-free instruction sequence -- the bitwise pin the E12
    suite asserts.
    """

    seed: int = 0
    loss: tuple[LossRule, ...] = ()
    crashes: tuple[CacheCrash, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "loss", tuple(self.loss))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (self.loss or self.crashes)


def fault_scenario(name: str, warmup: float, measure: float,
                   seed: int = 0) -> FaultPlan:
    """The named E12 scenario sized to one run's timing window.

    * ``none`` -- the empty plan (fault-free control arm).
    * ``lossy-1`` / ``lossy-10`` -- 1% / 10% loss on every delivery in
      both directions for the whole run.
    * ``crash-restart`` -- cache 0 cold-restarts 40% into the measured
      window (its queue, store and threshold table are lost).
    * ``feedback-blackout`` -- every downstream delivery is dropped for
      the middle 40% of the measured window: sources hear no feedback
      (and no poll requests) but upstream refreshes still flow.
    """
    if name == "none":
        return FaultPlan(seed=seed)
    if name == "lossy-1":
        return FaultPlan(seed=seed, loss=(
            LossRule(0.0, warmup + measure, 0.01, "both"),))
    if name == "lossy-10":
        return FaultPlan(seed=seed, loss=(
            LossRule(0.0, warmup + measure, 0.10, "both"),))
    if name == "crash-restart":
        return FaultPlan(seed=seed, crashes=(
            CacheCrash(time=warmup + 0.4 * measure, cache_id=0),))
    if name == "feedback-blackout":
        return FaultPlan(seed=seed, loss=(
            LossRule(warmup + 0.3 * measure, warmup + 0.7 * measure,
                     1.0, "downstream"),))
    raise ValueError(f"unknown fault scenario {name!r}; "
                     f"known: {FAULT_SCENARIOS}")
