"""Refresh priority functions (paper Secs 3.3, 3.4, 4.3 and 9).

The central result of the paper: objects should *not* simply be refreshed in
order of current weighted divergence.  The right priority is the area above
the divergence curve since the last refresh,

    P(O, t) = [ (t - t_last) * D(O, t) - integral_{t_last}^{t} D(O, u) du ] * W(O, t)

which rewards objects that diverged *recently* (cheap to keep synchronized)
over objects that diverged immediately after their last refresh (likely to
re-diverge at once, wasting the refresh).

Implemented priority functions:

* :class:`AreaPriority` -- the general formula above, exact for any metric.
* :class:`PoissonStalenessPriority` -- special case ``D_s / lambda * W``
  (Sec 3.4) for Poisson updates under the staleness metric.
* :class:`PoissonLagPriority` -- special case
  ``D_l (D_l + 1) / (2 lambda) * W`` for Poisson updates under lag.
* :class:`SimpleDivergencePriority` -- the strawman ``D * W`` the paper
  empirically dismantles in Sec 4.3.
* :class:`DivergenceBoundPriority` -- ``R (t - t_last)^2 / 2 * W`` for
  minimizing guaranteed divergence *bounds* (Sec 9).

All functions return weighted priorities; the threshold-setting algorithm
compares them directly against the local refresh threshold.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.objects import DataObject

_INF = float("inf")


class PriorityFunction(ABC):
    """Strategy interface mapping an object's divergence history to a
    weighted refresh priority.

    :meth:`priority` takes its operands explicitly, so one evaluation
    serves both monitors: a trigger monitor passes the exact belief view
    (divergence, integral since the last refresh, elapsed time), a
    sampling monitor passes its estimates of the same quantities.
    """

    #: short machine-readable name used in configs and reports
    name: str = "abstract"

    #: True when the priority can change between updates (e.g. the
    #: divergence-bound priority grows continuously with time); such
    #: functions need periodic re-evaluation rather than lazy heaps alone.
    time_varying: bool = False

    @abstractmethod
    def priority(self, obj: DataObject, divergence: float, integral: float,
                 elapsed: float, weight: float) -> float:
        """Weighted refresh priority ``P(O, now)``.

        ``divergence`` is ``D(O, now)``, ``integral`` the integral of
        ``D`` since the last refresh, ``elapsed`` the time since the last
        refresh and ``weight`` is ``W(O, now)``; ``obj`` supplies the
        rates the special-case formulas need.  Each function evaluates in
        this one frame.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class AreaPriority(PriorityFunction):
    """The paper's general priority: area above the divergence curve.

    Constant between updates (Sec 8.2: priority only changes when an update
    changes the divergence), which makes lazy priority queues exact.
    """

    name = "area"

    def priority(self, obj: DataObject, divergence: float, integral: float,
                 elapsed: float, weight: float) -> float:
        return (elapsed * divergence - integral) * weight


class PoissonStalenessPriority(PriorityFunction):
    """``P_s = D_s / lambda * W`` (Sec 3.4).

    Stale objects with low update rates are refreshed first: they are the
    most likely to stay fresh afterwards.  Fresh objects get priority 0.
    """

    name = "poisson-staleness"

    def priority(self, obj: DataObject, divergence: float, integral: float,
                 elapsed: float, weight: float) -> float:
        if divergence == 0.0:
            return 0.0
        rate = obj.rate
        if rate <= 0.0:
            # An object that "never" updates yet is stale diverged through
            # some exceptional path; treat its expected freshness horizon as
            # unbounded, i.e. maximal priority.
            return _INF * weight
        return 1.0 / rate * weight


class PoissonLagPriority(PriorityFunction):
    """``P_l = D_l (D_l + 1) / (2 lambda) * W`` (Sec 3.4).

    Quadratic in the number of unpropagated updates, inversely proportional
    to the update rate.
    """

    name = "poisson-lag"

    def priority(self, obj: DataObject, divergence: float, integral: float,
                 elapsed: float, weight: float) -> float:
        if divergence == 0.0:
            return 0.0
        rate = obj.rate
        if rate <= 0.0:
            return _INF * weight
        return divergence * (divergence + 1.0) / (2.0 * rate) * weight


class SimpleDivergencePriority(PriorityFunction):
    """The intuitive-but-suboptimal strawman ``P = D * W`` (Sec 4.3)."""

    name = "simple"

    def priority(self, obj: DataObject, divergence: float, integral: float,
                 elapsed: float, weight: float) -> float:
        return divergence * weight


class DivergenceBoundPriority(PriorityFunction):
    """Bound-minimizing priority ``P = R (t - t_last)^2 / 2 * W`` (Sec 9).

    Uses the object's known maximum divergence rate ``R_i`` rather than the
    actual divergence; grows continuously with time, so schedulers must
    re-evaluate it periodically (``time_varying`` is True).
    """

    name = "bound"
    time_varying = True

    def priority(self, obj: DataObject, divergence: float, integral: float,
                 elapsed: float, weight: float) -> float:
        return obj.max_rate * elapsed * elapsed / 2.0 * weight


_PRIORITIES = {
    cls.name: cls
    for cls in (AreaPriority, PoissonStalenessPriority, PoissonLagPriority,
                SimpleDivergencePriority, DivergenceBoundPriority)
}


def make_priority(name: str) -> PriorityFunction:
    """Instantiate a priority function by name."""
    try:
        return _PRIORITIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown priority function {name!r}; "
            f"expected one of {sorted(_PRIORITIES)}") from None


def default_priority_for(metric_name: str,
                         rates_known: bool = True) -> PriorityFunction:
    """The priority function the paper uses for a given divergence metric.

    For Poisson workloads with known (or estimated) rates the special-case
    formulas apply to staleness and lag; value deviation always uses the
    general area formula.
    """
    if rates_known and metric_name == "staleness":
        return PoissonStalenessPriority()
    if rates_known and metric_name == "lag":
        return PoissonLagPriority()
    return AreaPriority()
