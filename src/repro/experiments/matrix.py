"""One scenario matrix for every experiment: the paper's and beyond.

The paper's evaluation (E1-E6, X7) compares the threshold protocol with
the ideal scheduler, a strawman priority or the CGM pollers; its Secs
7-10 analyses (X1-X6) compare one mechanism's settings the same way;
each beyond-the-paper experiment (E8-E14) asks the same question once
more under one more setting: a bandwidth condition, a fault plan, a
moving hotspot, a delivery plane, a cache layout, a client read stream
or a large count of sparse sources.  So one declarative harness runs
them all:

* a :class:`Scenario` is one simulation run as picklable data: a
  :class:`~repro.experiments.parallel.WorkloadSpec`, a policy name plus
  constructor kwargs (``alpha``, ``feedback_ttl``, ``rebalance``, ...),
  the divergence metric and priority, and the run settings -- links,
  tick and timing, layout and delivery plane, bandwidth condition, fault
  plan, retry policy, an optional client read stream, and for X6 and X3
  the horizon of measured rates and the latency of a metered bound;
* a :class:`Matrix` declares settable parameters with defaults, the axes
  whose product forms the table rows, the arms run once per row, an
  include filter for dependent cells, the table columns, extra lines and
  verdict predicates.

:func:`run_scenario` runs one scenario and returns one flat record;
:func:`run_matrix` fans a matrix's scenarios over a
:class:`~repro.experiments.parallel.ParallelRunner` (bit-identical at any
worker count) and folds the records into rows; :meth:`Matrix.render`
prints the table and its verdicts.  :data:`MATRICES` registers twenty
matrices behind ``repro matrix NAME [KEY=VALUE[,VALUE...] ...]``:

==========  ===========================================================
e1          Sec 4.3 uniform validation: paper vs D*W priority x metric
e2          Sec 4.3 skewed validation: paper vs D*W priority x metric
e3          Sec 6.1 threshold study: alpha x omega
fig4        Figure 4: ours vs ideal over a configuration grid
fig5        Figure 5: ours vs ideal on wind buoys x link bandwidth
fig6        Figure 6: ideal, ours and the CGM pollers x bandwidth
overhead    X7: feedback share of cache traffic x source count
psi         X1 Sec 7: split option x Psi, cache and source objectives
sampling    X2 Sec 8.2.1: trigger vs (predictive) sampling x interval
bounding    X3 Sec 9: bound vs area priority, and the analytic optimum
poisson     X4 Sec 3.4: special-case vs general priority x metric x seed
batching    X5 Sec 10.1: bandwidth regime x batch size
rates       X6 Sec 8.1: oracle rates vs EWMA estimates x horizon
netcond     E11: five policies x bandwidth condition x layout
faults      E12: five policies x fault plan x layout, plus the
            empty-plan, reliable-delivery and feedback-TTL arms
rebalance   E13: static/inert/adaptive/distributed x cache count under
            a moving hotspot
multicast   E14: five policies x delivery plane x replication
multicache  E8: cooperative vs uniform x cache count on hot shards
readmodel   E10: read policy x replication x cache bandwidth
scale       E9: cooperative on sparse sources x source count, with
            the refreshes sent, delivered and still queued
==========  ===========================================================

A row is a dict holding the resolved parameters and the row's axis
values; each arm's record sits under ``row[arm]``, and a matrix without
arms merges its single record into the row.  Verdict predicates read
rows, so they can be checked on hand-built rows as well as on runs.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Sequence

import numpy as np

from repro.analysis.equilibrium import equilibrium_overhead_fraction
from repro.analysis.ideal import bound_schedule
from repro.cache.readmodel import parse_read_policy
from repro.core.divergence import make_metric
from repro.core.priority import (
    AreaPriority,
    default_priority_for,
    make_priority,
)
from repro.core.weights import StaticWeights
from repro.experiments.parallel import (
    ParallelRunner,
    WorkloadSpec,
    build_workload,
    run_cooperative_sharded,
)
from repro.experiments.runner import RunSpec, run_policy
from repro.experiments.scale import sparse_workload
from repro.faults.plan import FAULT_SCENARIOS, FaultPlan, fault_scenario
from repro.faults.retry import RetryPolicy
from repro.metrics.report import (
    RunResult,
    ascii_plot,
    format_series,
    format_table,
)
from repro.network.bandwidth import make_bandwidth
from repro.network.topology import DELIVERY_MODES, TopologyConfig
from repro.policies.cache_driven import CGMPollingPolicy, IdealCacheBasedPolicy
from repro.policies.competitive import CompetitivePolicy
from repro.policies.cooperative import CooperativePolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.policies.uniform import UniformAllocationPolicy
from repro.rebalance import RebalanceConfig
from repro.sim.random import RngRegistry
from repro.source.rates import EstimatedRatePriority, OnlineRateEstimator
from repro.workloads.bandwidth_traces import SCENARIOS, scenario_profile
from repro.workloads.buoy import (
    SECONDS_PER_DAY,
    buoy_workload,
    recorded_buoy_workload,
)
from repro.workloads.hotspot import (
    check_hotspot,
    hotspot_shards,
    moving_hotspot,
)
from repro.workloads.synthetic import (
    Workload,
    skewed_validation,
    uniform_random_walk,
)

POLICIES = ("cooperative", "uniform", "competitive", "cgm", "ideal")


def make_policy(name: str, cache_bw, source_bws, num_objects: int,
                priority=None, **kwargs):
    """One compared policy on fresh bandwidth profiles.

    ``name`` is one of :data:`POLICIES` or a Figure 6 curve (``cgm1``,
    ``ideal-cache-based``).  ``priority`` is the refresh priority of the
    priority-driven policies (default: the area priority); ``source_bws``
    of None leaves the ideal scheduler without a source limit.
    ``kwargs`` reach the policy constructor (e.g. the cooperative
    policy's ``alpha``, ``feedback_ttl``, ``rebalance`` or batching
    knobs, the competitive policy's ``psi``, ``option`` or
    ``source_weights``, which default to uniform weights).
    """
    if priority is None:
        priority = AreaPriority()
    if name == "cooperative":
        return CooperativePolicy(cache_bw, source_bws, priority_fn=priority,
                                 **kwargs)
    if name == "uniform":
        return UniformAllocationPolicy(cache_bw, source_bws, **kwargs)
    if name == "competitive":
        kwargs.setdefault("source_weights",
                          StaticWeights.uniform(num_objects))
        return CompetitivePolicy(cache_bw, source_bws, priority_fn=priority,
                                 **kwargs)
    if name in ("cgm", "cgm1"):  # "cgm" is the CGM2 variant
        variant = "cgm1" if name == "cgm1" else "cgm2"
        return CGMPollingPolicy(cache_bw, variant=variant, **kwargs)
    if name == "ideal":
        return IdealCooperativePolicy(cache_bw, priority,
                                      source_bandwidths=source_bws,
                                      **kwargs)
    if name == "ideal-cache-based":
        return IdealCacheBasedPolicy(cache_bw.mean_rate, **kwargs)
    raise ValueError(f"unknown policy {name!r}")


@dataclass(frozen=True)
class Scenario:
    """One simulation run as picklable data.

    Construction builds the run's :class:`RunSpec`, priority and rate
    estimator and checks the bound latency, so a bad timing window,
    priority name or horizon fails while a matrix is declared, not in
    the middle of it.
    """

    workload: WorkloadSpec
    policy: str  #: a :func:`make_policy` name
    cache_bandwidth: float  #: aggregate cache-side msgs/s
    #: per-source msgs/s (None: the ideal scheduler without a source limit)
    source_bandwidth: float | None
    warmup: float
    measure: float
    seed: int = 0
    metric: str = "deviation"  #: staleness, lag or deviation
    #: "paper" (default_priority_for(metric)), or a
    #: :func:`~repro.core.priority.make_priority` name: "area" (the general
    #: formula, default_priority_for(metric, rates_known=False)), "simple"
    #: (the D*W strawman), "bound" (Sec 9), "poisson-staleness", ...
    priority: str = "paper"
    change_rate: float = 0.0  #: the paper's mB on every "constant" link
    dt: float = 1.0  #: tick length
    resample_interval: float | None = None  #: collector re-break period
    #: policy constructor kwargs, e.g. ``feedback_ttl`` or ``rebalance``
    policy_kwargs: tuple[tuple[str, Any], ...] = ()
    #: ``"constant"`` links (the paper's (B, mB) form), or an E11
    #: condition of :func:`~repro.workloads.bandwidth_traces.scenario_profile`
    bandwidth: str = "constant"
    topology: TopologyConfig | None = None  #: layout + plane (None = star)
    faults: FaultPlan | None = None
    retry: RetryPolicy | None = None
    read_policy: str | None = None  #: client read stream (None = no reads)
    read_rate: float = 0.0  #: client reads/second per object
    #: EWMA horizon of the online rate estimates the priority reads
    #: instead of the workload's rates (Sec 8.1; None: the true rates)
    rate_horizon: float | None = None
    #: refresh latency of the metered Sec 9 divergence bound (None: no
    #: meter; the ideal scheduler only)
    bound_latency: float | None = None

    def __post_init__(self) -> None:
        self.spec()
        self.priority_fn(self.rates())
        if self.bound_latency is None:
            return
        if self.policy != "ideal":
            raise ValueError(f"the bound meter needs the ideal scheduler, "
                             f"got policy {self.policy!r}")
        if not self.bound_latency >= 0:
            raise ValueError(f"bound_latency must be >= 0, "
                             f"got {self.bound_latency}")

    def spec(self) -> RunSpec:
        return RunSpec(warmup=self.warmup, measure=self.measure, dt=self.dt,
                       seed=self.seed,
                       resample_interval=self.resample_interval,
                       topology=self.topology, faults=self.faults,
                       retry=self.retry)

    def rates(self) -> OnlineRateEstimator | None:
        """A fresh estimator of the update rates (None: the true ones)."""
        return (None if self.rate_horizon is None
                else OnlineRateEstimator(horizon=self.rate_horizon))

    def priority_fn(self, rates: OnlineRateEstimator | None = None):
        """The refresh priority the policy ranks objects by, reading
        ``rates``' estimates when given."""
        priority = (default_priority_for(self.metric)
                    if self.priority == "paper"
                    else make_priority(self.priority))
        return (priority if rates is None
                else EstimatedRatePriority(priority, rates))

    def profiles(self, num_sources: int):
        """Fresh cache and per-source profiles (links consume them).

        Constant links are the paper's sine waves of peak relative change
        rate mB, one phase per source (plain constants at mB = 0).  A
        trace condition shapes the cache link and, seeded per source,
        every source link, so bursty runs get heterogeneous per-source
        congestion walks.
        """
        if self.bandwidth == "constant":
            return (make_bandwidth(self.cache_bandwidth, self.change_rate),
                    None if self.source_bandwidth is None else
                    [make_bandwidth(self.source_bandwidth, self.change_rate,
                                    phase=float(j))
                     for j in range(num_sources)])
        duration = self.warmup + self.measure
        return (scenario_profile(self.bandwidth, self.cache_bandwidth,
                                 duration, seed=self.seed),
                [scenario_profile(self.bandwidth, self.source_bandwidth,
                                  duration, seed=self.seed + 1 + j)
                 for j in range(num_sources)])


def run_scenario(scenario: Scenario) -> dict:
    """Run one scenario and return its flat record of measurements.

    The workload is regenerated from its spec (memoized per process) and
    the read stream from the seed, never pickled, so a record is
    bit-identical in any process.
    """
    workload = build_workload(scenario.workload)
    cache_bw, source_bws = scenario.profiles(workload.num_sources)
    rates = scenario.rates()
    policy = make_policy(scenario.policy, cache_bw, source_bws,
                         workload.num_objects,
                         priority=scenario.priority_fn(rates),
                         **dict(scenario.policy_kwargs))
    reads = None
    if scenario.read_policy is not None:
        reads = workload.read_stream(
            RngRegistry(scenario.seed).stream("read-workload"),
            read_rate=scenario.read_rate)
    return _measurements(run_policy(
        workload, make_metric(scenario.metric), policy, scenario.spec(),
        reads=reads, read_policy=scenario.read_policy or "any",
        rates=rates, bound_latency=scenario.bound_latency))


def _measurements(result: RunResult) -> dict:
    """The record of one run: a projection of its result, plus the read
    columns when a read stream ran."""
    record: dict = {}
    if result.reads is not None:
        record = {
            "reads": result.reads.count,
            "read_divergence": result.reads.divergence,
            "stale_fraction": result.reads.stale_fraction,
            "replica_divergence": result.reads.replica_divergence,
            "matches_direct": result.reads.matches_direct,
        }
    record.update(
        divergence=result.weighted_divergence,
        unweighted=result.unweighted_divergence,
        num_objects=result.num_objects,
        refreshes=result.refreshes,
        messages=result.messages_total,
        feedback=result.feedback_messages,
        overhead=result.overhead_fraction,
        # cache-side bandwidth units: a multicast sibling copy is one
        # more message but zero more units (the E14 denominator)
        units=result.units,
        dropped=result.dropped,
        retransmitted=result.retransmitted,
        duplicates=result.duplicates,
        migrations=result.migrations,
        queue_peak=result.queued_peak,
        sent=result.refreshes_sent,
        queued=result.queued,
        samples=result.samples,
        own_refreshes=result.own_refreshes,
        source_divergence=result.source_divergence,
        bound=result.mean_bound,
    )
    return record


def shard_parallel(scenario: Scenario) -> bool:
    """Whether tier 2 can run ``scenario``: a cooperative run on several
    sharded caches that never interact -- no faults, retries,
    rebalancing, client reads or rate estimates."""
    topology = scenario.topology
    return (scenario.policy == "cooperative" and topology is not None
            and topology.kind == "sharded" and topology.num_caches > 1
            and (scenario.faults is None or scenario.faults.is_empty())
            and scenario.retry is None and scenario.read_policy is None
            and scenario.rate_horizon is None
            and dict(scenario.policy_kwargs).get("rebalance") is None)


def run_scenario_sharded(scenario: Scenario, workers: int) -> dict:
    """:func:`run_scenario`'s record of a :func:`shard_parallel` scenario,
    its shards run on ``workers`` processes by
    :func:`~repro.experiments.parallel.run_cooperative_sharded`.

    Bit-identical to :func:`run_scenario` (pinned in
    ``tests/test_scale.py``).  The workload is built once, in this
    process through the memo of
    :func:`~repro.experiments.parallel.build_workload`, and the shard
    workers, started by fork, inherit it.
    """
    workload = build_workload(scenario.workload)
    cache_bw, source_bws = scenario.profiles(workload.num_sources)
    result = run_cooperative_sharded(
        scenario.workload, make_metric(scenario.metric), scenario.spec(),
        cache_bw, source_bws, priority_fn=scenario.priority_fn(),
        workers=workers, **dict(scenario.policy_kwargs))
    return _measurements(result)


# ----------------------------------------------------------------------
# The declarative types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Param:
    """One settable ``KEY=VALUE[,VALUE...]`` of a matrix."""

    key: str
    default: Any
    kind: type = float  #: element type: int, float or str
    many: bool = False  #: a comma-separated tuple (axes, rate lists)
    choices: tuple = ()  #: allowed elements (empty: any)
    minimum: float | None = None  #: lower bound of every element
    strict: bool = False  #: elements must exceed ``minimum``
    size: int | None = None  #: exact tuple length

    def parse(self, text: str):
        try:
            values = tuple(self.kind(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"{self.key}: expected {self.kind.__name__} "
                             f"values, got {text!r}") from None
        for value in values:
            # "inf" and "nan" parse as floats, and nan fails no bound
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{self.key} must be finite, got {value}")
            if self.choices and value not in self.choices:
                raise ValueError(
                    f"{self.key}: unknown value {value!r}; choose from "
                    f"{','.join(map(str, self.choices))}")
            if self.minimum is not None and (
                    value < self.minimum
                    or self.strict and value == self.minimum):
                raise ValueError(
                    f"{self.key} must be {'>' if self.strict else '>='} "
                    f"{self.minimum}, got {value}")
        if not self.many:
            if len(values) != 1:
                raise ValueError(f"{self.key} takes one value, "
                                 f"got {text!r}")
            return values[0]
        if self.size is not None and len(values) != self.size:
            raise ValueError(f"{self.key} takes {self.size} values, "
                             f"got {text!r}")
        return values

    def __str__(self) -> str:
        if self.default is None:
            return f"{self.key}=-"
        if self.many:
            return f"{self.key}={','.join(map(str, self.default))}"
        return f"{self.key}={self.default}"


@dataclass(frozen=True)
class Verdict:
    """One structural check printed under the table."""

    label: str
    check: Callable[[list[dict]], bool]
    bad: str = "WARNING: violated"  #: printed instead of "yes" on failure
    #: whether the matrix holds the cells the check needs (None: always)
    applies: Callable[[list[dict]], bool] | None = None


@dataclass(frozen=True)
class Matrix:
    """A named experiment: parameters, axes, arms, table and verdicts."""

    name: str
    title: Callable[[dict], str]
    params: tuple[Param, ...]
    axes: tuple[str, ...]  #: row keys, outermost first
    scenario: Callable[[dict], Scenario]  #: cell -> its run
    #: table columns (empty: the title alone, then the extra lines)
    columns: tuple[tuple[str, Callable[[dict], Any]], ...]
    arms: tuple[str, ...] = ()  #: runs per row, as ``cell["arm"]``
    include: Callable[[dict], bool] = lambda cell: True
    #: derive or normalize axis values from the parameters
    resolve: Callable[[dict], dict] = lambda params: params
    #: derive row values from all folded rows (E3: each cell vs the best)
    finish: Callable[[list[dict]], list[dict]] = lambda rows: rows
    extras: Callable[[list[dict]], list[str]] = lambda rows: []
    verdicts: tuple[Verdict, ...] = ()
    #: outcome text of an inapplicable verdict (None: omit its line)
    na: str | None = None

    def parse(self, settings: Sequence[str] = ()) -> dict:
        """The defaults, overridden by ``KEY=VALUE[,VALUE...]`` settings."""
        by_key = {p.key: p for p in self.params}
        params = {p.key: p.default for p in self.params}
        for setting in settings:
            key, sep, text = setting.partition("=")
            if not sep:
                raise ValueError(f"expected KEY=VALUE, got {setting!r}")
            if key not in by_key:
                raise ValueError(f"unknown key {key!r}; {self.name} takes "
                                 f"{', '.join(by_key)}")
            params[key] = by_key[key].parse(text)
        return params

    def cells(self, params: dict) -> list[tuple[dict, str | None,
                                                Scenario]]:
        """Every included ``(row, arm, scenario)``, rows in axis order.

        Building every scenario up front validates the whole matrix
        before anything runs.
        """
        resolved = self.resolve(dict(params))
        cells = []
        for values in itertools.product(*(resolved[a] for a in self.axes)):
            row = {**resolved, **dict(zip(self.axes, values))}
            for arm in self.arms or (None,):
                cell = row if arm is None else {**row, "arm": arm}
                if self.include(cell):
                    cells.append((row, arm, self.scenario(cell)))
        return cells

    def judge(self, rows: list[dict]) -> list[tuple[Verdict, bool | None]]:
        """Each verdict's outcome (None: its cells are not in the rows)."""
        return [(v, None if v.applies is not None and not v.applies(rows)
                 else bool(v.check(rows)))
                for v in self.verdicts]

    def render(self, params: dict, rows: list[dict]) -> str:
        """The rows as a table, then extra lines, then verdict lines."""
        title = self.title(params)
        if self.columns:
            title = format_table([header for header, _ in self.columns],
                                 [[value(row) for _, value in self.columns]
                                  for row in rows], title=title)
        lines = [title, *self.extras(rows)]
        for verdict, ok in self.judge(rows):
            if ok is None and self.na is None:
                continue
            outcome = (self.na if ok is None
                       else "yes" if ok else verdict.bad)
            lines.append(f"{verdict.label}: {outcome}")
        return "\n".join(lines)

    def usage(self) -> str:
        """One help line: the name and every key with its default."""
        return f"{self.name}: {' '.join(map(str, self.params))}"


def run_matrix(matrix: Matrix, params: dict,
               workers: int = 1) -> list[dict]:
    """Run every scenario of ``matrix`` and fold the records into rows.

    ``workers`` > 1 fans the scenarios over a process pool; the rows are
    bit-identical to the serial run, in the same order.  When there are
    more workers than scenarios and each is :func:`shard_parallel`, the
    scenarios run one after another with their shards spread over the
    workers instead (tier 2).
    """
    cells = matrix.cells(params)
    scenarios = [scenario for _, _, scenario in cells]
    if workers > len(scenarios) and all(map(shard_parallel, scenarios)):
        records = [run_scenario_sharded(scenario, workers)
                   for scenario in scenarios]
    else:
        records = ParallelRunner(workers).map(run_scenario, scenarios)
    rows: list[dict] = []
    last = None
    for (row, arm, _), record in zip(cells, records):
        if arm is None:
            rows.append({**row, **record})
            continue
        if row is not last:
            rows.append(dict(row))
            last = row
        rows[-1][arm] = record
    return matrix.finish(rows)


# ----------------------------------------------------------------------
# Shared declarations
# ----------------------------------------------------------------------
def _timing(warmup: float, measure: float,
            seed: int = 0) -> tuple[Param, ...]:
    return (Param("warmup", warmup), Param("measure", measure),
            Param("seed", seed, int, minimum=0))


TIMING = _timing(100.0, 400.0)
#: the two reference layouts of E11/E12 ("sharded-4" = 4 block shards)
LAYOUTS = {"star": None,
           "sharded-4": TopologyConfig(kind="sharded", num_caches=4)}
TOPOLOGIES = tuple(LAYOUTS)


def _size(sources: int, objects: int) -> tuple[Param, Param]:
    return (Param("sources", sources, int, minimum=1),
            Param("objects", objects, int, minimum=1))


def _links(cache: float, source: float) -> tuple[Param, Param]:
    return (Param("cache-bandwidth", cache, minimum=0),
            Param("source-bandwidth", source, minimum=0))


def _workload(builder, cell: dict, **kwargs) -> WorkloadSpec:
    """The cell's seeded workload over its timing window; ``kwargs`` may
    fix the shape of a matrix without ``sources``/``objects`` keys."""
    shape = dict(num_sources=cell.get("sources"),
                 objects_per_source=cell.get("objects"),
                 horizon=cell["warmup"] + cell["measure"])
    return WorkloadSpec.make(builder, cell["seed"], **{**shape, **kwargs})


def _scenario(cell: dict, workload: WorkloadSpec, policy: str,
              **fields) -> Scenario:
    base = dict(cache_bandwidth=cell.get("cache-bandwidth"),
                source_bandwidth=cell.get("source-bandwidth"),
                warmup=cell["warmup"], measure=cell["measure"],
                seed=cell["seed"])
    return Scenario(workload=workload, policy=policy, **{**base, **fields})


def _field(arm: str, field: str) -> Callable[[dict], Any]:
    return lambda row: row[arm][field]


def _column(arm: str) -> tuple[str, Callable[[dict], Any]]:
    """An arm's divergence, headed by the arm's name."""
    return arm, _field(arm, "divergence")


def _pin(record: dict) -> tuple:
    return record["divergence"], record["refreshes"]


def _policies(row: dict) -> list[str]:
    return [name for name in POLICIES if name in row]


def _paired(rows: list[dict], scenarios: tuple[str, ...],
            baseline: str) -> list[tuple[dict, dict]]:
    """``(row, baseline row)`` pairs that share a layout."""
    base = {r["topologies"]: r for r in rows if r["scenarios"] == baseline}
    return [(r, base[r["topologies"]]) for r in rows
            if r["scenarios"] in scenarios and r["topologies"] in base]


def _values(rows: list[dict], key: str) -> set:
    return {r[key] for r in rows}


# ----------------------------------------------------------------------
# The paper's experiments: E1-E3, Figures 4-6 and X7
# ----------------------------------------------------------------------
# Their runs keep the paper harnesses' seeding: the seed key seeds the
# workload only (through each harness's own seed expression) and every
# run itself uses seed 0.
METRICS = ("staleness", "lag", "deviation")
#: the Sec 4.3 validation link: "up to 10 refreshes per second"
VALIDATION_BANDWIDTH = 10.0


def _validation_scenario(cell: dict, workload: WorkloadSpec) -> Scenario:
    # The ideal scheduler on one unlimited source, so the two arms differ
    # only in the priority function.
    return Scenario(workload=workload, policy="ideal",
                    cache_bandwidth=VALIDATION_BANDWIDTH,
                    source_bandwidth=None, warmup=cell["warmup"],
                    measure=cell["measure"], metric=cell["metrics"],
                    priority="paper" if cell["arm"] == "ours" else "simple")


def _e1_scenario(cell: dict) -> Scenario:
    workload = WorkloadSpec.make(
        uniform_random_walk, cell["seed"], num_sources=1,
        objects_per_source=cell["objects"],
        horizon=cell["warmup"] + cell["measure"], arrivals="bernoulli")
    return _validation_scenario(cell, workload)


def _e2_scenario(cell: dict) -> Scenario:
    workload = WorkloadSpec.make(skewed_validation, cell["seed"],
                                 horizon=cell["warmup"] + cell["measure"])
    return _validation_scenario(cell, workload)


def increase_pct(row: dict) -> float:
    """The D*W strawman's divergence over the paper priority's, in %."""
    ours = row["ours"]["divergence"]
    if ours <= 0:
        return 0.0
    return 100.0 * (row["simple"]["divergence"] / ours - 1.0)


def priorities_agree(rows: list[dict]) -> bool:
    """E1: on uniform rates and weights the strawman is within 25% of
    the paper's priority in every row (the paper reports < 10%)."""
    return bool(rows) and all(abs(increase_pct(r)) < 25.0 for r in rows)


def _penalty_exceeds(rows: list[dict], metric: str, bound: float) -> bool:
    found = [increase_pct(r) for r in rows if r["metrics"] == metric]
    return bool(found) and all(increase > bound for increase in found)


def skew_penalizes_lag(rows: list[dict]) -> bool:
    """E2: on the skewed workload the strawman raises lag divergence by
    more than 30% (the paper reports +74%)."""
    return _penalty_exceeds(rows, "lag", 30.0)


def skew_penalizes_deviation(rows: list[dict]) -> bool:
    """E2: ... and value deviation by more than 15% (paper: +84%)."""
    return _penalty_exceeds(rows, "deviation", 15.0)


VALIDATION_COLUMNS = (("metric", itemgetter("metrics")),
                      ("n", _field("ours", "num_objects")),
                      ("our priority", _field("ours", "divergence")),
                      ("simple D*W", _field("simple", "divergence")),
                      ("increase %", increase_pct))

E1 = Matrix(
    name="e1",
    title=lambda p: "E1 (Sec 4.3, uniform): paper claims < 10% difference",
    params=(Param("objects", (100,), int, many=True, minimum=1),
            Param("metrics", METRICS, str, many=True, choices=METRICS),
            *_timing(100.0, 1000.0)),
    axes=("objects", "metrics"),
    arms=("ours", "simple"),
    scenario=_e1_scenario,
    columns=VALIDATION_COLUMNS,
    verdicts=(Verdict("strawman D*W within 25% of the paper's priority in "
                      "every row (paper: < 10%)", priorities_agree),),
)

E2 = Matrix(
    name="e2",
    title=lambda p: "E2 (Sec 4.3, skewed): paper claims +64%/+74%/+84%",
    params=_timing(100.0, 1000.0),
    axes=("metrics",),
    arms=("ours", "simple"),
    resolve=lambda params: {**params, "metrics": METRICS},
    scenario=_e2_scenario,
    columns=VALIDATION_COLUMNS,
    verdicts=(Verdict("strawman D*W raises lag divergence by > 30% "
                      "(paper: +74%)", skew_penalizes_lag),
              Verdict("strawman D*W raises deviation by > 15% "
                      "(paper: +84%)", skew_penalizes_deviation)),
)


#: the Sec 6.1 study's links: per-source msgs/s and their mB
E3_SOURCE_BANDWIDTH = 10.0
E3_CHANGE_RATE = 0.05


def _e3_scenario(cell: dict) -> Scenario:
    workload = _workload(uniform_random_walk, cell,
                         fluctuating_weights=True)
    return Scenario(workload=workload, policy="cooperative",
                    cache_bandwidth=cell["cache-bandwidth"],
                    source_bandwidth=E3_SOURCE_BANDWIDTH,
                    warmup=cell["warmup"], measure=cell["measure"],
                    change_rate=E3_CHANGE_RATE, resample_interval=10.0,
                    policy_kwargs=(("alpha", cell["alphas"]),
                                   ("omega", cell["omegas"])))


def _against_best(rows: list[dict]) -> list[dict]:
    """Each cell's divergence over the grid's best (1 at a zero best)."""
    best = min((r["divergence"] for r in rows), default=0.0)
    for r in rows:
        r["normalized"] = r["divergence"] / best if best > 0 else 1.0
    return rows


def _near_best(rows: list[dict], alpha: float, omega: float,
               factor: float) -> bool:
    cells = [r for r in rows if (r["alphas"], r["omegas"]) == (alpha, omega)]
    return bool(cells) and all(r["normalized"] < factor for r in cells)


def paper_setting_near_best(rows: list[dict]) -> bool:
    """E3: the paper's choice (1.1, 10) is within 1.3x of the best."""
    return _near_best(rows, 1.1, 10.0, 1.3)


def neighbour_setting_near_best(rows: list[dict]) -> bool:
    """E3: the neighbour the paper calls similar, (1.2, 20), is within
    1.5x of the best (low sensitivity)."""
    return _near_best(rows, 1.2, 20.0, 1.5)


def _has_cell(alpha: float, omega: float) -> Callable[[list[dict]], bool]:
    return lambda rows: any((r["alphas"], r["omegas"]) == (alpha, omega)
                            for r in rows)


def _best_setting(rows: list[dict]) -> list[str]:
    best = min(rows, key=itemgetter("divergence"))
    return [f"best setting: alpha={best['alphas']}, omega={best['omegas']} "
            "(paper: alpha=1.1, omega=10)"]


E3 = Matrix(
    name="e3",
    title=lambda p: "Sec 6.1 threshold parameter study",
    params=(Param("alphas", (1.05, 1.1, 1.2, 1.5, 2.0), many=True,
                  minimum=1, strict=True),
            Param("omegas", (2.0, 5.0, 10.0, 20.0, 100.0), many=True,
                  minimum=1, strict=True),
            *_size(10, 10), Param("cache-bandwidth", 30.0, minimum=0),
            *TIMING),
    axes=("alphas", "omegas"),
    scenario=_e3_scenario,
    finish=_against_best,
    columns=(("alpha", itemgetter("alphas")), ("omega", itemgetter("omegas")),
             ("divergence", itemgetter("divergence")),
             ("vs best", lambda r: f"{r['normalized']:.3f}x")),
    extras=_best_setting,
    verdicts=(Verdict("paper setting (1.1, 10) within 1.3x of the best "
                      "cell", paper_setting_near_best,
                      applies=_has_cell(1.1, 10.0)),
              Verdict("neighbour setting (1.2, 20) within 1.5x of the best "
                      "cell", neighbour_setting_near_best,
                      applies=_has_cell(1.2, 20.0))),
    na="n/a (cells not in this matrix)",
)


#: Figure 4 skips grid points above this many objects
FIG4_MAX_OBJECTS = 2000


def _fig4_scenario(cell: dict) -> Scenario:
    m, n = cell["sources"], cell["objects"]
    bs, bc, mb = (cell["source-bandwidths"], cell["cache-bandwidths"],
                  cell["change-rates"])
    workload = WorkloadSpec.make(
        uniform_random_walk, hash((m, n, bs, bc, mb, cell["seed"]))
        & 0x7FFFFFFF, num_sources=m, objects_per_source=n,
        horizon=cell["warmup"] + cell["measure"], fluctuating_weights=True)
    return Scenario(workload=workload,
                    policy="ideal" if cell["arm"] == "ideal"
                    else "cooperative",
                    cache_bandwidth=bc, source_bandwidth=bs,
                    warmup=cell["warmup"], measure=cell["measure"],
                    metric=cell["metrics"], change_rate=mb,
                    resample_interval=10.0)


def ratio_to_ideal(row: dict) -> float:
    """Figure 4's y: ours over the theoretically attainable divergence."""
    ideal, ours = row["ideal"]["divergence"], row["ours"]["divergence"]
    if ideal <= 0:
        return 1.0 if ours <= 0 else float("inf")
    return ours / ideal


def series_by_metric(rows: list[dict]
                     ) -> dict[str, list[tuple[float, float]]]:
    """Per metric, the (ideal divergence, ratio) points in x order."""
    panels: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        panels.setdefault(r["metrics"], []).append(
            (r["ideal"]["divergence"], ratio_to_ideal(r)))
    for series in panels.values():
        series.sort()
    return panels


def tracks_ideal(rows: list[dict]) -> bool:
    """Figure 4: in every panel ours is within 4x of the ideal wherever
    the ideal divergence is above a quarter of the panel's maximum (the
    bandwidth-starved points), and there are such points."""
    panels = series_by_metric(rows)
    for series in panels.values():
        top = max(x for x, _ in series)
        starved = [ratio for x, ratio in series if x > 0.25 * top]
        if not starved or max(starved) >= 4.0:
            return False
    return bool(panels)


FIG4 = Matrix(
    name="fig4",
    title=lambda p: ("Figure 4: ratio of actual to ideal divergence "
                     "(x = theoretically achievable divergence)"),
    params=(Param("sources", (1, 10, 50), int, many=True, minimum=1),
            Param("objects", (1, 10), int, many=True, minimum=1),
            Param("source-bandwidths", (10.0,), many=True, minimum=0),
            Param("cache-bandwidths", (10.0, 40.0, 100.0), many=True,
                  minimum=0),
            Param("change-rates", (0.0, 0.25), many=True, minimum=0),
            Param("metrics", ("deviation", "lag", "staleness"), str,
                  many=True, choices=METRICS),
            *_timing(250.0, 600.0)),
    axes=("sources", "objects", "source-bandwidths", "cache-bandwidths",
          "change-rates", "metrics"),
    arms=("ideal", "ours"),
    include=lambda c: c["sources"] * c["objects"] <= FIG4_MAX_OBJECTS,
    scenario=_fig4_scenario,
    columns=(),
    extras=lambda rows: [
        format_series(f"{metric} metric", [x for x, _ in series],
                      [y for _, y in series], x_label="ideal divergence",
                      y_label="ratio")
        for metric, series in series_by_metric(rows).items()],
    verdicts=(Verdict("ratio < 4 wherever the ideal divergence is above a "
                      "quarter of its panel's maximum", tracks_ideal,
                      applies=bool),),
    na="n/a (cells not in this matrix)",
)


#: Figure 5 ticks once a minute, the paper's bandwidth unit (msgs/min)
FIG5_TICK = 60.0
FIG5_SOURCE_BANDWIDTH = 10.0  #: msgs/min per buoy
#: the fluctuating link's mB, relative to the per-minute unit
FIG5_CHANGE_RATE = 0.25 / 60.0


def _check_fig5(params: dict) -> dict:
    if params["warmup-days"] >= params["days"]:
        raise ValueError(f"warmup-days must be < days, got "
                         f"{params['warmup-days']} >= {params['days']}")
    if params["trace-csv"] is not None and not os.path.isfile(
            params["trace-csv"]):
        raise ValueError(f"trace-csv: no such file {params['trace-csv']!r}")
    return params


def _fig5_scenario(cell: dict) -> Scenario:
    if cell["trace-csv"] is None:
        workload = WorkloadSpec.make(buoy_workload, cell["seed"],
                                     days=cell["days"])
    else:
        workload = WorkloadSpec.make(recorded_buoy_workload, cell["seed"],
                                     path=cell["trace-csv"])
    return Scenario(
        workload=workload,
        policy="ideal" if cell["arm"] == "ideal" else "cooperative",
        cache_bandwidth=cell["bandwidths"] / 60.0,
        source_bandwidth=FIG5_SOURCE_BANDWIDTH / 60.0,
        warmup=cell["warmup-days"] * SECONDS_PER_DAY,
        measure=(cell["days"] - cell["warmup-days"]) * SECONDS_PER_DAY,
        dt=FIG5_TICK,
        change_rate=FIG5_CHANGE_RATE if cell["link"] == "fluctuating"
        else 0.0)


def ideal_falls_with_bandwidth(rows: list[dict]) -> bool:
    """Figure 5: the ideal divergence is non-increasing in bandwidth."""
    ideal = [r["ideal"]["unweighted"]
             for r in sorted(rows, key=itemgetter("bandwidths"))]
    return bool(ideal) and all(a >= b for a, b in zip(ideal, ideal[1:]))


def ours_follows_ideal(rows: list[dict]) -> bool:
    """Figure 5: ours "closely follows" the ideal: within 2x plus 0.15
    at every bandwidth."""
    return bool(rows) and all(
        r["ours"]["unweighted"] <= 2.0 * r["ideal"]["unweighted"] + 0.15
        for r in rows)


FIG5 = Matrix(
    name="fig5",
    title=lambda p: f"Figure 5 ({p['link']} bandwidth, msgs/min)",
    params=(Param("bandwidths", (1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0),
                  many=True, minimum=0),
            Param("link", "fixed", str, choices=("fixed", "fluctuating")),
            Param("days", 7.0, minimum=0, strict=True),
            Param("warmup-days", 1.0, minimum=0),
            Param("trace-csv", None, str), Param("seed", 0, int, minimum=0)),
    axes=("bandwidths",),
    arms=("ideal", "ours"),
    resolve=_check_fig5,
    scenario=_fig5_scenario,
    columns=(("bandwidth (msgs/min)", itemgetter("bandwidths")),
             ("ideal scenario", _field("ideal", "unweighted")),
             ("our algorithm", _field("ours", "unweighted"))),
    extras=lambda rows: [ascii_plot(
        {arm: [(r["bandwidths"], r[arm]["unweighted"]) for r in rows]
         for arm in ("ideal", "ours")},
        x_label="bandwidth", y_label="avg deviation")],
    verdicts=(Verdict("ideal divergence non-increasing in bandwidth",
                      ideal_falls_with_bandwidth),
              Verdict("ours <= 2 x ideal + 0.15 at every bandwidth",
                      ours_follows_ideal)),
)


#: Figure 6's curves -> their make_policy names
FIG6_CURVES = {"ideal-cooperative": "ideal", "our-algorithm": "cooperative",
               "ideal-cache-based": "ideal-cache-based", "cgm1": "cgm1",
               "cgm2": "cgm"}
#: the threshold protocol's sources: "no limitations on source-side
#: bandwidth" in this comparison
UNLIMITED = 1e9


def _fig6_scenario(cell: dict) -> Scenario:
    curve = cell["arm"]
    return Scenario(
        workload=_workload(uniform_random_walk, cell),
        policy=FIG6_CURVES[curve],
        cache_bandwidth=cell["fractions"] * (cell["sources"]
                                             * cell["objects"]),
        source_bandwidth=None if curve == "ideal-cooperative" else UNLIMITED,
        warmup=cell["warmup"], measure=cell["measure"], metric="staleness")


def series_by_curve(rows: list[dict]
                    ) -> dict[str, list[tuple[float, float]]]:
    """Per Figure 6 curve, the (fraction, staleness) points in x order."""
    return {curve: sorted((r["fractions"], r[curve]["unweighted"])
                          for r in rows) for curve in FIG6_CURVES}


def _staleness_order(rows: list[dict], lower: str, upper: str,
                     slack: float | None = None) -> bool:
    """``lower`` below ``upper`` at every fraction (strictly), or within
    ``slack`` x ``upper`` + 0.01."""
    def holds(row: dict) -> bool:
        low, up = row[lower]["unweighted"], row[upper]["unweighted"]
        return low < up if slack is None else low <= slack * up + 0.01
    return bool(rows) and all(holds(r) for r in rows)


def ideal_leads_ours(rows: list[dict]) -> bool:
    """Figure 6: ideal cooperative <= 1.10 x ours + 0.01."""
    return _staleness_order(rows, "ideal-cooperative", "our-algorithm",
                            1.10)


def ours_beats_cgm1(rows: list[dict]) -> bool:
    """Figure 6: source cooperation beats cache-driven CGM1 polling."""
    return _staleness_order(rows, "our-algorithm", "cgm1")


def ideal_cache_beats_cgm1(rows: list[dict]) -> bool:
    """Figure 6: the oracle cache-based schedule beats CGM1."""
    return _staleness_order(rows, "ideal-cache-based", "cgm1")


def cgm1_at_most_cgm2(rows: list[dict]) -> bool:
    """Figure 6: update times (CGM1) help over booleans (CGM2), up to
    1.10 x + 0.01."""
    return _staleness_order(rows, "cgm1", "cgm2", 1.10)


FIG6 = Matrix(
    name="fig6",
    title=lambda p: f"Figure 6, m = {p['sources']} sources",
    params=(*_size(10, 10),
            Param("fractions", (0.1, 0.3, 0.5, 0.7, 0.9), many=True,
                  minimum=0),
            *_timing(100.0, 500.0)),
    axes=("fractions",),
    arms=tuple(FIG6_CURVES),
    scenario=_fig6_scenario,
    columns=(("fraction", itemgetter("fractions")),
             *((curve, _field(curve, "unweighted")) for curve in FIG6_CURVES)),
    extras=lambda rows: [ascii_plot(series_by_curve(rows),
                                    x_label="bandwidth fraction",
                                    y_label="staleness")],
    verdicts=(Verdict("ideal-cooperative <= 1.10 x ours + 0.01 at every "
                      "fraction", ideal_leads_ours),
              Verdict("ours < CGM1 at every fraction", ours_beats_cgm1),
              Verdict("ideal cache-based < CGM1 at every fraction",
                      ideal_cache_beats_cgm1),
              Verdict("CGM1 <= 1.10 x CGM2 + 0.01 at every fraction",
                      cgm1_at_most_cgm2)),
)


#: X7's constant per-source share of the cache link, and each source's
#: own link (msgs/s)
X7_CACHE_SHARE = 1.5
X7_SOURCE_BANDWIDTH = 5.0


def _overhead_scenario(cell: dict) -> Scenario:
    m = cell["sources"]
    workload = WorkloadSpec.make(
        uniform_random_walk, cell["seed"] + m, num_sources=m,
        objects_per_source=cell["objects"],
        horizon=cell["warmup"] + cell["measure"], rate_range=(0.2, 0.8))
    return Scenario(workload=workload, policy="cooperative",
                    cache_bandwidth=X7_CACHE_SHARE * m,
                    source_bandwidth=X7_SOURCE_BANDWIDTH,
                    warmup=cell["warmup"], measure=cell["measure"],
                    metric="staleness")


def overhead_low(rows: list[dict]) -> bool:
    """X7: feedback stays below 12% of cache traffic at every m."""
    return bool(rows) and all(r["overhead"] < 0.12 for r in rows)


def overhead_flat(rows: list[dict]) -> bool:
    """X7: no blow-up in m: the largest share is below 3x the smallest
    (or 3x 0.01, whichever is larger)."""
    shares = [r["overhead"] for r in rows]
    return bool(shares) and max(shares) < 3.0 * max(min(shares), 0.01)


def overhead_near_equilibrium(rows: list[dict]) -> bool:
    """X7: every share within (0.2, 3)x of the analytic equilibrium."""
    predicted = equilibrium_overhead_fraction()
    return bool(rows) and all(0.2 * predicted < r["overhead"]
                              < 3.0 * predicted for r in rows)


OVERHEAD = Matrix(
    name="overhead",
    title=lambda p: ("X7: coordination overhead vs. m (analytic "
                     f"equilibrium ~{equilibrium_overhead_fraction():.3f})"),
    params=(Param("sources", (5, 20, 80), int, many=True, minimum=1),
            Param("objects", 5, int, minimum=1), *_timing(150.0, 450.0)),
    axes=("sources",),
    scenario=_overhead_scenario,
    columns=(("sources", itemgetter("sources")),
             ("overhead fraction", itemgetter("overhead")),
             ("staleness", itemgetter("unweighted")),
             ("feedback", itemgetter("feedback")),
             ("refreshes", itemgetter("refreshes"))),
    verdicts=(Verdict("overhead share < 0.12 at every m", overhead_low),
              Verdict("overhead flat in m (max < 3 x max(min, 0.01))",
                      overhead_flat),
              Verdict("overhead within (0.2, 3)x of the equilibrium "
                      "prediction", overhead_near_equilibrium)),
)


# ----------------------------------------------------------------------
# The Secs 7-10 analyses: X1-X6
# ----------------------------------------------------------------------
# Each runs at the size of the bench it replaced.  Those benches fixed
# their links and workload shapes, so only the arguments of their run
# functions, the timing window and the seed are settable.
#: X1's per-source link (msgs/s)
X1_SOURCE_BANDWIDTH = 5.0
PSI_OPTIONS = ("equal", "proportional", "contribution")


def _halves(n: int, cache_side: bool) -> StaticWeights:
    """X1's disjoint objectives over ``n`` objects: weight 10 on the first
    half for the cache, on the second half for the sources, 1
    elsewhere."""
    values = np.ones(n)
    values[slice(None, n // 2) if cache_side else slice(n // 2, None)] = 10.0
    return StaticWeights(values)


def disjoint_halves(**kwargs) -> Workload:
    """A :func:`uniform_random_walk` whose cache weights favour the first
    half of the objects (X1)."""
    workload = uniform_random_walk(**kwargs)
    workload.weights = _halves(workload.num_objects, cache_side=True)
    return workload


def _check_psis(params: dict) -> dict:
    if not all(psi < 1.0 for psi in params["psis"]):
        raise ValueError(f"psis must be < 1, got {params['psis']}")
    return params


def _psi_scenario(cell: dict) -> Scenario:
    source_weights = _halves(cell["sources"] * cell["objects"],
                             cache_side=False)
    return _scenario(
        cell, _workload(disjoint_halves, cell, rate_range=(0.2, 0.8)),
        "competitive", source_bandwidth=X1_SOURCE_BANDWIDTH,
        policy_kwargs=(("psi", cell["psis"]), ("option", cell["options"]),
                       ("source_weights", source_weights)))


def _by_psi(rows: list[dict], option: str) -> list[dict]:
    return sorted((r for r in rows if r["options"] == option),
                  key=itemgetter("psis"))


def _psi_serves_sources(rows: list[dict], option: str) -> bool:
    ordered = _by_psi(rows, option)
    return len(ordered) >= 2 and (ordered[-1]["source_divergence"]
                                  < ordered[0]["source_divergence"])


def psi_serves_sources(rows: list[dict]) -> bool:
    """X1, equal shares: the largest Psi lowers the sources' objective
    below the smallest Psi's (the former ``bench_competitive`` assert
    ``source_side[-1] < source_side[0]``)."""
    return _psi_serves_sources(rows, "equal")


def own_sends_rise_with_psi(rows: list[dict]) -> bool:
    """X1, equal shares: every Psi step sends strictly more own-priority
    refreshes (a Psi slice is not cut to whole messages per tick)."""
    own = [r["own_refreshes"] for r in _by_psi(rows, "equal")]
    return len(own) >= 2 and all(a < b for a, b in zip(own, own[1:]))


def contribution_piggybacks(rows: list[dict]) -> bool:
    """X1, contribution option: own-priority refreshes are piggybacked at
    every Psi > 0 (the former ``bench_competitive`` assert ``rows[1][3] >
    0``, at Psi 0.5)."""
    earning = [r for r in _by_psi(rows, "contribution") if r["psis"] > 0]
    return bool(earning) and all(r["own_refreshes"] > 0 for r in earning)


def contribution_serves_sources(rows: list[dict]) -> bool:
    """X1, contribution option: the largest Psi lowers the sources'
    objective below the smallest Psi's (the former ``bench_competitive``
    assert ``rows[1][2] < rows[0][2]``)."""
    return _psi_serves_sources(rows, "contribution")


def _has_option(option: str) -> Callable[[list[dict]], bool]:
    return lambda rows: len(_by_psi(rows, option)) >= 2


PSI = Matrix(
    name="psi",
    title=lambda p: ("X1 (Sec 7): the Psi trade-off, cache and sources "
                     "weighing disjoint halves of the objects"),
    params=(Param("psis", (0.0, 0.25, 0.5, 0.75), many=True, minimum=0),
            Param("options", ("equal", "contribution"), str, many=True,
                  choices=PSI_OPTIONS),
            *_size(5, 10), Param("cache-bandwidth", 10.0, minimum=0),
            *TIMING),
    axes=("options", "psis"),
    resolve=_check_psis,
    scenario=_psi_scenario,
    columns=(("option", itemgetter("options")), ("psi", itemgetter("psis")),
             ("cache objective", itemgetter("divergence")),
             ("source objective", itemgetter("source_divergence")),
             ("own refreshes", itemgetter("own_refreshes"))),
    verdicts=(
        Verdict("equal shares: the largest psi serves the sources' "
                "objective", psi_serves_sources,
                applies=_has_option("equal")),
        Verdict("equal shares: own refreshes rise with every psi step",
                own_sends_rise_with_psi, applies=_has_option("equal")),
        Verdict("contribution: own refreshes piggybacked at every psi > 0",
                contribution_piggybacks,
                applies=_has_option("contribution")),
        Verdict("contribution: the largest psi serves the sources' "
                "objective", contribution_serves_sources,
                applies=_has_option("contribution")),
    ),
    na="n/a (option not in this matrix)",
)


#: X2's links (cache, per source; msgs/s) for 4 sources of 10 objects
X2_LINKS = (8.0, 5.0)


def _monitors(params: dict) -> dict:
    # One trigger row, then a plain and a predictive row per interval.
    params["monitor"] = (("trigger", None), *(
        (kind, interval) for interval in params["intervals"]
        for kind in ("sampling", "predictive")))
    return params


def _sampling_scenario(cell: dict) -> Scenario:
    kind, interval = cell["monitor"]
    kwargs = () if kind == "trigger" else (
        ("monitor", "sampling"), ("sampling_interval", interval),
        ("predictive_sampling", kind == "predictive"))
    workload = _workload(uniform_random_walk, cell, num_sources=4,
                         objects_per_source=10, rate_range=(0.1, 0.6))
    return _scenario(cell, workload, "cooperative",
                     cache_bandwidth=X2_LINKS[0],
                     source_bandwidth=X2_LINKS[1], policy_kwargs=kwargs)


def _monitor_label(row: dict) -> str:
    kind, interval = row["monitor"]
    if kind == "trigger":
        return "triggers (exact)"
    return (f"sampling every {interval:g}s"
            + (" + predictive" if kind == "predictive" else ""))


def _sampled(rows: list[dict]) -> list[float]:
    """The plain sampling rows' deviations, densest interval first."""
    return [r["unweighted"] for r in sorted(
        (r for r in rows if r["monitor"][0] == "sampling"),
        key=lambda r: r["monitor"][1])]


def dense_beats_sparse(rows: list[dict]) -> bool:
    """X2: the densest sampling is within 1.05x of the sparsest (the
    former ``bench_monitoring`` assert ``dense <= sparse * 1.05``)."""
    sampled = _sampled(rows)
    return len(sampled) >= 2 and sampled[0] <= sampled[-1] * 1.05


def dense_near_exact(rows: list[dict]) -> bool:
    """X2: the densest sampling is within 1.6x of trigger monitoring (the
    former ``bench_monitoring`` assert ``dense <= exact * 1.6``)."""
    sampled = _sampled(rows)
    exact = [r["unweighted"] for r in rows if r["monitor"][0] == "trigger"]
    return bool(sampled and exact) and sampled[0] <= exact[0] * 1.6


SAMPLING = Matrix(
    name="sampling",
    title=lambda p: "X2: Sec 8.2.1 sampling-based priority monitoring",
    params=(Param("intervals", (2.0, 10.0, 30.0), many=True, minimum=0,
                  strict=True), *TIMING),
    axes=("monitor",),
    resolve=_monitors,
    scenario=_sampling_scenario,
    columns=(("monitor", _monitor_label),
             ("avg deviation", itemgetter("unweighted")),
             ("samples taken", itemgetter("samples"))),
    verdicts=(Verdict("densest sampling <= 1.05 x the sparsest",
                      dense_beats_sparse),
              Verdict("densest sampling <= 1.6 x trigger monitoring",
                      dense_near_exact)),
)


#: X3's refresh latency L (s) and the schedulers it compares
X3_LATENCY = 0.5
X3_SCHEDULERS = {"bound": "bound priority (Sec 9)",
                 "area": "actual-divergence priority"}


def _bounding_workload(params: dict) -> WorkloadSpec:
    return _workload(uniform_random_walk, params, num_sources=1,
                     rate_range=(0.05, 1.0))


def _bounding_scenario(cell: dict) -> Scenario:
    return _scenario(cell, _bounding_workload(cell), "ideal",
                     priority=cell["scheduler"], bound_latency=X3_LATENCY)


def _closed_form(rows: list[dict]) -> list[dict]:
    """Each row's closed-form optimum of the mean bound per object
    (:func:`~repro.analysis.ideal.bound_schedule`, the Lagrange
    solution)."""
    for r in rows:
        rates = np.asarray(build_workload(_bounding_workload(r)).rates)
        r["optimum"] = bound_schedule(
            rates, r["cache-bandwidth"],
            latencies=np.full(len(rates), X3_LATENCY),
        ).average_divergence / len(rates)
    return rows


def _bounds(rows: list[dict]) -> dict:
    return {r["scheduler"]: r for r in rows}


def bound_priority_minimizes(rows: list[dict]) -> bool:
    """X3: the Sec 9 priority yields a lower mean bound than scheduling
    by actual divergence (the former ``bench_bounding`` assert
    ``bound_first < area_first``)."""
    by = _bounds(rows)
    return ("bound" in by and "area" in by
            and by["bound"]["bound"] < by["area"]["bound"])


def bound_above_optimum(rows: list[dict]) -> bool:
    """X3: the Sec 9 priority's mean bound is at least 0.9x the
    closed-form optimum (the former ``bench_bounding`` assert
    ``bound_first >= analytic * 0.9``)."""
    row = _bounds(rows).get("bound")
    return row is not None and row["bound"] >= row["optimum"] * 0.9


def bound_near_optimum(rows: list[dict]) -> bool:
    """X3: ... and at most 1.5x it (the former ``bench_bounding`` assert
    ``bound_first <= analytic * 1.5``)."""
    row = _bounds(rows).get("bound")
    return row is not None and row["bound"] <= row["optimum"] * 1.5


BOUNDING = Matrix(
    name="bounding",
    title=lambda p: "X3: Sec 9 divergence bounding",
    params=(Param("cache-bandwidth", 5.0, minimum=0),
            Param("objects", 30, int, minimum=1), *_timing(100.0, 500.0)),
    axes=("scheduler",),
    resolve=lambda params: {**params, "scheduler": tuple(X3_SCHEDULERS)},
    scenario=_bounding_scenario,
    finish=_closed_form,
    columns=(("scheduler", lambda r: X3_SCHEDULERS[r["scheduler"]]),
             ("avg divergence bound", itemgetter("bound")),
             ("avg actual divergence", itemgetter("unweighted"))),
    extras=lambda rows: [f"closed-form optimum (analysis): avg divergence "
                         f"bound {rows[0]['optimum']:.4g}"] if rows else [],
    verdicts=(Verdict("the Sec 9 priority minimizes the bound objective",
                      bound_priority_minimizes),
              Verdict("Sec 9 bound >= 0.9 x the closed-form optimum",
                      bound_above_optimum),
              Verdict("Sec 9 bound <= 1.5 x the closed-form optimum",
                      bound_near_optimum)),
)


def _poisson_scenario(cell: dict) -> Scenario:
    workload = WorkloadSpec.make(
        uniform_random_walk, cell["seeds"], num_sources=1,
        objects_per_source=cell["objects"],
        horizon=cell["warmup"] + cell["measure"])
    return Scenario(workload=workload, policy="ideal",
                    cache_bandwidth=cell["cache-bandwidth"],
                    source_bandwidth=None, warmup=cell["warmup"],
                    measure=cell["measure"], seed=cell["seeds"],
                    metric=cell["metrics"],
                    priority="paper" if cell["arm"] == "special" else "area")


def seed_means(rows: list[dict]) -> dict[str, tuple[float, float]]:
    """Per metric, the (special-case, general) divergence means over the
    seed axis."""
    runs: dict[str, list[dict]] = {}
    for r in rows:
        runs.setdefault(r["metrics"], []).append(r)
    return {metric: tuple(float(np.mean([r[arm]["divergence"]
                                         for r in group]))
                          for arm in ("special", "general"))
            for metric, group in runs.items()}


def special_cases_hold(rows: list[dict]) -> bool:
    """X4: the rate-aware special cases lose by at most 10% to the
    general formula, every metric, on the seed means (the former
    ``bench_ablation_priority`` assert ``special <= general * 1.10``)."""
    means = seed_means(rows)
    return bool(means) and all(special <= general * 1.10
                               for special, general in means.values())


POISSON = Matrix(
    name="poisson",
    title=lambda p: ("X4: Sec 3.4 special-case formulas vs. the general "
                     "formula"),
    params=(Param("metrics", ("staleness", "lag"), str, many=True,
                  choices=METRICS),
            Param("seeds", (0, 1, 2), int, many=True, minimum=0),
            Param("objects", 100, int, minimum=1),
            Param("cache-bandwidth", 10.0, minimum=0),
            *_timing(100.0, 600.0)[:2]),
    axes=("metrics", "seeds"),
    arms=("special", "general"),
    scenario=_poisson_scenario,
    columns=(("metric", itemgetter("metrics")), ("seed", itemgetter("seeds")),
             ("special-case priority", _field("special", "divergence")),
             ("general area priority", _field("general", "divergence"))),
    extras=lambda rows: [
        f"{metric}, mean over seeds: special-case {special:.4g}, "
        f"general {general:.4g}"
        for metric, (special, general) in seed_means(rows).items()],
    verdicts=(Verdict("special-case priority <= 1.10 x the general one, "
                      "every metric (seed means)", special_cases_hold),),
)


#: X5's bandwidth regimes (aggregate cache msgs/s) for 4 sources of 10
#: objects, each on a 10 msgs/s link
X5_REGIMES = {"scarce": 4.0, "abundant": 40.0}
X5_SOURCE_BANDWIDTH = 10.0
X5_BATCH_TIMEOUT = 2.0


def _batching_scenario(cell: dict) -> Scenario:
    workload = _workload(uniform_random_walk, cell, num_sources=4,
                         objects_per_source=10, rate_range=(0.3, 1.0))
    return _scenario(cell, workload, "cooperative",
                     cache_bandwidth=X5_REGIMES[cell["regime"]],
                     source_bandwidth=X5_SOURCE_BANDWIDTH, metric="staleness",
                     policy_kwargs=(("batch_size", cell["batch-sizes"]),
                                    ("batch_timeout", X5_BATCH_TIMEOUT)))


def _batched(rows: list[dict], regime: str, size: int) -> dict | None:
    return next((r for r in rows if (r["regime"], r["batch-sizes"])
                 == (regime, size)), None)


def batching_amortizes(rows: list[dict]) -> bool:
    """X5: under scarce bandwidth batches of 4 beat single refreshes (the
    former ``bench_future_work`` assert ``scarce[4] < scarce[1]``)."""
    one, four = (_batched(rows, "scarce", size) for size in (1, 4))
    return (one is not None and four is not None
            and four["unweighted"] < one["unweighted"])


def batching_delays(rows: list[dict]) -> bool:
    """X5: under abundant bandwidth batches of 8 do not help much (the
    former ``bench_future_work`` assert ``abundant[8] >= abundant[1] *
    0.9``)."""
    one, eight = (_batched(rows, "abundant", size) for size in (1, 8))
    return (one is not None and eight is not None
            and eight["unweighted"] >= one["unweighted"] * 0.9)


def _has_batches(regime: str, *sizes: int
                 ) -> Callable[[list[dict]], bool]:
    return lambda rows: all(_batched(rows, regime, size) is not None
                            for size in sizes)


BATCHING = Matrix(
    name="batching",
    title=lambda p: "X5: Sec 10.1 refresh batching trade-off",
    params=(Param("batch-sizes", (1, 2, 4, 8), int, many=True, minimum=1),
            *_timing(150.0, 450.0)),
    axes=("regime", "batch-sizes"),
    resolve=lambda params: {**params, "regime": tuple(X5_REGIMES)},
    scenario=_batching_scenario,
    columns=(("bandwidth regime", lambda r: (
                 f"{r['regime']} ({X5_REGIMES[r['regime']]:g} msg/s)")),
             ("batch size", itemgetter("batch-sizes")),
             ("avg staleness", itemgetter("unweighted")),
             ("messages", itemgetter("messages"))),
    verdicts=(Verdict("scarce bandwidth: batches of 4 beat single refreshes",
                      batching_amortizes,
                      applies=_has_batches("scarce", 1, 4)),
              Verdict("abundant bandwidth: batches of 8 >= 0.9 x single "
                      "refreshes", batching_delays,
                      applies=_has_batches("abundant", 1, 8))),
    na="n/a (cells not in this matrix)",
)


#: X6's object count and cache link (msgs/s)
X6_OBJECTS = 50
X6_CACHE_BANDWIDTH = 10.0


def _rates_scenario(cell: dict) -> Scenario:
    workload = _workload(uniform_random_walk, cell, num_sources=1,
                         objects_per_source=X6_OBJECTS,
                         rate_range=(0.05, 1.0))
    return _scenario(cell, workload, "ideal",
                     cache_bandwidth=X6_CACHE_BANDWIDTH, metric="staleness",
                     rate_horizon=cell["horizon"])


def long_horizon_near_oracle(rows: list[dict]) -> bool:
    """X6: with the longest EWMA horizon, measured-rate scheduling is
    within 1.25x + 0.02 of the oracle's staleness (the former
    ``bench_future_work`` assert ``longest <= oracle * 1.25 + 0.02``)."""
    oracle = [r["unweighted"] for r in rows if r["horizon"] is None]
    measured = sorted((r["horizon"], r["unweighted"]) for r in rows
                      if r["horizon"] is not None)
    return bool(oracle and measured) and (measured[-1][1]
                                          <= oracle[0] * 1.25 + 0.02)


RATES = Matrix(
    name="rates",
    title=lambda p: "X6: Sec 8.1 measured rates vs. oracle rates",
    params=(Param("horizons", (2.0, 10.0, 50.0), many=True, minimum=1),
            *_timing(150.0, 450.0, seed=1)),
    axes=("horizon",),
    # the oracle row (no estimate), then one row per horizon
    resolve=lambda params: {**params,
                            "horizon": (None, *params["horizons"])},
    scenario=_rates_scenario,
    columns=(("rate source", lambda r: (
                 "oracle rates" if r["horizon"] is None
                 else f"estimated, EWMA horizon {r['horizon']:g}")),
             ("avg staleness", itemgetter("unweighted"))),
    verdicts=(Verdict("longest EWMA horizon <= 1.25 x oracle staleness "
                      "+ 0.02", long_horizon_near_oracle),),
)


# ----------------------------------------------------------------------
# E11 netcond: policies under fluctuating links
# ----------------------------------------------------------------------
def _netcond_scenario(cell: dict) -> Scenario:
    # The control arm reruns cooperative on ConstantBandwidth links.
    control = cell["arm"] == "control"
    return _scenario(cell, _workload(uniform_random_walk, cell),
                     "cooperative" if control else cell["arm"],
                     bandwidth="constant" if control else cell["scenarios"],
                     topology=LAYOUTS[cell["topologies"]])


def steady_matches_constant(rows: list[dict]) -> bool:
    """Every steady trace reproduced its constant control bit for bit."""
    steady = [r for r in rows if r["scenarios"] == "steady"]
    return bool(steady) and all(
        "control" in r
        and r["cooperative"]["divergence"] == r["control"]["divergence"]
        for r in steady)


def outage_degrades(rows: list[dict]) -> bool:
    """Outage divergence is at least steady's, every policy and layout."""
    pairs = _paired(rows, ("outage",), "steady")
    return bool(pairs) and all(
        out[name]["divergence"] >= steady[name]["divergence"]
        for out, steady in pairs for name in _policies(out))


def _degradation_ratio(outage: float, steady: float) -> float:
    """Outage/steady divergence, defined at a zero baseline."""
    if steady > 0.0:
        return outage / steady
    return float("inf") if outage > 0.0 else 1.0


def graceful_degradation(rows: list[dict]) -> bool:
    """Cooperative's outage/steady ratio is at most uniform's."""
    pairs = _paired(rows, ("outage",), "steady")

    def ratio(out, steady, name):
        return _degradation_ratio(out[name]["divergence"],
                                  steady[name]["divergence"])

    return bool(pairs) and all(
        ratio(out, steady, "cooperative") <= ratio(out, steady, "uniform")
        for out, steady in pairs)


NETCOND = Matrix(
    name="netcond",
    title=lambda p: ("E11 network conditions: five policies under "
                     "trace-driven bandwidth (weighted divergence)"),
    params=(Param("scenarios", SCENARIOS, str, many=True,
                  choices=SCENARIOS),
            Param("topologies", TOPOLOGIES, str, many=True,
                  choices=TOPOLOGIES),
            *_size(16, 8), *_links(20.0, 4.0), *TIMING),
    axes=("scenarios", "topologies"),
    arms=(*POLICIES, "control"),
    include=lambda c: c["arm"] != "control" or c["scenarios"] == "steady",
    scenario=_netcond_scenario,
    columns=(("scenario", itemgetter("scenarios")),
             ("layout", itemgetter("topologies")),
             *map(_column, POLICIES)),
    verdicts=(
        Verdict("steady trace == constant bandwidth (cooperative, "
                "bitwise)", steady_matches_constant, "WARNING: diverged"),
        Verdict("outage degrades every policy vs steady", outage_degrades),
        Verdict("cooperative degrades no worse than uniform under outage",
                graceful_degradation),
    ),
)


# ----------------------------------------------------------------------
# E12 faults: policies under loss, crashes and feedback blackouts
# ----------------------------------------------------------------------
LOSSY = ("lossy-1", "lossy-10")
#: arms beyond the five policies: the explicit-empty-plan pin per policy
#: (scenario "none"), reliable delivery (lossy) and the feedback TTL
#: (none and feedback-blackout), the last two on the cooperative policy
FAULT_ARMS = (*POLICIES, *(f"empty-{name}" for name in POLICIES),
              "retry", "ttl")


def _faults_include(cell: dict) -> bool:
    arm, scenario = cell["arm"], cell["scenarios"]
    if arm.startswith("empty-"):
        return scenario == "none"
    if arm == "retry":
        return scenario in LOSSY
    if arm == "ttl":
        return scenario in ("none", "feedback-blackout")
    return True


def _faults_scenario(cell: dict) -> Scenario:
    arm = cell["arm"]
    plan = fault_scenario(cell["scenarios"], cell["warmup"],
                          cell["measure"], seed=cell["seed"])
    fields: dict = {"faults": None if plan.is_empty() else plan}
    if arm.startswith("empty-"):
        arm, fields["faults"] = arm[len("empty-"):], FaultPlan()
    elif arm == "retry":
        arm, fields["retry"] = "cooperative", RetryPolicy(
            timeout=cell["retry-timeout"], backoff=cell["retry-backoff"],
            max_attempts=cell["retry-attempts"])
    elif arm == "ttl":
        arm, fields["policy_kwargs"] = "cooperative", (
            ("feedback_ttl", cell["feedback-ttl"]),)
    workload = _workload(uniform_random_walk, cell,
                         rate_range=(0.0, cell["rate-cap"]))
    return _scenario(cell, workload, arm,
                     topology=LAYOUTS[cell["topologies"]], **fields)


def empty_plan_is_baseline(rows: list[dict]) -> bool:
    """Every "none" row's explicit-empty-plan rerun matched bit for bit."""
    none = [r for r in rows if r["scenarios"] == "none"]
    return bool(none) and all(
        f"empty-{name}" in r and _pin(r[f"empty-{name}"]) == _pin(r[name])
        for r in none for name in _policies(r))


def loss_monotone(rows: list[dict], tolerance: float = 0.02) -> bool:
    """Divergence is non-decreasing in loss rate (none <= lossy-1 <=
    lossy-10) per policy and layout, up to a ``tolerance`` relative dip:
    a low loss rate can shave a hair off a non-adaptive policy when the
    dropped refreshes happened to be near-stale anyway."""
    cells = {(r["scenarios"], r["topologies"]): r for r in rows}
    checked = 0
    for layout in _values(rows, "topologies"):
        rungs = [cells[(s, layout)] for s in ("none", *LOSSY)
                 if (s, layout) in cells]
        for lower, upper in zip(rungs, rungs[1:]):
            checked += 1
            if any(upper[name]["divergence"]
                   < lower[name]["divergence"] * (1.0 - tolerance)
                   for name in _policies(upper)):
                return False
    return checked > 0


def retry_recovers(rows: list[dict]) -> bool:
    """Reliable delivery wins back at least half of each lossy row's
    cooperative divergence gap (no gap: nothing to recover)."""
    pairs = [(lossy, none) for lossy, none in _paired(rows, LOSSY, "none")
             if "retry" in lossy]
    for lossy, none in pairs:
        lost = lossy["cooperative"]["divergence"]
        gap = lost - none["cooperative"]["divergence"]
        if gap > 0.0 and lossy["retry"]["divergence"] > lost - 0.5 * gap:
            return False
    return bool(pairs)


def blackout_graceful(rows: list[dict], tolerance: float = 0.02) -> bool:
    """Cooperative with a feedback TTL holds its blackout divergence at
    or below uniform allocation's: the TTL decay drifts cut-off sources
    back toward the uniform split instead of ratcheting thresholds up
    on stale silence."""
    cut = [r for r in rows
           if r["scenarios"] == "feedback-blackout" and "ttl" in r]
    return bool(cut) and all(
        r["ttl"]["divergence"]
        <= r["uniform"]["divergence"] * (1.0 + tolerance) for r in cut)


def _faults_extras(rows: list[dict]) -> list[str]:
    lines = []
    for r in rows:
        where = f"  {r['scenarios']}/{r['topologies']}"
        if "retry" in r:
            retry = r["retry"]
            lines.append(f"{where} + retry: divergence "
                         f"{retry['divergence']:.4g} "
                         f"({retry['retransmitted']} retransmits, "
                         f"{retry['duplicates']} duplicates suppressed)")
        if "ttl" in r and r["scenarios"] != "none":
            lines.append(f"{where} + feedback TTL: divergence "
                         f"{r['ttl']['divergence']:.4g}")
    return lines


FAULTS = Matrix(
    name="faults",
    title=lambda p: ("E12 fault injection: five policies under loss, "
                     "crashes and feedback blackouts (weighted "
                     "divergence)"),
    params=(Param("scenarios", FAULT_SCENARIOS, str, many=True,
                  choices=FAULT_SCENARIOS),
            Param("topologies", TOPOLOGIES, str, many=True,
                  choices=TOPOLOGIES),
            *_size(16, 8), *_links(12.0, 4.0),
            # sparse updates are where loss hurts and retries help
            Param("rate-cap", 0.1, minimum=0), Param("retry-timeout", 3.0),
            Param("retry-backoff", 2.0), Param("retry-attempts", 4, int),
            Param("feedback-ttl", 40.0, minimum=0, strict=True), *TIMING),
    axes=("scenarios", "topologies"),
    arms=FAULT_ARMS,
    include=_faults_include,
    scenario=_faults_scenario,
    columns=(("scenario", itemgetter("scenarios")),
             ("layout", itemgetter("topologies")),
             *map(_column, POLICIES),
             ("dropped",
              lambda r: max(r[name]["dropped"] for name in POLICIES))),
    extras=_faults_extras,
    verdicts=(
        Verdict("empty fault plan == fault-free baseline (all policies, "
                "bitwise)", empty_plan_is_baseline, "WARNING: diverged",
                applies=lambda rows: "none" in _values(rows, "scenarios")),
        Verdict("divergence monotone non-decreasing in loss rate",
                loss_monotone,
                applies=lambda rows: len(_values(rows, "scenarios")
                                         & {"none", *LOSSY}) >= 2),
        Verdict("retries recover >= half the loss-induced gap",
                retry_recovers,
                applies=lambda rows: ("none" in _values(rows, "scenarios")
                                      and bool(_values(rows, "scenarios")
                                               & set(LOSSY)))),
        Verdict("cooperative + TTL degrades no worse than uniform through "
                "the blackout", blackout_graceful,
                applies=lambda rows: ("feedback-blackout"
                                      in _values(rows, "scenarios"))),
    ),
    na="n/a (scenario not in this matrix)",
)


# ----------------------------------------------------------------------
# E13 rebalance: shard rebalancing under a moving hotspot
# ----------------------------------------------------------------------
#: static = no rebalancer object; inert = armed with max_moves 0 (must
#: match static bit for bit); adaptive = global rule; distributed = ring
#: neighbours only (reported, not gated)
REBALANCE_ARMS = ("static", "inert", "adaptive", "distributed")


def _rebalance_scenario(cell: dict) -> Scenario:
    arm, caches = cell["arm"], cell["num-caches"]
    kwargs = ()
    if arm != "static":
        kwargs = (("rebalance", RebalanceConfig(
            interval=cell["interval"],
            mode="distributed" if arm == "distributed" else "adaptive",
            saturation_queue=cell["saturation-queue"],
            max_moves=0 if arm == "inert" else cell["max-moves"],
            peer_rate=cell["peer-rate"])),)
    check_hotspot(hot_boost=cell["hot-boost"], num_phases=cell["phases"],
                  rate_range=cell["rate-range"])
    workload = _workload(moving_hotspot, cell, num_phases=cell["phases"],
                         hot_boost=cell["hot-boost"],
                         rate_range=cell["rate-range"])
    return _scenario(cell, workload, "cooperative", policy_kwargs=kwargs,
                     topology=None if caches == 1 else TopologyConfig(
                         kind="sharded", num_caches=caches))


def inert_matches_static(rows: list[dict]) -> bool:
    """The armed-but-idle rebalancer changed nothing, bit for bit."""
    return bool(rows) and all(_pin(r["inert"]) == _pin(r["static"])
                              for r in rows)


def adaptive_migrates(rows: list[dict]) -> bool:
    """Adaptive moved shards at every cache count >= 2."""
    multi = [r for r in rows if r["num-caches"] >= 2]
    return bool(multi) and all(r["adaptive"]["migrations"] > 0
                               for r in multi)


def adaptive_beats_static(rows: list[dict]) -> bool:
    """Adaptive strictly lowers divergence at every cache count >= 2."""
    multi = [r for r in rows if r["num-caches"] >= 2]
    return bool(multi) and all(
        r["adaptive"]["divergence"] < r["static"]["divergence"]
        for r in multi)


REBALANCE = Matrix(
    name="rebalance",
    title=lambda p: ("E13 shard rebalancing: static vs adaptive vs "
                     "distributed under a moving hotspot (weighted "
                     "divergence)"),
    params=(Param("num-caches", (1, 2, 4, 8), int, many=True, minimum=1),
            *_size(16, 8), *_links(24.0, 4.0), Param("phases", 4, int),
            Param("hot-boost", 25.0),
            Param("rate-range", (0.02, 0.12), many=True, size=2),
            Param("interval", 10.0), Param("max-moves", 2, int),
            Param("saturation-queue", 2, int), Param("peer-rate", 4.0),
            *TIMING),
    axes=("num-caches",),
    arms=REBALANCE_ARMS,
    scenario=_rebalance_scenario,
    columns=(("caches", itemgetter("num-caches")),
             *map(_column, REBALANCE_ARMS),
             ("moves(adapt)", _field("adaptive", "migrations")),
             ("moves(dist)", _field("distributed", "migrations"))),
    verdicts=(
        Verdict("inert rebalancer == static sharding (bitwise)",
                inert_matches_static, "WARNING: diverged"),
        Verdict("adaptive migrates at every cache count >= 2",
                adaptive_migrates, "WARNING: no migrations"),
        Verdict("adaptive beats static at every cache count >= 2",
                adaptive_beats_static),
    ),
)


# ----------------------------------------------------------------------
# E14 multicast: delivery plane x replication
# ----------------------------------------------------------------------
#: policies whose refresh path rides the delivery plane
ADAPTIVE_POLICIES = ("cooperative", "uniform", "competitive")
#: policies that never touch the fan-out path
CONTROL_POLICIES = ("cgm", "ideal")


def _multicast_scenario(cell: dict) -> Scenario:
    topology = TopologyConfig(kind="replicated",
                              num_caches=cell["num-caches"],
                              replication=cell["replications"],
                              delivery=cell["deliveries"])
    return _scenario(cell, _workload(uniform_random_walk, cell),
                     cell["arm"], topology=topology)


def _planes(rows: list[dict]) -> list[tuple[dict, dict]]:
    """(unicast row, multicast row) at each replication both ran."""
    uni = {r["replications"]: r for r in rows
           if r["deliveries"] == "unicast"}
    return [(uni[r["replications"]], r) for r in rows
            if r["deliveries"] == "multicast" and r["replications"] in uni]


def unicast_tie_at_r1(rows: list[dict]) -> bool:
    """At replication 1 (no sibling legs) multicast reproduced unicast
    bit for bit for every policy."""
    pairs = [(u, m) for u, m in _planes(rows) if m["replications"] == 1]
    fields = ("divergence", "refreshes", "messages", "units")
    return bool(pairs) and all(
        uni[name][f] == multi[name][f]
        for uni, multi in pairs for name in _policies(uni) for f in fields)


def multicast_dominates(rows: list[dict], tolerance: float = 0.02) -> bool:
    """At replication >= 2 every adaptive policy reaches strictly lower
    divergence under multicast without spending more cache-side units
    (``tolerance``: allowed relative unit overshoot) -- a strictly
    better point on both axes, hence strictly better per unit."""
    pairs = [(u, m) for u, m in _planes(rows) if m["replications"] >= 2]
    return bool(pairs) and all(
        multi[name]["divergence"] < uni[name]["divergence"]
        and multi[name]["units"] <= uni[name]["units"] * (1.0 + tolerance)
        for uni, multi in pairs for name in ADAPTIVE_POLICIES)


def controls_invariant(rows: list[dict]) -> bool:
    """CGM and ideal are bitwise identical across planes."""
    pairs = _planes(rows)
    return bool(pairs) and all(_pin(multi[name]) == _pin(uni[name])
                               for uni, multi in pairs
                               for name in CONTROL_POLICIES)


def _per_unit(record: dict) -> float:
    """Weighted divergence per cache-side bandwidth unit."""
    units = record["units"]
    return record["divergence"] / units if units > 0 else float("inf")


def _both_planes(rows: list[dict]) -> bool:
    return len(_values(rows, "deliveries")) == 2


MULTICAST = Matrix(
    name="multicast",
    title=lambda p: ("E14 multicast delivery: five policies x delivery "
                     "plane x replication (weighted divergence)"),
    params=(Param("replications", (1, 2, 4), int, many=True),
            Param("deliveries", DELIVERY_MODES, str, many=True,
                  choices=DELIVERY_MODES),
            Param("num-caches", 4, int, minimum=1), *_size(16, 8),
            # keep the links saturated: idle links hide the planes' cost
            *_links(12.0, 4.0), *TIMING),
    axes=("replications", "deliveries"),
    arms=POLICIES,
    scenario=_multicast_scenario,
    columns=(("delivery", itemgetter("deliveries")),
             ("repl", itemgetter("replications")),
             *map(_column, POLICIES),
             ("coop units", _field("cooperative", "units"))),
    extras=lambda rows: [
        "  r={} {}: coop div/unit {:.4g}, uniform div/unit {:.4g}".format(
            r["replications"], r["deliveries"],
            _per_unit(r["cooperative"]), _per_unit(r["uniform"]))
        for r in rows if r["replications"] >= 2],
    verdicts=(
        Verdict("multicast == unicast at replication 1 (all policies, "
                "bitwise)", unicast_tie_at_r1, "WARNING: diverged",
                applies=lambda rows: (_both_planes(rows) and 1
                                      in _values(rows, "replications"))),
        Verdict("multicast strictly better divergence per unit at "
                "replication >= 2 (adaptive policies)", multicast_dominates,
                applies=lambda rows: (_both_planes(rows) and bool(
                    _values(rows, "replications") - {1}))),
        Verdict("cgm/ideal invariant across delivery planes (bitwise)",
                controls_invariant, "WARNING: diverged",
                applies=_both_planes),
    ),
    na="n/a (cells not in this matrix)",
)


# ----------------------------------------------------------------------
# E8 multicache: cooperative vs uniform over the cache count
# ----------------------------------------------------------------------
def _multicache_axes(params: dict) -> dict:
    # Explicit per-cache rates define the cache count: one point.
    if params["cache-rates"] is not None:
        params["num-caches"] = (len(params["cache-rates"]),)
    return params


def _multicache_scenario(cell: dict) -> Scenario:
    caches = cell["num-caches"]
    if caches == 1:
        topology = TopologyConfig(cache_rates=cell["cache-rates"],
                                  delivery=cell["delivery"])
    else:
        topology = TopologyConfig(kind=cell["topology"], num_caches=caches,
                                  replication=cell["replication"],
                                  cache_rates=cell["cache-rates"],
                                  delivery=cell["delivery"])
    check_hotspot(hot_fraction=cell["hot-fraction"],
                  hot_boost=cell["hot-boost"])
    workload = _workload(hotspot_shards, cell,
                         hot_fraction=cell["hot-fraction"],
                         hot_boost=cell["hot-boost"])
    return _scenario(cell, workload, cell["arm"], topology=topology)


def _advantage(row: dict) -> float:
    """Uniform divided by cooperative divergence (> 1: adaptive wins)."""
    cooperative = row["cooperative"]["divergence"]
    if cooperative <= 0:
        return float("inf")
    return row["uniform"]["divergence"] / cooperative


def cooperative_beats_uniform(rows: list[dict]) -> bool:
    """E8's claim: adaptive allocation wins at every cache count."""
    return bool(rows) and all(row["cooperative"]["divergence"]
                              < row["uniform"]["divergence"]
                              for row in rows)


def _multicache_title(params: dict) -> str:
    label = (f"heterogeneous cache rates {params['cache-rates']}"
             if params["cache-rates"] else params["topology"])
    return (f"Multi-cache sweep ({label}): cooperative vs uniform "
            "allocation, hot-shard workload")


MULTICACHE = Matrix(
    name="multicache",
    title=_multicache_title,
    params=(Param("num-caches", (1, 2, 4), int, many=True, minimum=1),
            Param("topology", "sharded", str,
                  choices=("sharded", "replicated")),
            Param("replication", 2, int), *_size(16, 8),
            *_links(24.0, 4.0), Param("hot-fraction", 0.25),
            Param("hot-boost", 8.0),
            Param("cache-rates", None, many=True),
            Param("delivery", "unicast", str, choices=DELIVERY_MODES),
            *TIMING),
    axes=("num-caches",),
    arms=("cooperative", "uniform"),
    resolve=_multicache_axes,
    scenario=_multicache_scenario,
    columns=(("caches", itemgetter("num-caches")),
             ("layout", lambda r: ("star" if r["num-caches"] == 1
                                   else r["topology"])),
             _column("cooperative"), _column("uniform"),
             ("advantage", _advantage),
             ("coop refreshes", _field("cooperative", "refreshes")),
             ("unif refreshes", _field("uniform", "refreshes")),
             ("queue peak", _field("cooperative", "queue_peak"))),
    verdicts=(Verdict("cooperative beats uniform at every cache count",
                      cooperative_beats_uniform),),
)


# ----------------------------------------------------------------------
# E10 readmodel: read policy x replication x bandwidth
# ----------------------------------------------------------------------
def read_policies_for(replication: int) -> list[str]:
    """The read policies at one replication factor: ``any`` is quorum-1
    and ``freshest`` consults all ``r`` replicas, so the list walks the
    whole quorum axis plus the deterministic endpoint."""
    return (["any"]
            + [f"quorum-{k}" for k in range(2, replication + 1)]
            + ["freshest"])


def quorum_size(read_policy: str, replication: int) -> int:
    """Replicas one read consults."""
    kind, k = parse_read_policy(read_policy)
    if kind == "any":
        return 1
    return replication if kind == "freshest" else k


def _readmodel_axes(params: dict) -> dict:
    # Clamp replication to the cache count (a copy per cache is all a
    # layout holds); clamping can collapse entries.
    caches = params["num-caches"]
    params["replication"] = tuple(dict.fromkeys(
        min(r, caches) for r in params["replication"]))
    params["read"] = tuple(read_policies_for(caches))
    return params


def _readmodel_scenario(cell: dict) -> Scenario:
    caches = cell["num-caches"]
    if caches == 1:
        topology = TopologyConfig(delivery=cell["delivery"])
    else:
        topology = TopologyConfig(kind="replicated", num_caches=caches,
                                  replication=cell["replication"],
                                  delivery=cell["delivery"])
    return _scenario(cell, _workload(uniform_random_walk, cell),
                     "cooperative",
                     cache_bandwidth=cell["cache-bandwidths"],
                     topology=topology, read_policy=cell["read"],
                     read_rate=cell["read-rate"])


def _replica_sets(rows: list[dict]) -> list[list[dict]]:
    """Rows grouped per (bandwidth, replication): one simulation each."""
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["cache-bandwidths"], r["replication"]),
                          []).append(r)
    return list(groups.values())


def _k(row: dict) -> int:
    return quorum_size(row["read"], row["replication"])


def quorum_monotone(rows: list[dict]) -> bool:
    """Read divergence is non-increasing in quorum size within every
    (bandwidth, replication) group."""
    for group in _replica_sets(rows):
        ordered = sorted(group, key=_k)
        if any(b["read_divergence"] > a["read_divergence"]
               for a, b in zip(ordered, ordered[1:])):
            return False
    return True


def freshest_equals_full_quorum(rows: list[dict]) -> bool:
    """quorum-r and freshest agree exactly in every group."""
    for group in _replica_sets(rows):
        by_read = {r["read"]: r for r in group}
        full = by_read.get(f"quorum-{group[0]['replication']}")
        freshest = by_read.get("freshest")
        if full is not None and freshest is not None and (
                (full["read_divergence"], full["reads"])
                != (freshest["read_divergence"], freshest["reads"])):
            return False
    return True


def _direct(row: dict) -> str:
    if row["matches_direct"] is None:
        return "-"
    return "yes" if row["matches_direct"] else "NO"


READMODEL = Matrix(
    name="readmodel",
    title=lambda p: (f"Replicated read model ({p['num-caches']} caches): "
                     "read-observed divergence by read policy"),
    params=(Param("num-caches", 3, int, minimum=1),
            Param("replication", (1, 2, 3), int, many=True, minimum=1),
            Param("cache-bandwidths", (18.0,), many=True, minimum=0),
            # Strict: at zero reads the read verdicts check nothing.
            Param("read-rate", 0.5, minimum=0, strict=True),
            *_size(12, 4),
            Param("source-bandwidth", 3.0, minimum=0),
            Param("delivery", "unicast", str, choices=DELIVERY_MODES),
            *TIMING),
    axes=("cache-bandwidths", "replication", "read"),
    resolve=_readmodel_axes,
    include=lambda c: _k(c) <= c["replication"],
    scenario=_readmodel_scenario,
    columns=(("bandwidth", itemgetter("cache-bandwidths")),
             ("caches", itemgetter("num-caches")),
             ("repl", itemgetter("replication")),
             ("read policy", itemgetter("read")), ("k", _k),
             ("read div", itemgetter("read_divergence")),
             ("stale reads", lambda r: f"{100 * r['stale_fraction']:.1f}%"),
             ("copy div", itemgetter("divergence")),
             ("replica div", itemgetter("replica_divergence")),
             ("reads", itemgetter("reads")),
             ("refreshes", itemgetter("refreshes")),
             ("direct", _direct)),
    verdicts=(
        Verdict("quorum-k read divergence monotone non-increasing in k",
                quorum_monotone, "NO"),
        Verdict("quorum-r matches freshest-replica exactly",
                freshest_equals_full_quorum, "NO"),
        # One cache degenerates every policy to the star's
        # CacheStore.read; each read was cross-checked bit for bit.
        Verdict("single-cache reads match star CacheStore.read "
                "bit-for-bit",
                lambda rows: all(r["matches_direct"] for r in rows
                                 if r["matches_direct"] is not None),
                "NO",
                applies=lambda rows: any(r["matches_direct"] is not None
                                         for r in rows)),
    ),
)


# ----------------------------------------------------------------------
# E9 scale: the cooperative policy on sparse sources x source count
# ----------------------------------------------------------------------
def _scale_scenario(cell: dict) -> Scenario:
    caches = cell["shard-caches"]
    workload = WorkloadSpec.make(
        sparse_workload, cell["seed"], num_sources=cell["sources"],
        horizon=cell["warmup"] + cell["measure"],
        update_rate=cell["update-rate"])
    return _scenario(cell, workload, "cooperative",
                     topology=None if caches == 1 else TopologyConfig(
                         kind="sharded", num_caches=caches))


def _scale_title(params: dict) -> str:
    caches = params["shard-caches"]
    layout = "star" if caches == 1 else f"sharded-{caches}"
    return ("E9 scale sweep: the cooperative policy on sparse updates "
            f"(lambda = {params['update-rate']}/s, {layout})")


def _backlog_seconds(row: dict) -> float:
    """The refreshes still queued at the end, in seconds of cache link."""
    bandwidth = row["cache-bandwidth"]
    if bandwidth > 0:
        return row["queued"] / bandwidth
    return float("inf") if row["queued"] else 0.0


def refreshes_conserved(rows: list[dict]) -> bool:
    """E9: every refresh sent was delivered or is still queued.  A star
    or sharded layout discards no stale refresh, so this is exact."""
    return bool(rows) and all(r["sent"] == r["refreshes"] + r["queued"]
                              for r in rows)


SCALE = Matrix(
    name="scale",
    title=_scale_title,
    params=(Param("sources", (100, 1000, 10000), int, many=True, minimum=1),
            Param("update-rate", 0.002, minimum=0), *_links(8.0, 1.0),
            Param("shard-caches", 1, int, minimum=1),
            *_timing(100.0, 500.0)),
    axes=("sources",),
    scenario=_scale_scenario,
    columns=(("sources", itemgetter("sources")),
             ("divergence", itemgetter("divergence")),
             ("sent", itemgetter("sent")),
             ("delivered", itemgetter("refreshes")),
             ("queued", itemgetter("queued")),
             ("backlog s", _backlog_seconds),
             ("feedback", itemgetter("feedback")),
             ("feedback share", itemgetter("overhead"))),
    verdicts=(Verdict("every refresh sent was delivered or is still queued",
                      refreshes_conserved),),
)


MATRICES = {m.name: m for m in (E1, E2, E3, FIG4, FIG5, FIG6, OVERHEAD,
                                PSI, SAMPLING, BOUNDING, POISSON, BATCHING,
                                RATES, NETCOND, FAULTS, REBALANCE, MULTICAST,
                                MULTICACHE, READMODEL, SCALE)}
