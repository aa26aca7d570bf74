"""One scenario matrix for the beyond-the-paper experiments (E8, E10-E14).

Each of those experiments asks the paper's question once more -- how does
the threshold protocol fare against the uniform, CGM and ideal baselines?
-- under one more setting: a bandwidth condition, a fault plan, a moving
hotspot, a delivery plane, a cache layout or a client read stream.  So one
declarative harness runs them all:

* a :class:`Scenario` is one simulation run as picklable data: a
  :class:`~repro.experiments.parallel.WorkloadSpec`, a policy name plus
  constructor kwargs (``feedback_ttl``, ``rebalance``, ...) and the run
  settings -- layout and delivery plane, bandwidth condition, fault plan,
  retry policy and an optional client read stream;
* a :class:`Matrix` declares settable parameters with defaults, the axes
  whose product forms the table rows, the arms run once per row, an
  include filter for dependent cells, the table columns, extra lines and
  verdict predicates.

:func:`run_scenario` runs one scenario and returns one flat record;
:func:`run_matrix` fans a matrix's scenarios over a
:class:`~repro.experiments.parallel.ParallelRunner` (bit-identical at any
worker count) and folds the records into rows; :meth:`Matrix.render`
prints the table and its verdicts.  :data:`MATRICES` registers six
matrices behind ``repro matrix NAME [KEY=VALUE[,VALUE...] ...]``:

==========  ===========================================================
netcond     E11: five policies x bandwidth condition x layout
faults      E12: five policies x fault plan x layout, plus the
            empty-plan, reliable-delivery and feedback-TTL arms
rebalance   E13: static/inert/adaptive/distributed x cache count under
            a moving hotspot
multicast   E14: five policies x delivery plane x replication
multicache  E8: cooperative vs uniform x cache count on hot shards
readmodel   E10: read policy x replication x cache bandwidth
==========  ===========================================================

A row is a dict holding the resolved parameters and the row's axis
values; each arm's record sits under ``row[arm]``, and a matrix without
arms merges its single record into the row.  Verdict predicates read
rows, so they can be checked on hand-built rows as well as on runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Sequence

from repro.cache.readmodel import parse_read_policy
from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority
from repro.core.weights import StaticWeights
from repro.experiments.parallel import (
    ParallelRunner,
    WorkloadSpec,
    build_workload,
)
from repro.experiments.readmodel import run_policy_with_reads
from repro.experiments.runner import RunSpec, run_policy
from repro.faults.plan import FAULT_SCENARIOS, FaultPlan, fault_scenario
from repro.faults.retry import RetryPolicy
from repro.metrics.report import format_table
from repro.network.bandwidth import ConstantBandwidth
from repro.network.delivery import DELIVERY_MODES
from repro.network.topology import TopologyConfig
from repro.policies.cache_driven import CGMPollingPolicy
from repro.policies.competitive import CompetitivePolicy
from repro.policies.cooperative import CooperativePolicy
from repro.policies.ideal import IdealCooperativePolicy
from repro.policies.uniform import UniformAllocationPolicy
from repro.rebalance import RebalanceConfig
from repro.sim.random import RngRegistry
from repro.workloads.bandwidth_traces import SCENARIOS, scenario_profile
from repro.workloads.hotspot import (
    check_hotspot,
    hotspot_shards,
    moving_hotspot,
)
from repro.workloads.synthetic import uniform_random_walk

POLICIES = ("cooperative", "uniform", "competitive", "cgm", "ideal")


def make_policy(name: str, cache_bw, source_bws, num_objects: int,
                **kwargs):
    """One of the five compared policies on fresh bandwidth profiles.

    ``kwargs`` reach the policy constructor (e.g. the cooperative
    policy's ``feedback_ttl``, ``rebalance`` or batching knobs).
    """
    if name == "cooperative":
        return CooperativePolicy(cache_bw, source_bws,
                                 priority_fn=AreaPriority(), **kwargs)
    if name == "uniform":
        return UniformAllocationPolicy(cache_bw, source_bws, **kwargs)
    if name == "competitive":
        return CompetitivePolicy(
            cache_bw, source_bws, priority_fn=AreaPriority(),
            source_weights=StaticWeights.uniform(num_objects), psi=0.25,
            **kwargs)
    if name == "cgm":
        return CGMPollingPolicy(cache_bw, variant="cgm2", **kwargs)
    if name == "ideal":
        return IdealCooperativePolicy(cache_bw, AreaPriority(),
                                      source_bandwidths=source_bws,
                                      **kwargs)
    raise ValueError(f"unknown policy {name!r}")


@dataclass(frozen=True)
class Scenario:
    """One simulation run as picklable data.

    Construction builds the run's :class:`RunSpec`, so a bad timing
    window fails while a matrix is declared, not in the middle of it.
    """

    workload: WorkloadSpec
    policy: str  #: a :data:`POLICIES` name
    cache_bandwidth: float  #: aggregate cache-side msgs/s
    source_bandwidth: float  #: per-source msgs/s
    warmup: float
    measure: float
    seed: int = 0
    #: policy constructor kwargs, e.g. ``feedback_ttl`` or ``rebalance``
    policy_kwargs: tuple[tuple[str, Any], ...] = ()
    #: ``"constant"`` links, or an E11 condition of
    #: :func:`~repro.workloads.bandwidth_traces.scenario_profile`
    bandwidth: str = "constant"
    topology: TopologyConfig | None = None  #: layout + plane (None = star)
    faults: FaultPlan | None = None
    retry: RetryPolicy | None = None
    read_policy: str | None = None  #: client read stream (None = no reads)
    read_rate: float = 0.0  #: client reads/second per object

    def __post_init__(self) -> None:
        self.spec()

    def spec(self) -> RunSpec:
        return RunSpec(warmup=self.warmup, measure=self.measure,
                       seed=self.seed, topology=self.topology,
                       faults=self.faults, retry=self.retry)

    def profiles(self, num_sources: int):
        """Fresh cache and per-source profiles (links consume them).

        A trace condition shapes the cache link and, seeded per source,
        every source link, so bursty runs get heterogeneous per-source
        congestion walks.
        """
        if self.bandwidth == "constant":
            return (ConstantBandwidth(self.cache_bandwidth),
                    [ConstantBandwidth(self.source_bandwidth)
                     for _ in range(num_sources)])
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
    policy = make_policy(scenario.policy, cache_bw, source_bws,
                         workload.num_objects,
                         **dict(scenario.policy_kwargs))
    record: dict = {}
    if scenario.read_policy is None:
        result = run_policy(workload, ValueDeviation(), policy,
                            scenario.spec())
    else:
        reads = workload.read_stream(
            RngRegistry(scenario.seed).stream("read-workload"),
            read_rate=scenario.read_rate)
        result, read_run = run_policy_with_reads(
            workload, ValueDeviation(), policy, scenario.spec(), reads,
            read_policy=scenario.read_policy, track_replicas=True)
        record = {
            "reads": result.reads,
            "read_divergence": result.read_divergence,
            "stale_fraction": read_run.collector.stale_read_fraction(),
            "replica_divergence": read_run.tracker.mean_over_replicas(),
            "matches_direct": read_run.matches_direct,
        }
    # The analytic ideal curve builds no network; star runs no rebalancer.
    topology = getattr(policy, "topology", None)
    telemetry = topology.telemetry() if topology is not None else {}
    rebalancer = getattr(policy, "rebalancer", None)
    record.update(
        divergence=result.weighted_divergence,
        refreshes=result.refreshes,
        messages=result.messages_total,
        # cache-side bandwidth units: a multicast sibling copy is one
        # more message but zero more units (the E14 denominator)
        units=topology.cache_units_total() if topology is not None else 0.0,
        dropped=telemetry.get("dropped", 0),
        retransmitted=telemetry.get("retransmitted", 0),
        duplicates=telemetry.get("duplicate_suppressed", 0),
        migrations=rebalancer.migrations if rebalancer is not None else 0,
        queue_peak=int(result.extras.get("cache_queue_peak", 0)),
    )
    return record


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
    minimum: float | None = None  #: smallest allowed element
    size: int | None = None  #: exact tuple length

    def parse(self, text: str):
        try:
            values = tuple(self.kind(part) for part in text.split(","))
        except ValueError:
            raise ValueError(f"{self.key}: expected {self.kind.__name__} "
                             f"values, got {text!r}") from None
        for value in values:
            if self.choices and value not in self.choices:
                raise ValueError(
                    f"{self.key}: unknown value {value!r}; choose from "
                    f"{','.join(map(str, self.choices))}")
            if self.minimum is not None and value < self.minimum:
                raise ValueError(
                    f"{self.key} must be >= {self.minimum}, got {value}")
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
    columns: tuple[tuple[str, Callable[[dict], Any]], ...]
    arms: tuple[str, ...] = ()  #: runs per row, as ``cell["arm"]``
    include: Callable[[dict], bool] = lambda cell: True
    #: derive or normalize axis values from the parameters
    resolve: Callable[[dict], dict] = lambda params: params
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
        lines = [format_table([header for header, _ in self.columns],
                              [[value(row) for _, value in self.columns]
                               for row in rows],
                              title=self.title(params)),
                 *self.extras(rows)]
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
    bit-identical to the serial run, in the same order.
    """
    cells = matrix.cells(params)
    records = ParallelRunner(workers).map(
        run_scenario, [scenario for _, _, scenario in cells])
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
    return rows


# ----------------------------------------------------------------------
# Shared declarations
# ----------------------------------------------------------------------
TIMING = (Param("warmup", 100.0), Param("measure", 400.0),
          Param("seed", 0, int))
#: the two reference layouts of E11/E12 ("sharded-4" = 4 block shards)
LAYOUTS = {"star": None,
           "sharded-4": TopologyConfig(kind="sharded", num_caches=4)}
TOPOLOGIES = tuple(LAYOUTS)


def _size(sources: int, objects: int) -> tuple[Param, Param]:
    return (Param("sources", sources, int, minimum=1),
            Param("objects", objects, int, minimum=1))


def _workload(builder, cell: dict, **kwargs) -> WorkloadSpec:
    return WorkloadSpec.make(builder, cell["seed"],
                             num_sources=cell["sources"],
                             objects_per_source=cell["objects"],
                             horizon=cell["warmup"] + cell["measure"],
                             **kwargs)


def _scenario(cell: dict, workload: WorkloadSpec, policy: str,
              **fields) -> Scenario:
    base = dict(cache_bandwidth=cell.get("cache-bandwidth"),
                source_bandwidth=cell["source-bandwidth"],
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
            *_size(16, 8), Param("cache-bandwidth", 20.0),
            Param("source-bandwidth", 4.0), *TIMING),
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
            *_size(16, 8), Param("cache-bandwidth", 12.0),
            Param("source-bandwidth", 4.0),
            # sparse updates are where loss hurts and retries help
            Param("rate-cap", 0.1), Param("retry-timeout", 3.0),
            Param("retry-backoff", 2.0), Param("retry-attempts", 4, int),
            Param("feedback-ttl", 40.0), *TIMING),
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
    check_hotspot(hot_boost=cell["hot-boost"], num_phases=cell["phases"])
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
            *_size(16, 8), Param("cache-bandwidth", 24.0),
            Param("source-bandwidth", 4.0), Param("phases", 4, int),
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
            Param("cache-bandwidth", 12.0),
            Param("source-bandwidth", 4.0), *TIMING),
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
            Param("cache-bandwidth", 24.0), Param("source-bandwidth", 4.0),
            Param("hot-fraction", 0.25), Param("hot-boost", 8.0),
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
            Param("cache-bandwidths", (18.0,), many=True),
            Param("read-rate", 0.5), *_size(12, 4),
            Param("source-bandwidth", 3.0),
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


MATRICES = {m.name: m for m in (NETCOND, FAULTS, REBALANCE, MULTICAST,
                                MULTICACHE, READMODEL)}
