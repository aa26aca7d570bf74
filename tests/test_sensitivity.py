"""Every setting either changes the run or is on the inert list.

A sensitivity probe: for each setting of :class:`CooperativePolicy`,
:class:`CompetitivePolicy`, :class:`TopologyConfig`,
:class:`RebalanceConfig` and :class:`RetryPolicy`, one tiny seeded run at
a base where the setting can matter and one at another valid value.  The
two :class:`~repro.metrics.report.RunResult` objects must differ, or the
pair must sit on :data:`INERT` with the reason it cannot move the run.
The ``readmodel``, ``scale``, ``multicache`` and ``faults`` matrices'
parameters are probed the same way, each against a tiny base (three
replicated rows; one row of 200 sources; one replicated row of two arms;
two fault rows of six arms, one of them the CGM baseline), and so are
those of the six Secs 7-10 analysis matrices (X1-X6) and of
``overhead``, ``netcond``, ``rebalance`` and ``multicast``.  Every silent (or
failing) pair is reported in one pass, the way a parameter sweep logs
its failed runs and goes on, so one run of the test names them all.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect

import numpy as np
import pytest

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority, SimpleDivergencePriority
from repro.core.weights import StaticWeights
from repro.experiments.matrix import (
    FAULTS,
    MATRICES,
    MULTICACHE,
    READMODEL,
    REBALANCE,
    SCALE,
    run_matrix,
    run_scenario,
)
from repro.experiments.runner import RunSpec, run_policy
from repro.faults.plan import FaultPlan, LossRule
from repro.faults.retry import RetryPolicy
from repro.network.bandwidth import ConstantBandwidth
from repro.network.topology import TopologyConfig
from repro.policies.competitive import CompetitivePolicy
from repro.policies.cooperative import CooperativePolicy
from repro.rebalance import RebalanceConfig
from repro.workloads.hotspot import moving_hotspot
from repro.workloads.synthetic import uniform_random_walk

SOURCES, OBJECTS = 8, 4
WARMUP, MEASURE = 40.0, 120.0


@dataclasses.dataclass(frozen=True)
class Probe:
    """One tiny run, as hashable data."""

    policy: str = "cooperative"  #: "cooperative" or "competitive"
    kwargs: tuple = ()  #: policy constructor kwargs, sorted
    topology: TopologyConfig | None = None
    retry: RetryPolicy | None = None
    loss: float = 0.0  #: loss probability on every delivery, both ways
    hot: bool = False  #: a moving hotspot (else a uniform random walk)
    cache: float = 6.0  #: aggregate cache-side msgs/s

    def set(self, **kwargs) -> "Probe":
        """This probe with the policy kwargs ``kwargs`` overridden."""
        return dataclasses.replace(
            self, kwargs=tuple(sorted({**dict(self.kwargs),
                                       **kwargs}.items())))


@functools.lru_cache(maxsize=None)
def outcome(probe: Probe):
    rng = np.random.default_rng(5)
    shape = dict(num_sources=SOURCES, objects_per_source=OBJECTS,
                 horizon=WARMUP + MEASURE, rng=rng)
    workload = (moving_hotspot(**shape, num_phases=4, hot_boost=25.0,
                               rate_range=(0.02, 0.12))
                if probe.hot else uniform_random_walk(**shape))
    kwargs = dict(probe.kwargs)
    priority = kwargs.pop("priority_fn", "area")
    args = (ConstantBandwidth(probe.cache),
            [ConstantBandwidth(1.5) for _ in range(SOURCES)],
            SimpleDivergencePriority() if priority == "simple"
            else AreaPriority())
    if probe.policy == "competitive":
        weights = kwargs.pop("source_weights", "uniform")
        source_weights = (StaticWeights.uniform(SOURCES * OBJECTS)
                          if weights == "uniform" else StaticWeights(
                              np.linspace(0.2, 2.0, SOURCES * OBJECTS)))
        policy = CompetitivePolicy(*args, source_weights=source_weights,
                                   **kwargs)
    else:
        policy = CooperativePolicy(*args, **kwargs)
    faults = None
    if probe.loss:
        faults = FaultPlan(seed=1, loss=(
            LossRule(0.0, WARMUP + MEASURE, probe.loss, "both"),))
    spec = RunSpec(warmup=WARMUP, measure=MEASURE, seed=5,
                   topology=probe.topology, faults=faults,
                   retry=probe.retry)
    return run_policy(workload, ValueDeviation(), policy, spec)


STAR = Probe()
SAMPLING = STAR.set(monitor="sampling")
BATCHING = STAR.set(batch_size=4)
COMPETITIVE = Probe(policy="competitive")
SHARDED = Probe(topology=TopologyConfig(kind="sharded", num_caches=2))
REPLICATED = Probe(topology=TopologyConfig(kind="replicated",
                                           num_caches=3, replication=2))
#: a hotspot moving over a sharded-4 edge: the hot cache's link queues
#: while the others bank surplus, so a rebalancer has donors and
#: recipients
HOT = Probe(topology=TopologyConfig(kind="sharded", num_caches=4),
            hot=True, cache=10.0)
#: heavy loss, so refreshes often need several attempts
RETRIED = Probe(retry=RetryPolicy(), loss=0.5)


def _rebalance(**changes) -> Probe:
    return HOT.set(rebalance=RebalanceConfig(**{"interval": 10.0,
                                                **changes}))


REBALANCED = _rebalance()


def _topology(base: Probe, **changes) -> Probe:
    return dataclasses.replace(
        base, topology=dataclasses.replace(base.topology, **changes))


def _retry(**changes) -> Probe:
    return dataclasses.replace(RETRIED, retry=RetryPolicy(**changes))


#: "Class.setting" -> (base run, the run with one other valid value)
PROBES = {
    "CooperativePolicy.priority_fn": (STAR, STAR.set(priority_fn="simple")),
    "CooperativePolicy.alpha": (STAR, STAR.set(alpha=1.5)),
    "CooperativePolicy.omega": (STAR, STAR.set(omega=4.0)),
    "CooperativePolicy.initial_threshold": (
        STAR, STAR.set(initial_threshold=50.0)),
    "CooperativePolicy.feedback_period": (
        STAR, STAR.set(feedback_period=1.0)),
    "CooperativePolicy.monitor": (STAR, SAMPLING),
    "CooperativePolicy.sampling_interval": (
        SAMPLING, SAMPLING.set(sampling_interval=3.0)),
    "CooperativePolicy.predictive_sampling": (
        SAMPLING, SAMPLING.set(predictive_sampling=True)),
    "CooperativePolicy.batch_size": (STAR, BATCHING),
    "CooperativePolicy.batch_timeout": (
        BATCHING, BATCHING.set(batch_timeout=1.0)),
    "CooperativePolicy.feedback_ttl": (STAR, STAR.set(feedback_ttl=2.0)),
    "CooperativePolicy.rebalance": (HOT, REBALANCED),
    "CompetitivePolicy.source_weights": (
        COMPETITIVE, COMPETITIVE.set(source_weights="skewed")),
    "CompetitivePolicy.psi": (COMPETITIVE, COMPETITIVE.set(psi=0.6)),
    "CompetitivePolicy.option": (
        COMPETITIVE, COMPETITIVE.set(option="contribution")),
    "TopologyConfig.kind": (SHARDED, _topology(SHARDED, kind="replicated")),
    "TopologyConfig.num_caches": (SHARDED, _topology(SHARDED, num_caches=4)),
    "TopologyConfig.replication": (
        REPLICATED, _topology(REPLICATED, replication=3)),
    "TopologyConfig.cache_rates": (
        SHARDED, _topology(SHARDED, cache_rates=(5.0, 1.0))),
    "TopologyConfig.delivery": (
        REPLICATED, _topology(REPLICATED, delivery="multicast")),
    "RebalanceConfig.interval": (REBALANCED, _rebalance(interval=30.0)),
    "RebalanceConfig.mode": (REBALANCED, _rebalance(mode="distributed")),
    "RebalanceConfig.saturation_queue": (
        REBALANCED, _rebalance(saturation_queue=8)),
    "RebalanceConfig.max_moves": (REBALANCED, _rebalance(max_moves=0)),
    "RebalanceConfig.peer_rate": (REBALANCED, _rebalance(peer_rate=0.25)),
    "RetryPolicy.timeout": (RETRIED, _retry(timeout=1.5)),
    "RetryPolicy.backoff": (RETRIED, _retry(backoff=1.0)),
    "RetryPolicy.max_attempts": (RETRIED, _retry(max_attempts=6)),
}

#: "Class.setting" -> why its probe pair leaves the run unchanged
INERT: dict[str, str] = {}

#: Constructor arguments outside the probe: what a run is, not a knob.
NOT_SETTINGS = {
    "CooperativePolicy.cache_bandwidth": "the aggregate link profile",
    "CooperativePolicy.source_bandwidths": "the per-source link profiles",
}

CLASSES = (CooperativePolicy, CompetitivePolicy, TopologyConfig,
           RebalanceConfig, RetryPolicy)


def _settings(cls) -> list[str]:
    return [f"{cls.__name__}.{name}"
            for name, p in inspect.signature(cls).parameters.items()
            if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]


def test_every_setting_is_probed():
    settings = [s for cls in CLASSES for s in _settings(cls)]
    unprobed = [s for s in settings
                if s not in PROBES and s not in NOT_SETTINGS]
    assert not unprobed, f"settings without a probe: {unprobed}"
    stale = [s for s in [*PROBES, *NOT_SETTINGS] if s not in settings]
    assert not stale, f"probes of settings that no longer exist: {stale}"


def test_every_setting_changes_the_run_or_is_inert():
    problems = []
    for setting, (base, changed) in PROBES.items():
        try:
            moved = outcome(base) != outcome(changed)
        except Exception as exc:  # noqa: BLE001 - reported with the rest
            problems.append(f"{setting}: {type(exc).__name__}: {exc}")
            continue
        if not moved and setting not in INERT:
            problems.append(f"{setting}: silent (the result is unchanged)")
        elif moved and setting in INERT:
            problems.append(f"{setting}: listed inert but changes the run")
    assert not problems, "\n".join(problems)


def test_probe_bases_exercise_their_feature():
    """Each base runs the machinery its settings steer."""
    assert outcome(REBALANCED).migrations > 0
    assert outcome(RETRIED).retransmitted > 0
    assert outcome(RETRIED).dropped > 0
    assert outcome(HOT).queued_peak >= RebalanceConfig().saturation_queue


# ----------------------------------------------------------------------
# Matrix Params: the readmodel matrix (E10)
# ----------------------------------------------------------------------
#: a tiny replicated base whose links queue, so cache count and bandwidth
#: reach the reads: three rows (any, quorum-2, freshest)
READMODEL_BASE = {"num-caches": "2", "replication": "2", "sources": "2",
                  "objects": "2", "cache-bandwidths": "4",
                  "source-bandwidth": "1", "warmup": "10", "measure": "30"}
#: Param key -> one other valid value
READMODEL_PROBES = {
    "num-caches": "3",
    "replication": "1",
    "cache-bandwidths": "6",
    "read-rate": "2",
    "sources": "3",
    "objects": "3",
    "source-bandwidth": "2",
    "delivery": "multicast",
    "warmup": "5",
    "measure": "40",
    "seed": "1",
}
#: Param key -> why its probe leaves every row unchanged
READMODEL_INERT: dict[str, str] = {}


@functools.lru_cache(maxsize=None)
def matrix_rows(name: str, settings: tuple) -> str:
    """Every row's measurements of matrix ``name``, without the settings
    themselves (repr, so a NaN compares equal to itself)."""
    matrix = MATRICES[name]
    params = matrix.parse([f"{key}={value}" for key, value in settings])
    return repr([run_scenario(scenario)
                 for _, _, scenario in matrix.cells(params)])


def _rows(matrix, base: dict, **changes) -> str:
    return matrix_rows(matrix.name,
                       tuple(sorted({**base, **changes}.items())))


def param_problems(matrix, base: dict, probes: dict,
                   inert: dict) -> list[str]:
    """Each probe that is silent and not on ``inert``, moves a row while
    on it, or fails, as one line."""
    base_rows = _rows(matrix, base)
    problems = []
    for key, value in probes.items():
        try:
            moved = _rows(matrix, base, **{key: value}) != base_rows
        except Exception as exc:  # noqa: BLE001 - reported with the rest
            problems.append(f"{matrix.name} {key}={value}: "
                            f"{type(exc).__name__}: {exc}")
            continue
        if not moved and key not in inert:
            problems.append(f"{matrix.name} {key}={value}: silent "
                            f"(every row is unchanged)")
        elif moved and key in inert:
            problems.append(f"{matrix.name} {key}={value}: listed inert "
                            f"but changes a row")
    return problems


def test_every_readmodel_param_is_probed():
    keys = [param.key for param in READMODEL.params]
    assert sorted(READMODEL_PROBES) == sorted(keys)
    assert _rows(READMODEL, READMODEL_BASE).count("'read_divergence'") == 3


def test_every_readmodel_param_changes_a_row_or_is_inert():
    problems = param_problems(READMODEL, READMODEL_BASE, READMODEL_PROBES,
                              READMODEL_INERT)
    assert not problems, "\n".join(problems)


# ----------------------------------------------------------------------
# Matrix Params: the scale matrix (E9)
# ----------------------------------------------------------------------
#: one row of 200 sparse sources on a star (~0.05 s a run)
SCALE_BASE = {"sources": "200"}
#: Param key -> one other valid value
SCALE_PROBES = {
    "sources": "300",
    "update-rate": "0.004",
    "cache-bandwidth": "4",
    # A sparse source sends far below 1/s, so only a link slower than
    # its refresh bursts binds (0.5 leaves the row unchanged).
    "source-bandwidth": "0.2",
    "shard-caches": "2",
    "warmup": "50",
    "measure": "400",
    "seed": "1",
}
#: Param key -> why its probe leaves the row unchanged
SCALE_INERT: dict[str, str] = {}


def test_every_scale_param_is_probed():
    keys = [param.key for param in SCALE.params]
    assert sorted(SCALE_PROBES) == sorted(keys)
    assert _rows(SCALE, SCALE_BASE).count("'divergence'") == 1


def test_every_scale_param_changes_a_row_or_is_inert():
    problems = param_problems(SCALE, SCALE_BASE, SCALE_PROBES, SCALE_INERT)
    assert not problems, "\n".join(problems)


# ----------------------------------------------------------------------
# Matrix Params: the multicache matrix (E8)
# ----------------------------------------------------------------------
#: one replicated row of three caches whose links queue, so the layout,
#: replication and delivery keys reach the run (cooperative and uniform)
MULTICACHE_BASE = {"num-caches": "3", "topology": "replicated",
                   "replication": "2", "sources": "3", "objects": "2",
                   "cache-bandwidth": "6", "source-bandwidth": "1",
                   "warmup": "10", "measure": "30"}
#: Param key -> one other valid value
MULTICACHE_PROBES = {
    "num-caches": "2",
    "topology": "sharded",
    "replication": "3",
    "sources": "4",
    "objects": "3",
    "cache-bandwidth": "9",
    "source-bandwidth": "2",
    "hot-fraction": "0.5",
    "hot-boost": "2",
    "cache-rates": "4,2,1",
    "delivery": "multicast",
    "warmup": "5",
    "measure": "40",
    "seed": "1",
}
#: Param key -> why its probe leaves every row unchanged
MULTICACHE_INERT: dict[str, str] = {}


def test_every_multicache_param_is_probed():
    keys = [param.key for param in MULTICACHE.params]
    assert sorted(MULTICACHE_PROBES) == sorted(keys)
    assert _rows(MULTICACHE, MULTICACHE_BASE).count("'divergence'") == 2


def test_every_multicache_param_changes_a_row_or_is_inert():
    problems = param_problems(MULTICACHE, MULTICACHE_BASE,
                              MULTICACHE_PROBES, MULTICACHE_INERT)
    assert not problems, "\n".join(problems)


# ----------------------------------------------------------------------
# Matrix Params: the faults matrix (E12)
# ----------------------------------------------------------------------
#: a lossy row (the five policies plus the retry arm) and a blackout row
#: (plus the TTL arm) on a star whose links queue; at a roomier base (2
#: objects a source, rate cap 0.1, cache 4/s) source-bandwidth,
#: retry-backoff and feedback-ttl were silent
FAULTS_BASE = {"scenarios": "lossy-10,feedback-blackout",
               "topologies": "star", "sources": "4", "objects": "4",
               "rate-cap": "1", "cache-bandwidth": "3",
               "source-bandwidth": "1", "warmup": "10", "measure": "40"}
#: Param key -> one other valid value
FAULTS_PROBES = {
    "scenarios": "lossy-1,feedback-blackout",
    "topologies": "sharded-4",
    "sources": "5",
    "objects": "3",
    "cache-bandwidth": "6",
    "source-bandwidth": "2",
    "rate-cap": "0.5",
    "retry-timeout": "1.5",
    "retry-backoff": "1",
    "retry-attempts": "1",
    "feedback-ttl": "5",
    "warmup": "5",
    "measure": "50",
    "seed": "1",
}
#: Param key -> why its probe leaves every row unchanged
FAULTS_INERT: dict[str, str] = {}


def test_every_faults_param_is_probed():
    keys = [param.key for param in FAULTS.params]
    assert sorted(FAULTS_PROBES) == sorted(keys)
    assert _rows(FAULTS, FAULTS_BASE).count("'divergence'") == 12


def test_every_faults_param_changes_a_row_or_is_inert():
    problems = param_problems(FAULTS, FAULTS_BASE, FAULTS_PROBES,
                              FAULTS_INERT)
    assert not problems, "\n".join(problems)


# ----------------------------------------------------------------------
# Matrix Params: the Secs 7-10 analyses (X1-X6)
# ----------------------------------------------------------------------
#: matrix -> (a tiny base, Param key -> one other valid value).  Each
#: base is one row (two arms for poisson) on a link its workload
#: saturates, so the bandwidth keys reach the run.
X_PROBES = {
    "psi": ({"psis": "0.5", "options": "equal", "sources": "2",
             "objects": "4", "cache-bandwidth": "4", "warmup": "10",
             "measure": "40"},
            {"psis": "0.25", "options": "contribution", "sources": "3",
             "objects": "5", "cache-bandwidth": "6", "warmup": "5",
             "measure": "50", "seed": "1"}),
    "sampling": ({"intervals": "5", "warmup": "10", "measure": "40"},
                 {"intervals": "10", "warmup": "5", "measure": "50",
                  "seed": "1"}),
    "bounding": ({"objects": "5", "warmup": "10", "measure": "40"},
                 {"cache-bandwidth": "2", "objects": "6", "warmup": "5",
                  "measure": "50", "seed": "1"}),
    "poisson": ({"metrics": "staleness", "seeds": "0", "objects": "10",
                 "cache-bandwidth": "3", "warmup": "10", "measure": "40"},
                {"metrics": "lag", "seeds": "1", "objects": "12",
                 "cache-bandwidth": "5", "warmup": "5", "measure": "50"}),
    "batching": ({"batch-sizes": "2", "warmup": "10", "measure": "40"},
                 {"batch-sizes": "4", "warmup": "5", "measure": "50",
                  "seed": "1"}),
    "rates": ({"horizons": "2", "warmup": "10", "measure": "40"},
              {"horizons": "10", "warmup": "5", "measure": "50",
               "seed": "0"}),
}
#: matrix -> Param key -> why its probe leaves every row unchanged
X_INERT: dict[str, dict[str, str]] = {}


@pytest.mark.parametrize("name", list(X_PROBES))
def test_every_x_param_is_probed(name):
    keys = [param.key for param in MATRICES[name].params]
    assert sorted(X_PROBES[name][1]) == sorted(keys)


@pytest.mark.parametrize("name", list(X_PROBES))
def test_every_x_param_changes_a_row_or_is_inert(name):
    base, probes = X_PROBES[name]
    problems = param_problems(MATRICES[name], base, probes,
                              X_INERT.get(name, {}))
    assert not problems, "\n".join(problems)


# ----------------------------------------------------------------------
# Matrix Params: overhead (X7), netcond (E11), rebalance (E13) and
# multicast (E14)
# ----------------------------------------------------------------------
#: matrix -> (a tiny base, Param key -> one other valid value, rows x
#: arms of the base).  netcond and multicast run the uniform and
#: competitive policies on every row, so their probes also reach the
#: paced senders; the rebalance base saturates a sharded-4 edge, so the
#: rebalancer's keys reach its migrations.
E_PROBES = {
    "overhead": ({"sources": "5", "objects": "2", "warmup": "10",
                  "measure": "40"},
                 {"sources": "6", "objects": "3", "warmup": "5",
                  "measure": "50", "seed": "1"}, 1),
    "netcond": ({"scenarios": "outage", "topologies": "star",
                 "sources": "4", "objects": "2", "cache-bandwidth": "4",
                 "source-bandwidth": "1", "warmup": "10", "measure": "40"},
                {"scenarios": "bursty", "topologies": "sharded-4",
                 "sources": "5", "objects": "3", "cache-bandwidth": "6",
                 "source-bandwidth": "2", "warmup": "5", "measure": "50",
                 "seed": "1"}, 5),
    "rebalance": ({"num-caches": "4", "sources": "8", "objects": "4",
                   "cache-bandwidth": "10", "source-bandwidth": "1.5",
                   "warmup": "20", "measure": "80"},
                  {"num-caches": "2", "sources": "9", "objects": "3",
                   "cache-bandwidth": "14", "source-bandwidth": "1",
                   "phases": "2", "hot-boost": "10",
                   "rate-range": "0.05,0.2", "interval": "30",
                   "max-moves": "1", "saturation-queue": "8",
                   "peer-rate": "0.25", "warmup": "10", "measure": "100",
                   "seed": "1"}, 4),
    "multicast": ({"replications": "2", "deliveries": "multicast",
                   "num-caches": "3", "sources": "4", "objects": "2",
                   "cache-bandwidth": "4", "source-bandwidth": "1",
                   "warmup": "10", "measure": "40"},
                  {"replications": "3", "deliveries": "unicast",
                   "num-caches": "4", "sources": "5", "objects": "3",
                   "cache-bandwidth": "6", "source-bandwidth": "2",
                   "warmup": "5", "measure": "50", "seed": "1"}, 5),
}
#: matrix -> Param key -> why its probe leaves every row unchanged
E_INERT: dict[str, dict[str, str]] = {}


@pytest.mark.parametrize("name", list(E_PROBES))
def test_every_e_param_is_probed(name):
    base, probes, runs = E_PROBES[name]
    matrix = MATRICES[name]
    assert sorted(probes) == sorted(param.key for param in matrix.params)
    assert _rows(matrix, base).count("'divergence'") == runs


def test_rebalance_probe_base_migrates():
    base = E_PROBES["rebalance"][0]
    rows = run_matrix(REBALANCE, REBALANCE.parse(
        [f"{key}={value}" for key, value in base.items()]))
    assert all(row[arm]["migrations"] > 0 for row in rows
               for arm in ("adaptive", "distributed"))


@pytest.mark.parametrize("name", list(E_PROBES))
def test_every_e_param_changes_a_row_or_is_inert(name):
    base, probes, _ = E_PROBES[name]
    problems = param_problems(MATRICES[name], base, probes,
                              E_INERT.get(name, {}))
    assert not problems, "\n".join(problems)
