"""Every setting either changes the run or is on the inert list.

A sensitivity probe: for each setting of :class:`CooperativePolicy`,
:class:`CompetitivePolicy`, :class:`TopologyConfig`,
:class:`RebalanceConfig` and :class:`RetryPolicy`, one tiny seeded run at
a base where the setting can matter and one at another valid value.  The
two :class:`~repro.metrics.report.RunResult` objects must differ, or the
pair must sit on :data:`INERT` with the reason it cannot move the run.
Every silent (or failing) pair is reported in one pass, the way a
parameter sweep logs its failed runs and goes on, so one run of the
test names them all.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect

import numpy as np

from repro.core.divergence import ValueDeviation
from repro.core.priority import AreaPriority, SimpleDivergencePriority
from repro.core.weights import StaticWeights
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
