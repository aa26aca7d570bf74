"""The scenario matrix: pins, verdicts, workers, the ``repro matrix`` CLI.

* **Exact-float pins.**  ``PINS`` holds, per registered matrix at a tiny
  size, the divergence of every (row, arm) -- ``repr``-exact floats
  captured from the per-experiment harnesses this module replaced.
  ``tests/golden/matrix_<name>.txt`` holds the same harnesses' CLI text
  at that size, byte for byte, followed by the matrix's verdict lines.
* **Verdict table.**  ``VERDICT_CASES`` drives every verdict predicate
  through its pass, fail, vacuous and tolerance cases on hand-built rows.
* **Workers.**  A pool run folds into the same rows as the serial run.
* **Boundary validation.**  Bad configuration is a one-line usage error
  (exit 2) raised before any scenario runs.
"""

from pathlib import Path

import pytest

from repro.analysis.equilibrium import equilibrium_overhead_fraction
from repro.cli import main
from repro.experiments import matrix as matrix_module
from repro.experiments.matrix import (
    FAULTS,
    MATRICES,
    NETCOND,
    POLICIES,
    READMODEL,
    REBALANCE,
    Scenario,
    adaptive_beats_static,
    adaptive_migrates,
    batching_amortizes,
    batching_delays,
    blackout_graceful,
    bound_above_optimum,
    bound_near_optimum,
    bound_priority_minimizes,
    cgm1_at_most_cgm2,
    contribution_piggybacks,
    contribution_serves_sources,
    controls_invariant,
    cooperative_beats_uniform,
    dense_beats_sparse,
    dense_near_exact,
    empty_plan_is_baseline,
    freshest_equals_full_quorum,
    graceful_degradation,
    ideal_cache_beats_cgm1,
    ideal_falls_with_bandwidth,
    ideal_leads_ours,
    inert_matches_static,
    long_horizon_near_oracle,
    loss_monotone,
    make_policy,
    multicast_dominates,
    neighbour_setting_near_best,
    ours_beats_cgm1,
    ours_follows_ideal,
    outage_degrades,
    overhead_flat,
    overhead_low,
    overhead_near_equilibrium,
    own_sends_rise_with_psi,
    paper_setting_near_best,
    priorities_agree,
    psi_serves_sources,
    quorum_monotone,
    refreshes_conserved,
    retry_recovers,
    run_matrix,
    run_scenario,
    skew_penalizes_deviation,
    skew_penalizes_lag,
    special_cases_hold,
    steady_matches_constant,
    tracks_ideal,
    unicast_tie_at_r1,
)
from repro.core.priority import AreaPriority
from repro.core.weights import StaticWeights
from repro.experiments.parallel import WorkloadSpec
from repro.network.bandwidth import ConstantBandwidth
from repro.source.rates import EstimatedRatePriority
from repro.workloads.synthetic import uniform_random_walk

GOLDEN = Path(__file__).parent / "golden"

#: Tiny settings per matrix; the pins and golden texts were captured at
#: exactly these sizes.
TINY = {
    "e1": "objects=40 warmup=20 measure=100 seed=3",
    "e2": "warmup=20 measure=80",
    "e3": "alphas=1.1,1.5 omegas=5,10 sources=4 objects=20 warmup=20 "
          "measure=100",
    "fig4": "sources=2 objects=5 cache-bandwidths=3,6 warmup=20 measure=60",
    "fig5": "bandwidths=2,10 link=fluctuating days=0.5 warmup-days=0.1",
    "fig6": "sources=2 objects=5 fractions=0.3,0.7 warmup=30 measure=120 "
            "seed=3",
    "overhead": "sources=3,5 objects=4 warmup=30 measure=120",
    # 1.0 and 1.5 own messages a tick per source at psi 0.5 and 0.75
    "psi": "psis=0,0.5,0.75 sources=2 objects=10 cache-bandwidth=4 "
           "warmup=20 measure=100",
    "sampling": "intervals=2,10 warmup=20 measure=80",
    "bounding": "objects=10 warmup=20 measure=100",
    "poisson": "seeds=0,1 objects=20 warmup=20 measure=100",
    "batching": "batch-sizes=1,4,8 warmup=30 measure=90",
    "rates": "horizons=2,50 warmup=30 measure=90",
    "netcond": "scenarios=steady,outage topologies=star sources=4 "
               "objects=2 cache-bandwidth=6 source-bandwidth=1.5 "
               "warmup=20 measure=60",
    "faults": "scenarios=none,lossy-10,feedback-blackout topologies=star "
              "sources=4 objects=2 cache-bandwidth=4 source-bandwidth=1 "
              "warmup=20 measure=60",
    "rebalance": "num-caches=1,2 sources=8 objects=4 cache-bandwidth=12 "
                 "phases=2 warmup=30 measure=90 seed=1",
    "multicast": "replications=1,2 sources=4 objects=3 cache-bandwidth=8 "
                 "warmup=20 measure=60",
    "multicache": "num-caches=1,2 sources=8 objects=4 warmup=50 "
                  "measure=100",
    "readmodel": "num-caches=2 replication=1,2 cache-bandwidths=6 "
                 "sources=6 objects=2 warmup=50 measure=100",
    "scale": "sources=50,400 update-rate=0.01 cache-bandwidth=2 warmup=20 "
             "measure=100",
}

#: (row axis values) -> arm -> weighted divergence (Figures 5 and 6 plot
#: the unweighted one); matrices without arms (e3, overhead, the X1-X3
#: and X5-X6 analyses, readmodel, scale) pin their record fields instead.
#: The X pins at default size are the values the benches these matrices
#: replaced computed; these tiny ones were captured from the matrices.
PINS = {
    "e1": {
        (40, "staleness"): {"ours": 0.4925,
                            "simple": 0.4885},
        (40, "lag"): {"ours": 0.875,
                      "simple": 0.8800000000000001},
        (40, "deviation"): {"ours": 0.56875,
                            "simple": 0.5247499999999999},
    },
    "e2": {
        ("staleness",): {"ours": 2.4619999999999997,
                         "simple": 2.5435},
        ("lag",): {"ours": 7.6575,
                   "simple": 9.648375},
        ("deviation",): {"ours": 3.302625,
                         "simple": 3.5552499999999996},
    },
    "e3": {
        (1.1, 5.0): {"divergence": 0.5193637998173763},
        (1.1, 10.0): {"divergence": 0.6138179665468474},
        (1.5, 5.0): {"divergence": 0.5078001559418169},
        (1.5, 10.0): {"divergence": 0.42825850751408623},
    },
    "fig4": {
        (2, 5, 10.0, 3.0, 0.0, "deviation"): {"ideal": 0.20591198712531084,
                                              "ours": 0.987451560372499},
        (2, 5, 10.0, 3.0, 0.0, "lag"): {"ideal": 0.3572492831862233,
                                        "ours": 1.7312109361328791},
        (2, 5, 10.0, 3.0, 0.0, "staleness"): {"ideal": 0.14546973573093588,
                                              "ours": 0.6632072332958276},
        (2, 5, 10.0, 3.0, 0.25, "deviation"): {"ideal": 0.20279225938163864,
                                               "ours": 0.585847877257652},
        (2, 5, 10.0, 3.0, 0.25, "lag"): {"ideal": 0.3020241697432646,
                                         "ours": 1.2351428698709888},
        (2, 5, 10.0, 3.0, 0.25, "staleness"): {"ideal": 0.14849630297336386,
                                               "ours": 0.5629557972857187},
        (2, 5, 10.0, 6.0, 0.0, "deviation"): {"ideal": 0.006135452047318255,
                                              "ours": 0.0349600130886038},
        (2, 5, 10.0, 6.0, 0.0, "lag"): {"ideal": 0.006470694766218828,
                                        "ours": 0.04132197658300924},
        (2, 5, 10.0, 6.0, 0.0, "staleness"): {"ideal": 0.005791238329135227,
                                              "ours": 0.03198064898830559},
        (2, 5, 10.0, 6.0, 0.25, "deviation"): {"ideal": 0.0066076829789578195,
                                               "ours": 0.05326377950915233},
        (2, 5, 10.0, 6.0, 0.25, "lag"): {"ideal": 0.007888869740555356,
                                         "ours": 0.0704297388699904},
        (2, 5, 10.0, 6.0, 0.25, "staleness"): {"ideal": 0.0059246910867115435,
                                               "ours": 0.05501360115782099},
    },
    "fig5": {
        (2.0,): {"ideal": 0.4674012313528923,
                 "ours": 1.760106979420618},
        (10.0,): {"ideal": 0.09642128880897088,
                  "ours": 0.11556508428351882},
    },
    "fig6": {
        (0.3,): {"ideal-cooperative": 0.0789407159217944,
                 "our-algorithm": 0.4273599097265051,
                 "ideal-cache-based": 0.3167652433127126,
                 "cgm1": 0.4911644760906285,
                 "cgm2": 0.4436018567652889},
        (0.7,): {"ideal-cooperative": 0.0,
                 "our-algorithm": 0.0,
                 "ideal-cache-based": 0.23447144008889143,
                 "cgm1": 0.34474639803348095,
                 "cgm2": 0.34949529444790994},
    },
    "overhead": {
        (3,): {"overhead": 0.044444444444444446,
               "unweighted": 0.39451544524748616,
               "feedback": 30,
               "refreshes": 645},
        (5,): {"overhead": 0.041740674955595025,
               "unweighted": 0.3755650236475897,
               "feedback": 47,
               "refreshes": 1078},
    },
    "psi": {
        ("equal", 0.0): {"divergence": 3.8479925589931043,
                         "source_divergence": 6.445660919763074,
                         "own_refreshes": 0},
        ("equal", 0.5): {"divergence": 3.8321140980990442,
                         "source_divergence": 5.405479729865224,
                         "own_refreshes": 226},
        ("equal", 0.75): {"divergence": 4.701433904220279,
                          "source_divergence": 4.820989660741607,
                          "own_refreshes": 285},
        ("contribution", 0.0): {"divergence": 3.8479925589931043,
                                "source_divergence": 6.445660919763074,
                                "own_refreshes": 0},
        ("contribution", 0.5): {"divergence": 4.068863145156613,
                                "source_divergence": 5.006087014293511,
                                "own_refreshes": 177},
        ("contribution", 0.75): {"divergence": 4.201224517029742,
                                 "source_divergence": 5.253015269544295,
                                 "own_refreshes": 192},
    },
    "sampling": {
        (("trigger", None),): {"unweighted": 0.4582566121208595,
                               "samples": 0},
        (("sampling", 2.0),): {"unweighted": 0.44474265550364417,
                               "samples": 1989},
        (("predictive", 2.0),): {"unweighted": 0.43028674615180595,
                                 "samples": 2047},
        (("sampling", 10.0),): {"unweighted": 0.9303432904421459,
                                "samples": 400},
        (("predictive", 10.0),): {"unweighted": 0.9301335996261381,
                                  "samples": 407},
    },
    "bounding": {
        ("bound",): {"bound": 0.8142829620938754,
                     "unweighted": 0.37717166430839194},
        ("area",): {"bound": 1.2716269636244444,
                    "unweighted": 0.08659545772723352},
    },
    "poisson": {
        ("staleness", 0): {"special": 0.00936112254472338,
                           "general": 0.012986551308052222},
        ("staleness", 1): {"special": 0.00170465821955651,
                           "general": 0.0018957312722251308},
        ("lag", 0): {"special": 0.01721692385056953,
                     "general": 0.024259275242474145},
        ("lag", 1): {"special": 0.0023955256776506105,
                     "general": 0.0026196012237006024},
    },
    "batching": {
        ("scarce", 1): {"unweighted": 0.7841037231663309, "messages": 490},
        ("scarce", 4): {"unweighted": 0.5670024066542451, "messages": 480},
        ("scarce", 8): {"unweighted": 0.3528766560696939, "messages": 307},
        ("abundant", 1): {"unweighted": 0.0, "messages": 3484},
        ("abundant", 4): {"unweighted": 0.1522321865453079,
                          "messages": 771},
        ("abundant", 8): {"unweighted": 0.3528766560696939,
                          "messages": 331},
    },
    "rates": {
        (None,): {"unweighted": 0.3757961874238742},
        (2.0,): {"unweighted": 0.4074868287942799},
        (50.0,): {"unweighted": 0.43938940010024846},
    },
    "netcond": {
        ("steady", "star"): {"cooperative": 0.07331317362900115,
                             "uniform": 0.32027754395076363,
                             "competitive": 0.07331317362900115,
                             "cgm": 0.47669382767497903,
                             "ideal": 0.0851195468558015,
                             "control": 0.07331317362900115},
        ("outage", "star"): {"cooperative": 0.379911238755333,
                             "uniform": 0.6242717824838029,
                             "competitive": 0.379911238755333,
                             "cgm": 0.9308785253830478,
                             "ideal": 0.3152057040472168},
    },
    "faults": {
        ("none", "star"): {"cooperative": 0.0,
                           "uniform": 0.04135088341085177,
                           "competitive": 0.0,
                           "cgm": 0.10176755007751842,
                           "ideal": 0.0,
                           "empty-cooperative": 0.0,
                           "empty-uniform": 0.04135088341085177,
                           "empty-competitive": 0.0,
                           "empty-cgm": 0.10176755007751842,
                           "empty-ideal": 0.0,
                           "ttl": 0.0},
        ("lossy-10", "star"): {"cooperative": 0.08555679266410159,
                               "uniform": 0.053850883410851764,
                               "competitive": 0.08555679266410159,
                               "cgm": 0.14760088341085176,
                               "ideal": 0.0,
                               "retry": 0.012500000000000015},
        ("feedback-blackout", "star"): {"cooperative": 0.0,
                                        "uniform": 0.04135088341085177,
                                        "competitive": 0.0,
                                        "cgm": 0.21472576974283125,
                                        "ideal": 0.0,
                                        "ttl": 0.0},
    },
    "rebalance": {
        (1,): {"static": 0.10041188502584883,
               "inert": 0.10041188502584883,
               "adaptive": 0.10041188502584883,
               "distributed": 0.10041188502584883},
        (2,): {"static": 0.2971812892159869,
               "inert": 0.2971812892159869,
               "adaptive": 0.34035543658418393,
               "distributed": 0.31831959888165035},
    },
    "multicast": {
        (1, "unicast"): {"cooperative": 0.30630348371193233,
                         "uniform": 0.341069598111539,
                         "competitive": 0.3053322063034326,
                         "cgm": 0.4939805216452097,
                         "ideal": 0.03467493377551098},
        (1, "multicast"): {"cooperative": 0.30630348371193233,
                           "uniform": 0.341069598111539,
                           "competitive": 0.3053322063034326,
                           "cgm": 0.4939805216452097,
                           "ideal": 0.03467493377551098},
        (2, "unicast"): {"cooperative": 0.7699077284804052,
                         "uniform": 2.8188297289345563,
                         "competitive": 0.875238149160042,
                         "cgm": 0.4939805216452097,
                         "ideal": 0.03467493377551098},
        (2, "multicast"): {"cooperative": 0.1149314572018706,
                           "uniform": 0.341069598111539,
                           "competitive": 0.1139601797933709,
                           "cgm": 0.4939805216452097,
                           "ideal": 0.03467493377551098},
    },
    "multicache": {
        (1,): {"cooperative": 0.21422465651151978,
               "uniform": 0.5117090499286393},
        (2,): {"cooperative": 0.2416619234847223,
               "uniform": 0.5117090499286393},
    },
    "readmodel": {
        (6.0, 1, "any"): {"divergence": 0.5937129538986209,
                          "read_divergence": 0.5821596244131455,
                          "replica_divergence": 0.5937129538986209},
        (6.0, 1, "freshest"): {"divergence": 0.5937129538986209,
                               "read_divergence": 0.5821596244131455,
                               "replica_divergence": 0.5937129538986209},
        (6.0, 2, "any"): {"divergence": 1.0100074402112977,
                          "read_divergence": 0.9937402190923318,
                          "replica_divergence": 1.0167168610736532},
        (6.0, 2, "quorum-2"): {"divergence": 1.0100074402112977,
                               "read_divergence": 0.9780907668231612,
                               "replica_divergence": 1.0167168610736532},
        (6.0, 2, "freshest"): {"divergence": 1.0100074402112977,
                               "read_divergence": 0.9780907668231612,
                               "replica_divergence": 1.0167168610736532},
    },
    # divergence, refreshes and feedback as the E9 harness this matrix
    # replaced computed them
    "scale": {
        (50,): {"divergence": 0.02888657760578641, "refreshes": 75,
                "feedback": 165, "sent": 75, "queued": 0},
        (400,): {"divergence": 0.2928933609581074, "refreshes": 238,
                 "feedback": 2, "sent": 471, "queued": 233},
    },
}

_tiny_runs: dict = {}


def tiny(name: str, workers: int = 1):
    """``(params, rows)`` of one matrix at its tiny size (serial runs are
    memoized across tests)."""
    matrix = MATRICES[name]
    params = matrix.parse(TINY[name].split())
    if workers > 1:
        return params, run_matrix(matrix, params, workers=workers)
    if name not in _tiny_runs:
        _tiny_runs[name] = params, run_matrix(matrix, params)
    return _tiny_runs[name]


#: the record field an arm's pin holds, where it is not "divergence"
PINNED_FIELD = {"fig5": "unweighted", "fig6": "unweighted"}


def observed(name: str, rows: list[dict]) -> dict:
    """The pinned floats of ``rows``, in ``PINS`` layout."""
    matrix = MATRICES[name]
    field = PINNED_FIELD.get(name, "divergence")
    out = {}
    for row in rows:
        key = tuple(row[axis] for axis in matrix.axes)
        if matrix.arms:
            out[key] = {arm: row[arm][field]
                        for arm in matrix.arms if arm in row}
        else:
            out[key] = {field: row[field] for field in PINS[name][key]}
    return out


class TestTinyPins:
    @pytest.mark.parametrize("name", list(TINY))
    def test_exact_floats(self, name):
        _, rows = tiny(name)
        assert observed(name, rows) == PINS[name]

    @pytest.mark.parametrize("name", list(TINY))
    def test_text_matches_golden(self, name):
        params, rows = tiny(name)
        expected = (GOLDEN / f"matrix_{name}.txt").read_text()
        assert MATRICES[name].render(params, rows) + "\n" == expected

    def test_registry_order(self):
        assert list(MATRICES) == ["e1", "e2", "e3", "fig4", "fig5", "fig6",
                                  "overhead", "psi", "sampling",
                                  "bounding", "poisson", "batching",
                                  "rates", "netcond", "faults",
                                  "rebalance", "multicast", "multicache",
                                  "readmodel", "scale"]


class TestWorkers:
    # psi: every scenario carries a weight model in its policy kwargs
    @pytest.mark.parametrize("name", ["faults", "readmodel", "fig6", "psi"])
    def test_pool_rows_equal_serial_rows(self, name):
        assert tiny(name, workers=2)[1] == tiny(name)[1]


class TestScenario:
    def test_record_fields(self):
        scenario = Scenario(
            workload=WorkloadSpec.make(uniform_random_walk, 0,
                                       num_sources=3, objects_per_source=2,
                                       horizon=40.0),
            policy="cooperative", cache_bandwidth=4.0,
            source_bandwidth=1.0, warmup=10.0, measure=30.0)
        record = run_scenario(scenario)
        assert set(record) == {"divergence", "unweighted", "num_objects",
                               "refreshes", "messages", "feedback",
                               "overhead", "units", "dropped",
                               "retransmitted", "duplicates", "migrations",
                               "queue_peak", "sent", "queued", "samples",
                               "own_refreshes", "source_divergence",
                               "bound"}
        assert record["refreshes"] > 0 and record["units"] > 0
        assert record["sent"] == record["refreshes"] + record["queued"]

    def test_construction_validates_the_timing_window(self):
        with pytest.raises(ValueError, match="measure must be > 0"):
            Scenario(workload=WorkloadSpec.make(uniform_random_walk, 0),
                     policy="uniform", cache_bandwidth=1.0,
                     source_bandwidth=1.0, warmup=1.0, measure=0.0)

    @pytest.mark.parametrize("fields,message", [
        ({"priority": "fastest"}, "unknown priority function 'fastest'"),
        ({"rate_horizon": 0.5}, "horizon must be >= 1"),
        ({"bound_latency": 0.5}, "the bound meter needs the ideal"),
        ({"policy": "ideal", "bound_latency": -1.0},
         "bound_latency must be >= 0")])
    def test_construction_validates_the_run_fields(self, fields, message):
        with pytest.raises(ValueError, match=message):
            Scenario(**{**dict(workload=WorkloadSpec.make(
                uniform_random_walk, 0), policy="uniform",
                cache_bandwidth=1.0, source_bandwidth=1.0, warmup=1.0,
                measure=1.0), **fields})

    def test_priority_names(self):
        def priority(**fields):
            scenario = Scenario(
                workload=WorkloadSpec.make(uniform_random_walk, 0),
                policy="ideal", cache_bandwidth=1.0, source_bandwidth=None,
                warmup=1.0, measure=1.0, metric="staleness", **fields)
            return scenario.priority_fn(scenario.rates())
        assert priority().name == "poisson-staleness"
        # "area" is the general formula: the paper's priority without
        # rate knowledge
        assert type(priority(priority="area")) is AreaPriority
        estimated = priority(rate_horizon=10.0)
        assert isinstance(estimated, EstimatedRatePriority)
        assert estimated.inner.name == "poisson-staleness"

    @pytest.mark.parametrize("window,message", [
        ({"warmup": float("nan"), "measure": 1.0}, "warmup must be >= 0"),
        ({"warmup": 1.0, "measure": float("nan")}, "measure must be > 0")])
    def test_nan_fails_the_timing_window(self, window, message):
        with pytest.raises(ValueError, match=message):
            Scenario(workload=WorkloadSpec.make(uniform_random_walk, 0),
                     policy="uniform", cache_bandwidth=1.0,
                     source_bandwidth=1.0, **window)


class TestMakePolicy:
    def args(self):
        return ConstantBandwidth(4.0), [ConstantBandwidth(1.0)] * 3, 6

    def test_competitive_defaults(self):
        policy = make_policy("competitive", *self.args())
        assert policy.psi == 0.25
        assert policy.source_weights.values.tolist() == [1.0] * 6

    def test_competitive_takes_its_own_psi_and_weights(self):
        weights = StaticWeights.uniform(6, 2.0)
        policy = make_policy("competitive", *self.args(), psi=0.5,
                             source_weights=weights, option="contribution")
        assert (policy.psi, policy.option) == (0.5, "contribution")
        assert policy.source_weights is weights


# ----------------------------------------------------------------------
# Verdict table
# ----------------------------------------------------------------------
def arm(divergence, refreshes=10, **fields):
    return {"divergence": divergence, "refreshes": refreshes, **fields}


def net(scenario, coop=1.0, unif=1.0, control=None, topology="star"):
    row = {"scenarios": scenario, "topologies": topology,
           "cooperative": arm(coop), "uniform": arm(unif)}
    if control is not None:
        row["control"] = arm(control)
    return row


def fault(scenario, coop=0.1, uniform=0.2, retry=None, ttl=None,
          empty=None, topology="star"):
    row = {"scenarios": scenario, "topologies": topology,
           "cooperative": arm(coop, 100), "uniform": arm(uniform, 100)}
    for name, divergence in (empty or {}).items():
        row[f"empty-{name}"] = arm(divergence, 100)
    if retry is not None:
        row["retry"] = arm(retry)
    if ttl is not None:
        row["ttl"] = arm(ttl)
    return row


def caches(n, static=1.0, inert=1.0, adaptive=0.7, moves=3):
    return {"num-caches": n, "static": arm(static, 50, migrations=0),
            "inert": arm(inert, 50, migrations=0),
            "adaptive": arm(adaptive, 55, migrations=moves),
            "distributed": arm(0.8, 52, migrations=2)}


SINGLE = caches(1, 0.5, 0.5, 0.5, moves=0)


def sweep(n, cooperative=0.2, uniform=0.5):
    return {"num-caches": n, "cooperative": arm(cooperative),
            "uniform": arm(uniform)}


def plane(delivery, r, div=1.0, units=100.0, control=2.0):
    policies = {name: arm(div, units=units, messages=int(units))
                for name in ("cooperative", "uniform", "competitive")}
    policies.update({name: arm(control, units=units, messages=int(units))
                     for name in ("cgm", "ideal")})
    return {"deliveries": delivery, "replications": r, **policies}


def read(policy, divergence, r=2, reads=100, bandwidth=6.0):
    return {"cache-bandwidths": bandwidth, "replication": r,
            "read": policy, "read_divergence": divergence, "reads": reads}


def prio(metric, ours, simple):
    return {"metrics": metric, "ours": arm(ours), "simple": arm(simple)}


def grid(alpha, omega, normalized):
    return {"alphas": alpha, "omegas": omega, "normalized": normalized}


def point(metric, ideal, ours):
    return {"metrics": metric, "ideal": arm(ideal), "ours": arm(ours)}


def link(bandwidth, ideal, ours=0.0):
    return {"bandwidths": bandwidth, "ideal": {"unweighted": ideal},
            "ours": {"unweighted": ours}}


def curves(ideal=0.1, ours=0.2, cache=0.3, cgm1=0.5, cgm2=0.5):
    values = {"ideal-cooperative": ideal, "our-algorithm": ours,
              "ideal-cache-based": cache, "cgm1": cgm1, "cgm2": cgm2}
    return {"fractions": 0.5,
            **{name: {"unweighted": v} for name, v in values.items()}}


def share(sources, overhead):
    return {"sources": sources, "overhead": overhead}


def backlog(sent, delivered, queued):
    return {"sent": sent, "refreshes": delivered, "queued": queued}


def psi(option, value, source=1.0, own=0):
    return {"options": option, "psis": value, "source_divergence": source,
            "own_refreshes": own}


def monitor(kind, interval, deviation):
    return {"monitor": (kind, interval), "unweighted": deviation}


def scheduler(name, bound, optimum=1.0):
    return {"scheduler": name, "bound": bound, "optimum": optimum}


def seeded(metric, seed, special, general):
    return {"metrics": metric, "seeds": seed, "special": arm(special),
            "general": arm(general)}


def batch(regime, size, staleness):
    return {"regime": regime, "batch-sizes": size, "unweighted": staleness}


def estimate(horizon, staleness):
    return {"horizon": horizon, "unweighted": staleness}


PREDICTED = equilibrium_overhead_fraction()


def case(fn, rows, expected, name):
    return pytest.param(fn, rows, expected, id=f"{fn.__name__}-{name}")


VERDICT_CASES = [
    # E1/E2 validation
    case(priorities_agree, [prio("lag", 1.0, 1.2), prio("deviation", 1.0,
                                                        0.9)],
         True, "within"),
    case(priorities_agree, [prio("lag", 1.0, 1.25)], False, "edge-25"),
    case(priorities_agree, [prio("lag", 1.0, 0.7)], False, "strawman-wins"),
    case(priorities_agree, [prio("lag", 0.0, 0.5)], True, "zero-baseline"),
    case(priorities_agree, [], False, "vacuous"),
    case(skew_penalizes_lag, [prio("lag", 1.0, 1.5)], True, "penalized"),
    case(skew_penalizes_lag, [prio("lag", 1.0, 1.2)], False, "mild"),
    case(skew_penalizes_lag, [prio("deviation", 1.0, 1.5)], False,
         "vacuous"),
    case(skew_penalizes_deviation, [prio("deviation", 1.0, 1.2)], True,
         "penalized"),
    case(skew_penalizes_deviation, [prio("deviation", 1.0, 1.1)], False,
         "mild"),
    case(skew_penalizes_deviation, [prio("lag", 1.0, 1.5)], False,
         "vacuous"),
    # E3 threshold study
    case(paper_setting_near_best, [grid(1.1, 10.0, 1.29)], True, "near"),
    case(paper_setting_near_best, [grid(1.1, 10.0, 1.3)], False, "edge-1.3"),
    case(paper_setting_near_best, [grid(1.2, 20.0, 1.0)], False, "vacuous"),
    case(neighbour_setting_near_best, [grid(1.2, 20.0, 1.49)], True,
         "near"),
    case(neighbour_setting_near_best, [grid(1.2, 20.0, 1.5)], False,
         "edge-1.5"),
    case(neighbour_setting_near_best, [grid(1.1, 10.0, 1.0)], False,
         "vacuous"),
    # Figure 4: starved points are above a quarter of the panel maximum
    case(tracks_ideal, [point("lag", 1.0, 3.0), point("lag", 0.1, 9.0)],
         True, "unstarved-outlier-ignored"),
    case(tracks_ideal, [point("lag", 1.0, 4.0)], False, "ratio-4"),
    case(tracks_ideal, [point("lag", 1.0, 2.0), point("lag", 0.25, 1.25)],
         True, "quarter-excluded"),
    case(tracks_ideal, [point("lag", 1.0, 2.0), point("lag", 0.26, 1.3)],
         False, "above-quarter"),
    case(tracks_ideal, [point("lag", 1.0, 2.0),
                        point("staleness", 1.0, 5.0)], False,
         "one-panel-fails"),
    case(tracks_ideal, [point("lag", 0.0, 0.0)], False, "no-starved-points"),
    case(tracks_ideal, [], False, "vacuous"),
    # Figure 5
    case(ideal_falls_with_bandwidth, [link(1.0, 0.5), link(5.0, 0.2)],
         True, "falls"),
    case(ideal_falls_with_bandwidth, [link(1.0, 0.5), link(5.0, 0.5)],
         True, "flat"),
    case(ideal_falls_with_bandwidth, [link(1.0, 0.2), link(5.0, 0.3)],
         False, "rises"),
    case(ideal_falls_with_bandwidth, [link(5.0, 0.2), link(1.0, 0.5)],
         True, "sorted-by-bandwidth"),
    case(ideal_falls_with_bandwidth, [], False, "vacuous"),
    case(ours_follows_ideal, [link(1.0, 0.5, 1.1)], True, "close"),
    case(ours_follows_ideal, [link(1.0, 0.25, 0.65)], True,
         "edge-2x-plus-0.15"),
    case(ours_follows_ideal, [link(1.0, 0.5, 1.2)], False, "far"),
    case(ours_follows_ideal, [], False, "vacuous"),
    # Figure 6: the 1.10x + 0.01 tolerance is inclusive
    case(ideal_leads_ours, [curves()], True, "leads"),
    case(ideal_leads_ours, [curves(ideal=1.11, ours=1.0)], True,
         "edge-1.10x-plus-0.01"),
    case(ideal_leads_ours, [curves(ideal=1.2, ours=1.0)], False, "behind"),
    case(ideal_leads_ours, [], False, "vacuous"),
    case(ours_beats_cgm1, [curves()], True, "beats"),
    case(ours_beats_cgm1, [curves(ours=0.5)], False, "tie-loses"),
    case(ours_beats_cgm1, [], False, "vacuous"),
    case(ideal_cache_beats_cgm1, [curves()], True, "beats"),
    case(ideal_cache_beats_cgm1, [curves(cache=0.6)], False, "loses"),
    case(ideal_cache_beats_cgm1, [], False, "vacuous"),
    case(cgm1_at_most_cgm2, [curves()], True, "tie"),
    case(cgm1_at_most_cgm2, [curves(cgm1=1.11, cgm2=1.0)], True,
         "edge-1.10x-plus-0.01"),
    case(cgm1_at_most_cgm2, [curves(cgm1=1.2, cgm2=1.0)], False, "worse"),
    case(cgm1_at_most_cgm2, [], False, "vacuous"),
    # X7 overhead: the equilibrium band is open at both ends
    case(overhead_low, [share(5, 0.04), share(80, 0.05)], True, "low"),
    case(overhead_low, [share(5, 0.12)], False, "edge-0.12"),
    case(overhead_low, [], False, "vacuous"),
    case(overhead_flat, [share(5, 0.04), share(80, 0.11)], True, "flat"),
    case(overhead_flat, [share(5, 0.04), share(80, 0.12)], False,
         "edge-3x"),
    case(overhead_flat, [share(5, 0.001), share(80, 0.029)], True,
         "floor-0.01"),
    case(overhead_flat, [share(5, 0.01), share(80, 0.05)], False,
         "grows"),
    case(overhead_flat, [], False, "vacuous"),
    case(overhead_near_equilibrium, [share(5, PREDICTED)], True, "at"),
    case(overhead_near_equilibrium, [share(5, 0.2 * PREDICTED)], False,
         "edge-0.2x"),
    case(overhead_near_equilibrium, [share(5, 3.0 * PREDICTED)], False,
         "edge-3x"),
    case(overhead_near_equilibrium, [], False, "vacuous"),
    # X1 psi: the last row of an option against its first, in psi order
    case(psi_serves_sources, [psi("equal", 0.0, 5.0), psi("equal", 0.75, 4.0)],
         True, "serves"),
    case(psi_serves_sources, [psi("equal", 0.75, 4.0), psi("equal", 0.0, 5.0)],
         True, "sorted-by-psi"),
    case(psi_serves_sources, [psi("equal", 0.0, 5.0), psi("equal", 0.75, 5.0)],
         False, "tie-loses"),
    case(psi_serves_sources, [psi("contribution", 0.0, 5.0),
                              psi("contribution", 0.5, 4.0)], False,
         "other-option-vacuous"),
    case(own_sends_rise_with_psi, [psi("equal", 0.0), psi("equal", 0.5, own=9),
                                   psi("equal", 0.75, own=12)], True,
         "rises"),
    case(own_sends_rise_with_psi, [psi("equal", 0.0), psi("equal", 0.5, own=9),
                                   psi("equal", 0.75, own=9)], False,
         "flat-step"),
    case(own_sends_rise_with_psi, [psi("equal", 0.5, own=9)], False,
         "vacuous"),
    case(contribution_piggybacks, [psi("contribution", 0.0),
                                   psi("contribution", 0.5, own=3)], True,
         "piggybacks"),
    case(contribution_piggybacks, [psi("contribution", 0.0),
                                   psi("contribution", 0.5, own=0)], False,
         "none-sent"),
    case(contribution_piggybacks, [psi("contribution", 0.0)], False,
         "vacuous"),
    case(contribution_serves_sources, [psi("contribution", 0.0, 5.0),
                                       psi("contribution", 0.5, 4.0)], True,
         "serves"),
    case(contribution_serves_sources, [psi("contribution", 0.0, 5.0),
                                       psi("contribution", 0.5, 5.5)], False,
         "worse"),
    case(contribution_serves_sources, [psi("equal", 0.0, 5.0),
                                       psi("equal", 0.5, 4.0)], False,
         "other-option-vacuous"),
    # X2 sampling: the densest and sparsest plain sampling rows
    case(dense_beats_sparse, [monitor("sampling", 2.0, 0.4),
                              monitor("predictive", 30.0, 0.1),
                              monitor("sampling", 30.0, 1.7)], True,
         "predictive-ignored"),
    case(dense_beats_sparse, [monitor("sampling", 30.0, 1.0),
                              monitor("sampling", 2.0, 1.05)], True,
         "edge-1.05x"),
    case(dense_beats_sparse, [monitor("sampling", 2.0, 1.06),
                              monitor("sampling", 30.0, 1.0)], False,
         "dense-worse"),
    case(dense_beats_sparse, [monitor("sampling", 2.0, 0.4)], False,
         "vacuous"),
    case(dense_near_exact, [monitor("trigger", None, 0.5),
                            monitor("sampling", 2.0, 0.8),
                            monitor("sampling", 30.0, 0.1)], True,
         "edge-1.6x-densest"),
    case(dense_near_exact, [monitor("trigger", None, 0.5),
                            monitor("sampling", 2.0, 0.81)], False, "far"),
    case(dense_near_exact, [monitor("sampling", 2.0, 0.4)], False,
         "no-trigger-vacuous"),
    # X3 bounding
    case(bound_priority_minimizes, [scheduler("bound", 1.8),
                                    scheduler("area", 2.2)], True,
         "minimizes"),
    case(bound_priority_minimizes, [scheduler("bound", 2.2),
                                    scheduler("area", 2.2)], False,
         "tie-loses"),
    case(bound_priority_minimizes, [scheduler("bound", 1.8)], False,
         "vacuous"),
    case(bound_above_optimum, [scheduler("bound", 0.9)], True, "edge-0.9x"),
    case(bound_above_optimum, [scheduler("bound", 0.89)], False, "below"),
    case(bound_above_optimum, [scheduler("area", 1.0)], False, "vacuous"),
    case(bound_near_optimum, [scheduler("bound", 1.5)], True, "edge-1.5x"),
    case(bound_near_optimum, [scheduler("bound", 1.51)], False, "above"),
    case(bound_near_optimum, [scheduler("area", 1.0)], False, "vacuous"),
    # X4 poisson: the 1.10x bound reads the seed means
    case(special_cases_hold, [seeded("staleness", 0, 0.5, 0.6),
                              seeded("lag", 0, 1.8, 1.9)], True, "win"),
    case(special_cases_hold, [seeded("lag", 0, 1.1, 1.0)], True,
         "edge-1.10x"),
    case(special_cases_hold, [seeded("lag", 0, 1.3, 1.0),
                              seeded("lag", 1, 0.7, 1.0)], True,
         "mean-over-seeds"),
    case(special_cases_hold, [seeded("staleness", 0, 0.5, 0.6),
                              seeded("lag", 0, 1.2, 1.0)], False,
         "one-metric-loses"),
    case(special_cases_hold, [], False, "vacuous"),
    # X5 batching
    case(batching_amortizes, [batch("scarce", 1, 0.8),
                              batch("scarce", 4, 0.5)], True, "amortizes"),
    case(batching_amortizes, [batch("scarce", 1, 0.8),
                              batch("scarce", 4, 0.8)], False, "tie-loses"),
    case(batching_amortizes, [batch("scarce", 1, 0.8),
                              batch("abundant", 4, 0.5)], False, "vacuous"),
    case(batching_delays, [batch("abundant", 1, 0.0),
                           batch("abundant", 8, 0.36)], True, "delays"),
    case(batching_delays, [batch("abundant", 1, 1.0),
                           batch("abundant", 8, 0.9)], True, "edge-0.9x"),
    case(batching_delays, [batch("abundant", 1, 1.0),
                           batch("abundant", 8, 0.89)], False, "helps"),
    case(batching_delays, [batch("abundant", 1, 1.0)], False, "vacuous"),
    # X6 rates: the longest horizon against the oracle
    case(long_horizon_near_oracle, [estimate(None, 0.4), estimate(50.0, 0.5),
                                    estimate(2.0, 0.9)], True,
         "longest-horizon"),
    case(long_horizon_near_oracle, [estimate(None, 0.4),
                                    estimate(50.0, 0.52)], True,
         "edge-1.25x-plus-0.02"),
    case(long_horizon_near_oracle, [estimate(None, 0.4),
                                    estimate(50.0, 0.53)], False, "far"),
    case(long_horizon_near_oracle, [estimate(None, 0.4)], False, "vacuous"),
    # E9 scale
    case(refreshes_conserved, [backlog(75, 75, 0), backlog(471, 238, 233)],
         True, "conserved"),
    case(refreshes_conserved, [backlog(471, 238, 232)], False, "lost"),
    case(refreshes_conserved, [], False, "empty"),
    # E11 netcond
    case(steady_matches_constant, [net("steady", 0.5, control=0.5)],
         True, "exact"),
    case(steady_matches_constant,
         [net("steady", 0.5, control=0.5 + 1e-12)], False, "ulp-off"),
    case(steady_matches_constant, [net("steady", 0.5)], False,
         "no-control"),
    case(steady_matches_constant, [], False, "vacuous"),
    case(outage_degrades, [net("steady", 0.4, 0.5), net("outage", 0.8, 1.0)],
         True, "worse"),
    case(outage_degrades, [net("steady", 0.4, 0.5), net("outage", 0.2, 1.0)],
         False, "better"),
    case(outage_degrades, [net("steady", 0.4, 0.5)], False, "vacuous"),
    case(outage_degrades, [net("steady", 0.4, 0.5, topology="sharded-4"),
                           net("outage", 0.8, 1.0)], False, "other-layout"),
    case(graceful_degradation,
         [net("steady", 0.4, 0.4), net("outage", 0.6, 0.8)], True,
         "graceful"),
    case(graceful_degradation,
         [net("steady", 0.4, 0.4), net("outage", 0.9, 0.8)], False,
         "harsh"),
    case(graceful_degradation,
         [net("steady", 0.0, 0.4), net("outage", 0.1, 0.8)], False,
         "zero-baseline"),
    case(graceful_degradation, [net("steady", 0.4, 0.4)], False,
         "vacuous"),
    # E12 faults
    case(empty_plan_is_baseline,
         [fault("none", empty={"cooperative": 0.1, "uniform": 0.2})],
         True, "bitwise"),
    case(empty_plan_is_baseline,
         [fault("none", empty={"cooperative": 0.999, "uniform": 0.2})],
         False, "diverged"),
    case(empty_plan_is_baseline, [fault("none")], False, "no-rerun"),
    case(empty_plan_is_baseline, [], False, "vacuous"),
    case(loss_monotone, [fault("none", 0.10), fault("lossy-1", 0.12),
                         fault("lossy-10", 0.30)], True, "ladder"),
    case(loss_monotone, [fault("none", 0.10), fault("lossy-1", 0.0991)],
         True, "dip-within-tolerance"),
    case(loss_monotone, [fault("none", 0.10), fault("lossy-1", 0.05)],
         False, "drop"),
    case(loss_monotone, [fault("none")], False, "vacuous"),
    case(retry_recovers, [fault("none", 0.10),
                          fault("lossy-10", 0.30, retry=0.15)],
         True, "half-exactly"),
    case(retry_recovers, [fault("none", 0.10),
                          fault("lossy-10", 0.30, retry=0.25)],
         False, "weak"),
    case(retry_recovers, [fault("none", 0.10),
                          fault("lossy-10", 0.08, retry=0.9)],
         True, "no-gap"),
    case(retry_recovers, [fault("lossy-10", 0.30, retry=0.15)], False,
         "vacuous"),
    case(blackout_graceful, [fault("feedback-blackout", ttl=0.15)], True,
         "below-uniform"),
    case(blackout_graceful, [fault("feedback-blackout", ttl=0.203)], True,
         "within-tolerance"),
    case(blackout_graceful, [fault("feedback-blackout", ttl=0.25)], False,
         "above-uniform"),
    case(blackout_graceful, [fault("none", ttl=0.1)], False, "vacuous"),
    # E13 rebalance
    case(inert_matches_static, [SINGLE, caches(2)], True, "bitwise"),
    case(inert_matches_static, [SINGLE, caches(2, inert=1.0000001)],
         False, "diverged"),
    case(inert_matches_static, [], False, "vacuous"),
    case(adaptive_migrates, [SINGLE, caches(2)], True, "migrates"),
    case(adaptive_migrates, [SINGLE, caches(2, moves=0)], False,
         "zero-moves"),
    case(adaptive_migrates, [SINGLE], False, "single-cache-vacuous"),
    case(adaptive_beats_static, [SINGLE, caches(2)], True, "beats"),
    case(adaptive_beats_static, [SINGLE, caches(2, adaptive=1.0)], False,
         "tie-loses"),
    case(adaptive_beats_static, [SINGLE], False, "single-cache-vacuous"),
    # E8 multicache
    case(cooperative_beats_uniform, [sweep(1), sweep(4)], True, "beats"),
    case(cooperative_beats_uniform, [sweep(1), sweep(4, 0.5)], False,
         "tie-loses"),
    case(cooperative_beats_uniform, [], False, "vacuous"),
    # E14 multicast
    case(unicast_tie_at_r1, [plane("unicast", 1), plane("multicast", 1)],
         True, "tie"),
    case(unicast_tie_at_r1,
         [plane("unicast", 1), plane("multicast", 1, units=99.0)], False,
         "units-differ"),
    case(unicast_tie_at_r1, [plane("unicast", 1)], False, "vacuous"),
    case(multicast_dominates,
         [plane("unicast", 2, 2.0, 100.0),
          plane("multicast", 2, 1.0, 101.0)], True, "within-tolerance"),
    case(multicast_dominates,
         [plane("unicast", 2, 2.0, 100.0),
          plane("multicast", 2, 1.0, 103.0)], False, "more-units"),
    case(multicast_dominates,
         [plane("unicast", 2, 1.0), plane("multicast", 2, 1.0)], False,
         "no-gain"),
    case(multicast_dominates,
         [plane("unicast", 1), plane("multicast", 1)], False,
         "r1-vacuous"),
    case(controls_invariant,
         [plane("unicast", 2, 2.0), plane("multicast", 2, 1.0)], True,
         "invariant"),
    case(controls_invariant,
         [plane("unicast", 2), plane("multicast", 2, control=2.5)], False,
         "leaked"),
    case(controls_invariant, [plane("multicast", 2)], False, "vacuous"),
    # E10 readmodel
    case(quorum_monotone, [read("any", 0.9), read("quorum-2", 0.8),
                           read("freshest", 0.8)], True, "monotone"),
    case(quorum_monotone, [read("any", 0.7), read("quorum-2", 0.8)],
         False, "rises"),
    case(quorum_monotone, [read("any", 0.7),
                           read("quorum-2", 0.8, bandwidth=12.0)],
         True, "separate-groups"),
    case(quorum_monotone, [], True, "vacuous-passes"),
    case(freshest_equals_full_quorum,
         [read("quorum-2", 0.8), read("freshest", 0.8)], True, "equal"),
    case(freshest_equals_full_quorum,
         [read("quorum-2", 0.8), read("freshest", 0.8, reads=99)], False,
         "reads-differ"),
    case(freshest_equals_full_quorum, [read("any", 0.9)], True,
         "vacuous-passes"),
]


@pytest.mark.parametrize("fn,rows,expected", VERDICT_CASES)
def test_verdict(fn, rows, expected):
    assert fn(rows) is expected


def check_verdict(fn) -> None:
    """Run every ``VERDICT_CASES`` entry of one predicate (the
    per-experiment test files check their verdicts through this)."""
    cases = [c.values for c in VERDICT_CASES if c.values[0] is fn]
    assert cases, f"no table cases for {fn.__name__}"
    for _, rows, expected in cases:
        assert fn(rows) is expected


class TestRender:
    def test_inapplicable_verdicts_read_na(self):
        row = {"scenarios": "lossy-10", "topologies": "star",
               **{name: arm(0.1, dropped=1) for name in POLICIES},
               "retry": arm(0.05, retransmitted=4, duplicates=0)}
        text = FAULTS.render(FAULTS.parse(), [row])
        assert "lossy-10/star + retry: divergence 0.05 (4 retransmits" \
            in text
        assert text.count(": n/a (scenario not in this matrix)") == 4

    def test_inapplicable_verdict_without_na_text_is_omitted(self):
        rows = [{**read(policy, 0.5), "num-caches": 2, "divergence": 0.4,
                 "stale_fraction": 0.25, "replica_divergence": 0.45,
                 "refreshes": 10, "matches_direct": None}
                for policy in ("any", "quorum-2", "freshest")]
        text = READMODEL.render(READMODEL.parse(), rows)
        assert text.splitlines()[-2:] == [
            "quorum-k read divergence monotone non-increasing in k: yes",
            "quorum-r matches freshest-replica exactly: yes"]

    def test_failed_verdict_prints_its_bad_text(self):
        text = REBALANCE.render(REBALANCE.parse(),
                                [SINGLE, caches(2, adaptive=2.0)])
        assert text.endswith(
            "adaptive beats static at every cache count >= 2: "
            "WARNING: violated")

    def test_netcond_verdicts_always_apply(self):
        assert [ok for _, ok in NETCOND.judge([])] == [False] * 3


# ----------------------------------------------------------------------
# The CLI boundary
# ----------------------------------------------------------------------
BAD_CONFIGURATION = [
    (["multicache", "num-caches=0"], "num-caches must be >= 1"),
    (["multicast", "replications=5"], "replication must be in [1, 4]"),
    (["rebalance", "num-caches=0"], "num-caches must be >= 1"),
    (["faults", "--workers", "0"], "workers must be >= 1"),
    (["netcond", "sources=0"], "sources must be >= 1"),
    (["readmodel", "objects=0"], "objects must be >= 1"),
    (["netcond", "generator=legacy"], "unknown key 'generator'"),
    (["readmodel", "replay=event"], "unknown key 'replay'"),
    (["netcond", "scenarios=foggy"], "unknown value 'foggy'"),
    (["multicast", "deliveries=broadcast"], "unknown value 'broadcast'"),
    (["rebalance", "phases=two"], "expected int values"),
    (["faults", "sources"], "expected KEY=VALUE"),
    (["faults", "sources=4,8"], "sources takes one value"),
    (["rebalance", "rate-range=0.1"], "rate-range takes 2 values"),
    (["faults", "retry-timeout=0"], "timeout must be > 0"),
    (["faults", "retry-timeout=0.5"], "retry timeout must be >= dt"),
    (["rebalance", "interval=0"], "interval must be > 0"),
    (["netcond", "measure=0"], "measure must be > 0"),
    (["multicache", "topology=replicated", "num-caches=4",
      "replication=5"], "replication must be in [1, 4]"),
    (["multicache", "cache-rates=4,0"], "cache_rates must be > 0"),
    (["readmodel", "replication=0"], "replication must be >= 1"),
    (["rebalance", "phases=0"], "num_phases must be >= 1"),
    (["multicache", "hot-fraction=2"], "hot_fraction must be in [0, 1]"),
    (["multicache", "hot-boost=0.5"], "hot_boost must be >= 1"),
    # values that reached the simulator before their Param bounds
    (["netcond", "cache-bandwidth=-1"], "cache-bandwidth must be >= 0"),
    (["netcond", "source-bandwidth=-1"], "source-bandwidth must be >= 0"),
    (["multicache", "source-bandwidth=-2"],
     "source-bandwidth must be >= 0"),
    (["readmodel", "cache-bandwidths=-3"], "cache-bandwidths must be >= 0"),
    (["readmodel", "read-rate=-1"], "read-rate must be > 0"),
    (["readmodel", "read-rate=0"], "read-rate must be > 0"),
    (["faults", "rate-cap=-1"], "rate-cap must be >= 0"),
    (["rebalance", "rate-range=0.5,0.1"],
     "rate_range must satisfy 0 <= low <= high"),
    (["faults", "feedback-ttl=-1"], "feedback-ttl must be > 0"),
    (["multicast", "seed=-1"], "seed must be >= 0"),
    # every key of the paper's matrices
    (["e1", "objects=0"], "objects must be >= 1"),
    (["e1", "metrics=speed"], "unknown value 'speed'"),
    (["e1", "warmup=-1"], "warmup must be >= 0"),
    (["e1", "measure=0"], "measure must be > 0"),
    (["e1", "seed=-1"], "seed must be >= 0"),
    (["e2", "warmup=-1"], "warmup must be >= 0"),
    (["e2", "measure=0"], "measure must be > 0"),
    (["e2", "seed=-1"], "seed must be >= 0"),
    (["e3", "alphas=1"], "alphas must be > 1"),
    (["e3", "omegas=0.5"], "omegas must be > 1"),
    (["e3", "sources=0"], "sources must be >= 1"),
    (["e3", "objects=0"], "objects must be >= 1"),
    (["e3", "cache-bandwidth=-1"], "cache-bandwidth must be >= 0"),
    (["e3", "warmup=-1"], "warmup must be >= 0"),
    (["e3", "measure=0"], "measure must be > 0"),
    (["e3", "seed=-1"], "seed must be >= 0"),
    (["fig4", "sources=0"], "sources must be >= 1"),
    (["fig4", "objects=0"], "objects must be >= 1"),
    (["fig4", "source-bandwidths=-1"], "source-bandwidths must be >= 0"),
    (["fig4", "cache-bandwidths=-1"], "cache-bandwidths must be >= 0"),
    (["fig4", "change-rates=-0.1"], "change-rates must be >= 0"),
    (["fig4", "metrics=speed"], "unknown value 'speed'"),
    (["fig4", "warmup=-1"], "warmup must be >= 0"),
    (["fig4", "measure=0"], "measure must be > 0"),
    (["fig4", "seed=-1"], "seed must be >= 0"),
    (["fig5", "bandwidths=-1"], "bandwidths must be >= 0"),
    (["fig5", "link=wobbly"], "unknown value 'wobbly'"),
    (["fig5", "days=0"], "days must be > 0"),
    (["fig5", "warmup-days=-1"], "warmup-days must be >= 0"),
    (["fig5", "days=1", "warmup-days=1"],
     "warmup-days must be < days, got 1.0 >= 1.0"),
    (["fig5", "trace-csv=no-such-trace.csv"], "trace-csv: no such file"),
    (["fig5", "seed=-1"], "seed must be >= 0"),
    (["fig6", "sources=0"], "sources must be >= 1"),
    (["fig6", "objects=0"], "objects must be >= 1"),
    (["fig6", "fractions=-0.1"], "fractions must be >= 0"),
    (["fig6", "warmup=-1"], "warmup must be >= 0"),
    (["fig6", "measure=0"], "measure must be > 0"),
    (["fig6", "seed=-1"], "seed must be >= 0"),
    (["overhead", "sources=0"], "sources must be >= 1"),
    (["overhead", "objects=0"], "objects must be >= 1"),
    (["overhead", "warmup=-1"], "warmup must be >= 0"),
    (["overhead", "measure=0"], "measure must be > 0"),
    (["overhead", "seed=-1"], "seed must be >= 0"),
    # every key of the Secs 7-10 analyses (X1-X6)
    (["psi", "psis=1"], "psis must be < 1"),
    (["psi", "psis=-0.1"], "psis must be >= 0"),
    (["psi", "options=auction"], "unknown value 'auction'"),
    (["psi", "sources=0"], "sources must be >= 1"),
    (["psi", "objects=0"], "objects must be >= 1"),
    (["psi", "cache-bandwidth=-1"], "cache-bandwidth must be >= 0"),
    (["psi", "seed=-1"], "seed must be >= 0"),
    (["sampling", "intervals=0"], "intervals must be > 0"),
    (["sampling", "measure=0"], "measure must be > 0"),
    (["bounding", "cache-bandwidth=-1"], "cache-bandwidth must be >= 0"),
    (["bounding", "objects=0"], "objects must be >= 1"),
    (["bounding", "warmup=-1"], "warmup must be >= 0"),
    (["poisson", "metrics=speed"], "unknown value 'speed'"),
    (["poisson", "seeds=-1"], "seeds must be >= 0"),
    (["poisson", "objects=0"], "objects must be >= 1"),
    (["poisson", "cache-bandwidth=nan"], "cache-bandwidth must be finite"),
    (["poisson", "measure=0"], "measure must be > 0"),
    (["batching", "batch-sizes=0"], "batch-sizes must be >= 1"),
    (["batching", "seed=-1"], "seed must be >= 0"),
    (["rates", "horizons=0.5"], "horizons must be >= 1"),
    (["rates", "seed=-1"], "seed must be >= 0"),
    (["rates", "warmup=-1"], "warmup must be >= 0"),
    # non-finite floats: inf and nan parse as floats, and nan fails no
    # comparison, so these reached the simulator
    (["e1", "warmup=inf"], "warmup must be finite, got inf"),
    (["e1", "measure=nan"], "measure must be finite, got nan"),
    (["fig5", "days=inf"], "days must be finite, got inf"),
    (["fig5", "days=nan"], "days must be finite, got nan"),
    (["netcond", "cache-bandwidth=inf"], "cache-bandwidth must be finite"),
    (["netcond", "source-bandwidth=nan"], "source-bandwidth must be finite"),
    (["faults", "rate-cap=nan"], "rate-cap must be finite"),
    (["readmodel", "read-rate=inf"], "read-rate must be finite"),
    (["e3", "alphas=inf"], "alphas must be finite"),
    (["e3", "alphas=nan"], "alphas must be finite"),
    (["rebalance", "interval=nan"], "interval must be finite"),
    (["rebalance", "rate-range=0.1,-inf"], "rate-range must be finite"),
    # every key of the E9 scale sweep
    (["scale", "sources=0"], "sources must be >= 1"),
    (["scale", "update-rate=-1"], "update-rate must be >= 0"),
    (["scale", "update-rate=inf"], "update-rate must be finite"),
    (["scale", "cache-bandwidth=-1"], "cache-bandwidth must be >= 0"),
    (["scale", "source-bandwidth=-1"], "source-bandwidth must be >= 0"),
    (["scale", "shard-caches=0"], "shard-caches must be >= 1"),
    (["scale", "warmup=-1"], "warmup must be >= 0"),
    (["scale", "measure=0"], "measure must be > 0"),
    (["scale", "seed=-1"], "seed must be >= 0"),
]


class TestBoundaryValidation:
    @pytest.mark.parametrize("argv,message", BAD_CONFIGURATION,
                             ids=[" ".join(a) for a, _ in BAD_CONFIGURATION])
    def test_usage_error_before_any_run(self, argv, message, capsys,
                                        monkeypatch):
        def must_not_run(scenario):
            raise AssertionError("a scenario ran before validation")

        monkeypatch.setattr(matrix_module, "run_scenario", must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(["matrix", *argv])
        assert exc.value.code == 2
        error = capsys.readouterr().err.rstrip("\n").split("\n")[-1]
        assert error.startswith("repro matrix: error: ")
        assert message in error

    def test_unknown_matrix_name(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "e15"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_old_subcommands_are_gone(self, capsys):
        for old in ("netcond", "faults", "rebalance", "multicast",
                    "multicache", "readmodel", "scale"):
            with pytest.raises(SystemExit) as exc:
                main([old])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


class TestCommand:
    def test_output_file_holds_the_text(self, tmp_path, capsys):
        out = tmp_path / "multicast.txt"
        assert main(["--output", str(out), "matrix", "multicast",
                     *TINY["multicast"].split(), "--workers", "2"]) == 0
        text = capsys.readouterr().out
        assert out.read_text() == text
        assert text == (GOLDEN / "matrix_multicast.txt").read_text()

    def test_profile_wraps_a_matrix(self, capsys):
        assert main(["profile", "--top", "5", "matrix", "multicache",
                     "num-caches=1", "sources=4", "objects=2",
                     "warmup=10", "measure=30"]) == 0
        out = capsys.readouterr().out
        assert "Multi-cache sweep (sharded)" in out
        assert "--- cProfile: matrix multicache" in out

    def test_paper_name_is_the_matrix(self, capsys):
        assert main(["e2", *TINY["e2"].split(), "--workers", "2"]) == 0
        assert capsys.readouterr().out == (
            GOLDEN / "matrix_e2.txt").read_text()

    @pytest.mark.parametrize("argv", [["--help"], ["e1", "--help"],
                                      ["fig5", "--help"]])
    def test_help_renders(self, argv, capsys):
        # argparse %-formats help text: a bare "%" would raise here
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: repro" in capsys.readouterr().out

    def test_help_lists_every_key(self, capsys):
        with pytest.raises(SystemExit):
            main(["matrix", "--help"])
        out = capsys.readouterr().out
        for matrix in MATRICES.values():
            assert f"{matrix.name}: " in out
            for param in matrix.params:
                assert f"{param.key}=" in out
