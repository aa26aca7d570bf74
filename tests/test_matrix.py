"""The scenario matrix: pins, verdicts, workers, the ``repro matrix`` CLI.

* **Exact-float pins.**  ``PINS`` holds, per registered matrix at a tiny
  size, the weighted divergence of every (row, arm) -- ``repr``-exact
  floats captured from the six per-experiment harnesses this module
  replaced.  ``tests/golden/matrix_<name>.txt`` holds the same harnesses'
  CLI text at that size, byte for byte.
* **Verdict table.**  ``VERDICT_CASES`` drives every verdict predicate
  through its pass, fail, vacuous and tolerance cases on hand-built rows.
* **Workers.**  A pool run folds into the same rows as the serial run.
* **Boundary validation.**  Bad configuration is a one-line usage error
  (exit 2) raised before any scenario runs.
"""

from pathlib import Path

import pytest

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
    blackout_graceful,
    controls_invariant,
    empty_plan_is_baseline,
    freshest_equals_full_quorum,
    graceful_degradation,
    inert_matches_static,
    loss_monotone,
    multicast_dominates,
    outage_degrades,
    quorum_monotone,
    retry_recovers,
    run_matrix,
    run_scenario,
    steady_matches_constant,
    unicast_tie_at_r1,
)
from repro.experiments.parallel import WorkloadSpec
from repro.workloads.synthetic import uniform_random_walk

GOLDEN = Path(__file__).parent / "golden"

#: Tiny settings per matrix; the pins and golden texts were captured at
#: exactly these sizes.
TINY = {
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
}

#: (row axis values) -> arm -> weighted divergence; readmodel rows carry
#: their read-path floats instead (it has no arms).
PINS = {
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
                         "competitive": 0.7917952270493291,
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


def observed(name: str, rows: list[dict]) -> dict:
    """The pinned floats of ``rows``, in ``PINS`` layout."""
    matrix = MATRICES[name]
    out = {}
    for row in rows:
        key = tuple(row[axis] for axis in matrix.axes)
        if matrix.arms:
            out[key] = {arm: row[arm]["divergence"]
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
        assert list(MATRICES) == ["netcond", "faults", "rebalance",
                                  "multicast", "multicache", "readmodel"]


class TestWorkers:
    @pytest.mark.parametrize("name", ["faults", "readmodel"])
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
        assert set(record) == {"divergence", "refreshes", "messages",
                               "units", "dropped", "retransmitted",
                               "duplicates", "migrations", "queue_peak"}
        assert record["refreshes"] > 0 and record["units"] > 0

    def test_construction_validates_the_timing_window(self):
        with pytest.raises(ValueError, match="measure must be > 0"):
            Scenario(workload=WorkloadSpec.make(uniform_random_walk, 0),
                     policy="uniform", cache_bandwidth=1.0,
                     source_bandwidth=1.0, warmup=1.0, measure=0.0)


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


def plane(delivery, r, div=1.0, units=100.0, control=2.0):
    policies = {name: arm(div, units=units, messages=int(units))
                for name in ("cooperative", "uniform", "competitive")}
    policies.update({name: arm(control, units=units, messages=int(units))
                     for name in ("cgm", "ideal")})
    return {"deliveries": delivery, "replications": r, **policies}


def read(policy, divergence, r=2, reads=100, bandwidth=6.0):
    return {"cache-bandwidths": bandwidth, "replication": r,
            "read": policy, "read_divergence": divergence, "reads": reads}


def case(fn, rows, expected, name):
    return pytest.param(fn, rows, expected, id=f"{fn.__name__}-{name}")


VERDICT_CASES = [
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
    (["rebalance", "interval=0"], "interval must be > 0"),
    (["netcond", "measure=0"], "measure must be > 0"),
    (["multicache", "topology=replicated", "num-caches=4",
      "replication=5"], "replication must be in [1, 4]"),
    (["multicache", "cache-rates=4,0"], "cache_rates must be > 0"),
    (["readmodel", "replication=0"], "replication must be >= 1"),
    (["rebalance", "phases=0"], "num_phases must be >= 1"),
    (["multicache", "hot-fraction=2"], "hot_fraction must be in [0, 1]"),
    (["multicache", "hot-boost=0.5"], "hot_boost must be >= 1"),
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

    def test_old_subcommands_are_gone(self):
        for old in ("netcond", "faults", "rebalance", "multicast",
                    "multicache", "readmodel"):
            with pytest.raises(SystemExit):
                main([old])


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

    def test_help_lists_every_key(self, capsys):
        with pytest.raises(SystemExit):
            main(["matrix", "--help"])
        out = capsys.readouterr().out
        for matrix in MATRICES.values():
            assert f"{matrix.name}: " in out
            for param in matrix.params:
                assert f"{param.key}=" in out
