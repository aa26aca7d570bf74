"""Checks on the benchmark harness itself, on tiny versions of its workloads.

These run in-process (the tracer patches ``repro`` classes and must put
every original back), so they are also a guard that tracing leaves no
trace behind for the rest of the test session.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import spans
import suite
from compare import not_comparable, verdict
from repro.sim.engine import Simulator
from run import quartiles

CONFIG = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
OFF_CHAOS = ("faults.", "rebalance.")
SEED = 1


@pytest.fixture(scope="module")
def tiny_runs():
    """(untraced, traced) records of every workload at its tiny size."""
    return {name: (suite.run_repeat(name, SEED, tiny=True),
                   suite.run_repeat(name, SEED, traced=True, tiny=True))
            for name in suite.WORKLOADS}


def test_traced_outputs_equal_untraced_bitwise(tiny_runs):
    for name, (plain, traced) in tiny_runs.items():
        assert traced["outputs"] == plain["outputs"], name
        assert plain["problems"] == [] and traced["problems"] == [], name


def test_tracer_restores_every_patched_attribute():
    before = {(owner, attr): owner.__dict__[attr]
              for owner, attr, _ in spans.TARGETS}
    before[(Simulator, "at")] = Simulator.__dict__["at"]
    with spans.Tracer():
        assert Simulator.__dict__["at"] is not before[(Simulator, "at")]
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, (owner, attr)


def test_self_time_within_total_for_every_span(tiny_runs):
    for name, (_, traced) in tiny_runs.items():
        for span, row in traced["spans"].items():
            assert 0 <= row["self_s"] <= row["total_s"], (name, span, row)
            assert (row["calls"] == 0) == (row["total_s"] == 0), (name, span)
        assert traced["layers"]["trace.unattributed_s"] >= 0, name


def test_faults_and_rebalance_spans_idle_off_the_chaos_workload(tiny_runs):
    for name, (_, traced) in tiny_runs.items():
        calls = {span: row["calls"] for span, row in traced["spans"].items()
                 if span.startswith(OFF_CHAOS)}
        if name == "chaos-hotspot-4c":
            assert all(calls.values()), calls
        else:
            assert not any(calls.values()), (name, calls)


def test_sharded_result_independent_of_worker_count(tiny_runs):
    one, two = (suite.run_repeat("sharded4-200k", SEED, tiny=True,
                                 workers=workers) for workers in (1, 2))
    assert (one["workers"], two["workers"]) == (1, 2)
    assert one["outputs"] == two["outputs"] == tiny_runs["sharded4-200k"][
        0]["outputs"]
    assert one["updates"] == two["updates"] > 0


def test_metric_names_match_the_declared_benchmark(tiny_runs):
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    declared_e2e = [m["name"] for m in CONFIG["end_to_end"]]
    declared_layers = [m["name"] for m in CONFIG["per_layer"]]
    names = (declared_e2e + declared_layers
             + [w["name"] for w in CONFIG["workloads"]])
    assert all(pattern.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert len(declared_layers) <= 128
    for name, (plain, traced) in tiny_runs.items():
        assert sorted(plain["metrics"]) == sorted(declared_e2e), name
        # run.py adds trace.overhead: traced wall over the untraced median
        assert (sorted([*traced["layers"], "trace.overhead"])
                == sorted(declared_layers)), name
    assert sorted(suite.WORKLOADS) == sorted(
        w["name"] for w in CONFIG["workloads"])


def test_pin_mismatch_and_invariants_are_reported():
    outputs = {"weighted_divergence": 0.5, "refreshes": 10,
               "feedback_messages": 3, "dropped": 0, "retransmitted": 0,
               "migrations": 0}
    assert suite.check_outputs("dense-star-2k", outputs, 100, {}) == []
    pinned = {"weighted_divergence": 0.25, "refreshes": 10}
    assert len(suite.check_outputs("dense-star-2k", outputs, 100,
                                   pinned)) == 1
    assert len(suite.check_outputs("dense-star-2k", outputs, 5, {})) == 1
    # the chaos mix must actually drop, retransmit and migrate
    assert len(suite.check_outputs("chaos-hotspot-4c", outputs, 100,
                                   {})) == 3


def test_quartiles_of_one_and_many():
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)
    q1, median, q3 = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert q1 <= median == 3.0 <= q3


def _row(values, better="lower", bound=0.1):
    q1, median, q3 = quartiles(values)
    return {"values": values, "q1": q1, "median": median, "q3": q3,
            "better": better, "bound": bound, "unit": "s"}


def test_compare_verdicts():
    steady = [10.0, 10.1, 10.2, 10.1, 10.0]
    assert verdict(_row(steady), _row(steady)) == "unchanged"
    assert verdict(_row(steady), _row([v * 1.3 for v in steady])) == "worse"
    assert verdict(_row(steady), _row([v * 0.7 for v in steady])) == "better"
    assert verdict(_row(steady, "higher"),
                   _row([v * 0.7 for v in steady], "higher")) == "worse"
    noisy = [5.0, 10.0, 15.0, 20.0, 25.0]
    assert verdict(_row(noisy), _row(noisy)) == "unresolved"
    assert verdict(_row(noisy), _row([1.0, 2.0, 3.0, 4.0, 4.5])) == "better"


def test_compare_refuses_other_machines_and_worker_counts():
    record = {"cpu_count": 2, "workloads": {"w": {"workers": 2}}}
    assert not_comparable(record, record) is None
    assert "cpu_count" in not_comparable(record, dict(record, cpu_count=4))
    assert "workers" in not_comparable(
        record, dict(record, workloads={"w": {"workers": 1}}))
