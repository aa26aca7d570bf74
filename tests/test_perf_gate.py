"""Tests for ``benchmarks/perf_gate.py``, CI's perf-regression gate."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perf_gate.py"
_spec = importlib.util.spec_from_file_location("perf_gate", _PATH)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

BOUNDS = {"wall_s": ("lower", 0.24), "setup_s": ("lower", 0.25),
          "run_s": ("lower", 0.24), "updates_per_s": ("higher", 0.24),
          "peak_rss_mb": ("lower", 0.1)}
STEADY = (0.99, 1.0, 1.01)  #: a 1% spread around the median


def record(wall=1.0, rss=300.0, spread=STEADY, setup_spread=STEADY,
           failed=0, cpu_count=2):
    """A one-workload ``bench/run.py`` record; values are scale * spread."""
    scales = {"wall_s": wall, "setup_s": 0.3 * wall, "run_s": 0.7 * wall,
              "updates_per_s": 1e5 / wall, "peak_rss_mb": rss}
    end_to_end = {}
    for metric, (better, bound) in BOUNDS.items():
        shape = setup_spread if metric == "setup_s" else (
            STEADY if metric == "peak_rss_mb" else spread)
        values = [scales[metric] * x for x in shape]
        q1, median, q3 = perf_gate.quartiles(values)
        end_to_end[metric] = {"unit": "s", "better": better, "bound": bound,
                              "median": median, "q1": q1, "q3": q3,
                              "values": values}
    attempted = len(spread)
    return {"revision": None, "seed": 0, "cpu_count": cpu_count,
            "workloads": {perf_gate.WORKLOAD: {
                "workers": 1, "attempted": attempted, "failed": failed,
                "failed_frac": failed / attempted, "per_layer": {},
                "end_to_end": end_to_end}}}


def gate(base, candidate):
    """The gate on one pair of records."""
    return perf_gate.gate([base], [candidate])


def status(base, candidate):
    return gate(base, candidate)[1]


class TestPool:
    def test_repeats_concatenate_and_quartiles_are_recomputed(self):
        pooled = perf_gate.pool([record(1.0, spread=(1.0,)),
                                 record(2.0, spread=(1.0,), failed=1),
                                 record(3.0, spread=(1.0,))])
        workload = pooled["workloads"][perf_gate.WORKLOAD]
        wall = workload["end_to_end"]["wall_s"]
        assert wall["values"] == [1.0, 2.0, 3.0]
        assert wall["median"] == 2.0 and wall["q1"] < 2.0 < wall["q3"]
        assert workload["attempted"] == 3 and workload["failed"] == 1
        assert workload["failed_frac"] == 1 / 3


class TestGate:
    def test_a_tenth_slower_passes(self):
        assert status(record(1.0), record(1.10)) == perf_gate.PASS

    def test_a_quarter_slower_fails(self):
        lines, outcome = gate(record(1.0), record(1.25))
        assert outcome == perf_gate.FAIL
        assert "wall_s worse than its bound" in lines[-1]

    def test_a_ratio_above_1_20_fails_within_the_metric_bound(self):
        """1.22x is within wall_s's 24% bound: the 1.20 check fails it."""
        lines, outcome = gate(record(1.0), record(1.22))
        assert outcome == perf_gate.FAIL
        assert lines[-1] == "FAIL: wall_s ratio above 1.20"

    def test_the_ratio_is_the_median_over_pairs(self):
        """A host that slows down mid-run slows both arms of a pair."""
        walls = (1.0, 1.0, 1.1, 1.1)
        lines, outcome = perf_gate.gate(
            [record(wall) for wall in walls],
            [record(1.15 * wall) for wall in walls])
        assert "median ratio 1.150 over 4 pairs" in lines[-2]
        assert outcome == perf_gate.PASS

    def test_above_the_budget_fails(self):
        lines, outcome = gate(record(55.0), record(61.0))
        assert outcome == perf_gate.FAIL
        assert "above the 60 s budget" in lines[-1]

    def test_peak_rss_above_its_bound_fails(self):
        lines, outcome = gate(record(rss=300.0), record(rss=333.0))
        assert outcome == perf_gate.FAIL
        assert "peak_rss_mb worse" in lines[-1]

    def test_a_failed_repeat_fails(self):
        assert status(record(), record(failed=1)) == perf_gate.FAIL

    def test_wide_wall_spread_is_unresolved_and_defers_the_ratio(self):
        wide = (0.8, 1.0, 1.2)
        lines, outcome = gate(record(1.0, spread=wide),
                              record(1.21, spread=wide))
        assert outcome == perf_gate.UNRESOLVED
        assert lines[-1].startswith("UNRESOLVED: wall_s")

    def test_a_clear_win_resolves_a_wide_spread(self):
        assert status(record(2.0, spread=(0.8, 1.0, 1.2)),
                      record(1.0, spread=(0.8, 1.0, 1.2))) == perf_gate.PASS

    def test_ungated_metrics_are_printed_not_gated(self):
        lines, outcome = gate(
            record(1.0), record(1.0, setup_spread=(0.5, 1.0, 1.5)))
        assert outcome == perf_gate.PASS
        assert any(line.split()[0] == "setup_s"
                   and line.endswith("unresolved") for line in lines)


class TestMain:
    def write(self, tmp_path, name, rec):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(rec))
        return str(path)

    def test_pools_every_file_of_a_side(self, tmp_path, capsys):
        base = [self.write(tmp_path, f"base-{i}", record(1.0, spread=(x,)))
                for i, x in enumerate((0.99, 1.0, 1.01))]
        candidate = [
            self.write(tmp_path, f"candidate-{i}", record(1.3, spread=(x,)))
            for i, x in enumerate((0.99, 1.0, 1.01))]
        code = perf_gate.main(["--base", *base, "--candidate", *candidate])
        assert code == perf_gate.FAIL
        assert "median ratio 1.300 over 3 pairs" in capsys.readouterr().out

    def test_needs_one_candidate_record_per_base_record(self, tmp_path):
        base = self.write(tmp_path, "base", record())
        with pytest.raises(SystemExit) as exit_:
            perf_gate.main(["--base", base, base, "--candidate", base])
        assert exit_.value.code == 2

    def test_refuses_records_of_other_machines(self, tmp_path):
        base = self.write(tmp_path, "base", record(cpu_count=2))
        candidate = self.write(tmp_path, "candidate", record(cpu_count=4))
        assert perf_gate.main(["--base", base, "--candidate", candidate]) == 2
