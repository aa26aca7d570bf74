"""Tests for the E11 network-condition matrix (``repro matrix netcond``)."""

import pytest

from repro.experiments.matrix import (
    NETCOND,
    POLICIES,
    graceful_degradation,
    outage_degrades,
    run_matrix,
    steady_matches_constant,
)
from test_matrix import check_verdict

SMALL = "sources=6 objects=3 warmup=30 measure=90"


def netcond(settings, workers=1):
    params = NETCOND.parse(f"{settings} {SMALL}".split())
    return params, run_matrix(NETCOND, params, workers=workers)


@pytest.fixture(scope="module")
def small_matrix():
    return netcond("scenarios=steady,outage topologies=star")


class TestRunNetCond:
    def test_matrix_shape(self, small_matrix):
        _, rows = small_matrix
        assert [(r["scenarios"], r["topologies"]) for r in rows] == \
            [("steady", "star"), ("outage", "star")]
        for row in rows:
            assert all(row[name]["divergence"] >= 0.0 for name in POLICIES)

    def test_steady_cell_carries_constant_control(self, small_matrix):
        steady, outage = small_matrix[1]
        assert "control" in steady
        assert "control" not in outage

    def test_steady_trace_is_bitwise_control(self, small_matrix):
        assert steady_matches_constant(small_matrix[1])

    def test_outage_degrades(self, small_matrix):
        assert outage_degrades(small_matrix[1])

    def test_workers_bit_identical(self):
        settings = "scenarios=steady topologies=star,sharded-4"
        assert netcond(settings, workers=2) == netcond(settings)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown value 'ring'"):
            NETCOND.parse(["topologies=ring"])

    def test_render(self, small_matrix):
        text = NETCOND.render(*small_matrix)
        assert text.startswith("E11 network conditions")
        assert "steady" in text and "outage" in text
        for name in POLICIES:
            assert name in text
        assert "outage degrades every policy" in text


class TestVerdictHelpers:
    def test_steady_matches_requires_exact_control(self):
        check_verdict(steady_matches_constant)

    def test_outage_degrades_needs_a_pair(self):
        check_verdict(outage_degrades)

    def test_graceful_degradation_compares_ratios(self):
        check_verdict(graceful_degradation)

