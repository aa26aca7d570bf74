"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.matrix import MATRICES
from repro.sim.engine import Simulator


def matrix_defaults(name):
    """Parse ``repro matrix NAME`` and return the matrix's parameters."""
    args = build_parser().parse_args(["matrix", name])
    assert (args.name, args.settings) == (name, [])
    return MATRICES[name].parse(args.settings)


def paper_params(argv):
    """Parse a paper subcommand and return its matrix's parameters."""
    args = build_parser().parse_args(argv)
    assert args.name == argv[0]
    return MATRICES[args.name].parse(args.settings)


def rejected(argv, capsys):
    """True when ``repro matrix ...`` stops with a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["matrix", *argv])
    return exc.value.code == 2 and "error:" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_e1_defaults(self):
        params = paper_params(["e1"])
        assert params["objects"] == (100,)
        assert params["warmup"] == 100.0

    def test_fig6_custom_fractions(self):
        params = paper_params(["fig6", "fractions=0.2,0.8"])
        assert params["fractions"] == (0.2, 0.8)

    def test_fig5_flags(self):
        params = paper_params(["fig5", "link=fluctuating", "days=2"])
        assert params["link"] == "fluctuating"
        assert params["days"] == 2.0

    def test_multicache_defaults(self):
        params = matrix_defaults("multicache")
        assert params["num-caches"] == (1, 2, 4)
        assert params["topology"] == "sharded"
        assert params["replication"] == 2

    def test_multicache_topology_choices(self, capsys):
        params = MATRICES["multicache"].parse(
            ["num-caches=4", "topology=replicated"])
        assert params["num-caches"] == (4,)
        assert params["topology"] == "replicated"
        assert rejected(["multicache", "topology=mesh"], capsys)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig7"])


class TestExecution:
    def test_e1_tiny_run(self, capsys):
        code = main(["e1", "objects=10", "warmup=10", "measure=50"])
        assert code == 0
        out = capsys.readouterr().out
        assert "staleness" in out and "lag" in out

    def test_e2_tiny_run(self, capsys):
        assert main(["e2", "warmup=20", "measure=80"]) == 0
        assert "skewed" in capsys.readouterr().out

    def test_e3_tiny_run(self, capsys):
        assert main(["e3", "alphas=1.1", "omegas=10", "sources=2",
                     "objects=5", "warmup=10", "measure=50"]) == 0
        assert "best setting" in capsys.readouterr().out

    def test_fig4_tiny_run(self, capsys):
        assert main(["fig4", "sources=2", "objects=5",
                     "cache-bandwidths=5", "warmup=20", "measure=60"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_fig5_tiny_run(self, capsys):
        assert main(["fig5", "bandwidths=5", "days=1",
                     "warmup-days=0.25"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_multicache_tiny_run(self, capsys):
        assert main(["matrix", "multicache", "num-caches=1,2",
                     "sources=4", "objects=4",
                     "warmup=20", "measure=60"]) == 0
        out = capsys.readouterr().out
        assert "Multi-cache sweep" in out and "uniform" in out

    def test_fig6_tiny_run(self, capsys):
        assert main(["fig6", "sources=2", "objects=5", "fractions=0.5",
                     "warmup=20", "measure=80"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "result.txt"
        assert main(["--output", str(out_file), "e1",
                     "objects=5", "warmup=10", "measure=40"]) == 0
        assert out_file.read_text().strip() != ""
        assert "uniform" in out_file.read_text()


#: Bad values of the subcommands -> the message of their usage error.
BAD_VALUES = [
    (["matrix", "scale", "sources=0"], "sources must be >= 1, got 0"),
    (["fig4", "sources=0"], "sources must be >= 1, got 0"),
    (["fig6", "sources=0"], "sources must be >= 1, got 0"),
    (["e1", "objects=0"], "objects must be >= 1, got 0"),
    (["e3", "sources=0"], "sources must be >= 1, got 0"),
    (["e3", "alphas=1.0"], "alphas must be > 1, got 1.0"),
    (["e3", "omegas=1.0"], "omegas must be > 1, got 1.0"),
    (["e2", "measure=0"], "measure must be > 0, got 0"),
    (["matrix", "scale", "measure=0"], "measure must be > 0, got 0.0"),
    (["fig5", "days=0"], "days must be > 0, got 0"),
    (["fig5", "bandwidths=-1"], "bandwidths must be >= 0, got -1"),
    (["matrix", "scale", "--workers", "0"], "workers must be >= 1, got 0"),
    (["fig4", "--workers", "0"], "workers must be >= 1, got 0"),
    (["fig6", "objects=0"], "objects must be >= 1, got 0"),
    (["e2", "warmup=-1"], "warmup must be >= 0, got -1"),
    (["fig5", "warmup-days=-1"], "warmup-days must be >= 0, got -1"),
    (["fig5", "days=1", "warmup-days=1"],
     "warmup-days must be < days, got 1.0 >= 1.0"),
    (["e1", "objects=ten"], "objects: expected int values, got 'ten'"),
    (["matrix", "scale", "cache-bandwidth=-1"],
     "cache-bandwidth must be >= 0, got -1.0"),
    (["matrix", "scale", "source-bandwidth=-1"],
     "source-bandwidth must be >= 0, got -1.0"),
    (["matrix", "scale", "update-rate=-1"],
     "update-rate must be >= 0, got -1.0"),
    (["matrix", "scale", "seed=-1"], "seed must be >= 0, got -1"),
    (["matrix", "scale", "shard-caches=0"],
     "shard-caches must be >= 1, got 0"),
    (["profile", "--top", "0"], "top must be >= 1, got 0"),
    (["profile", "--top", "-3"], "top must be >= 1, got -3"),
    (["profile"], "expected a subcommand to profile, e.g. "
                  "`repro profile matrix scale sources=10000`"),
]


class TestBoundaryValidation:
    @pytest.mark.parametrize("argv,message", BAD_VALUES,
                             ids=[" ".join(a) for a, _ in BAD_VALUES])
    def test_usage_error_before_any_run(self, argv, message, capsys,
                                        monkeypatch):
        def must_not_run(sim, until):
            raise AssertionError("a run started before validation")

        monkeypatch.setattr(Simulator, "run_until", must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [err.rstrip("\n").split("\n")[-1]]
        assert errors[0].startswith(f"repro {argv[0]}: error: ")
        assert message in errors[0]


class TestScaleCommand:
    def test_scale_defaults(self):
        params = matrix_defaults("scale")
        assert params["sources"] == (100, 1000, 10000)
        assert params["update-rate"] == 0.002
        assert params["shard-caches"] == 1

    def test_scale_tiny_run(self, capsys):
        assert main(["matrix", "scale", "sources=20", "warmup=10",
                     "measure=40"]) == 0
        out = capsys.readouterr().out
        assert "scale sweep" in out
        assert ("every refresh sent was delivered or is still queued: "
                "yes") in out

    def test_scale_skips_tick_baseline_above_cap(self, capsys):
        """One row per source count; no tick-scan baseline row."""
        assert main(["matrix", "scale", "sources=30,15", "warmup=10",
                     "measure=30"]) == 0
        out = capsys.readouterr().out
        assert "tick" not in out
        rows = [line.split()[0] for line in out.splitlines()
                if line.split() and line.split()[0].isdigit()]
        assert rows == ["30", "15"]

    def test_scale_generator_flag(self, capsys):
        """The retired path-selection settings are usage errors."""
        for setting in ("generator=legacy", "replay=event",
                        "max-tick-sources=10"):
            assert rejected(["scale", "sources=15", setting], capsys)

    def test_scale_rejects_unknown_generator(self, capsys):
        assert rejected(["scale", "generator=turbo"], capsys)


class TestNetCondCommand:
    def test_netcond_defaults(self):
        params = matrix_defaults("netcond")
        assert params["scenarios"] == ("steady", "diurnal", "bursty",
                                       "outage")
        assert params["topologies"] == ("star", "sharded-4")
        assert params["sources"] == 16
        assert params["cache-bandwidth"] == 20.0

    def test_netcond_tiny_run(self, capsys):
        assert main(["matrix", "netcond", "scenarios=steady,outage",
                     "topologies=star", "sources=6", "objects=3",
                     "warmup=20", "measure=60"]) == 0
        out = capsys.readouterr().out
        assert "E11 network conditions" in out
        assert ("steady trace == constant bandwidth (cooperative, "
                "bitwise): yes") in out
        assert "outage degrades every policy vs steady: yes" in out

    def test_netcond_rejects_unknown_scenario(self, capsys):
        assert rejected(["netcond", "scenarios=foggy"], capsys)

    def test_netcond_rejects_unknown_topology(self, capsys):
        assert rejected(["netcond", "topologies=mesh"], capsys)


class TestReadModelCommand:
    def test_readmodel_defaults(self):
        params = matrix_defaults("readmodel")
        assert params["num-caches"] == 3
        assert params["replication"] == (1, 2, 3)
        assert params["read-rate"] == 0.5
        assert params["cache-bandwidths"] == (18.0,)

    def test_readmodel_tiny_run(self, capsys):
        assert main(["matrix", "readmodel", "replication=2",
                     "sources=4", "objects=3", "num-caches=2",
                     "warmup=20", "measure=60"]) == 0
        out = capsys.readouterr().out
        assert "Replicated read model" in out
        assert "monotone non-increasing in k: yes" in out
        assert "matches freshest-replica exactly: yes" in out

    def test_readmodel_single_cache_matches_star(self, capsys):
        assert main(["matrix", "readmodel", "num-caches=1",
                     "replication=1", "sources=4", "objects=3",
                     "warmup=20", "measure=60"]) == 0
        out = capsys.readouterr().out
        assert ("single-cache reads match star CacheStore.read "
                "bit-for-bit: yes") in out

    def test_readmodel_rejects_unknown_generator(self, capsys):
        # the workload generator left the surface with the old commands
        assert rejected(["readmodel", "generator=x"], capsys)


class TestMulticastCommand:
    def test_multicast_defaults(self):
        params = matrix_defaults("multicast")
        assert params["deliveries"] == ("unicast", "multicast")
        assert params["replications"] == (1, 2, 4)
        assert params["num-caches"] == 4
        assert params["cache-bandwidth"] == 12.0

    def test_multicast_tiny_run(self, capsys):
        assert main(["matrix", "multicast", "replications=1,2",
                     "sources=8", "objects=4", "cache-bandwidth=8",
                     "warmup=40", "measure=120"]) == 0
        out = capsys.readouterr().out
        assert "E14 multicast delivery" in out
        assert ("multicast == unicast at replication 1 (all policies, "
                "bitwise): yes") in out
        assert ("multicast strictly better divergence per unit at "
                "replication >= 2 (adaptive policies): yes") in out
        assert ("cgm/ideal invariant across delivery planes (bitwise): "
                "yes") in out

    def test_multicast_partial_matrix_reports_na(self, capsys):
        assert main(["matrix", "multicast", "deliveries=unicast",
                     "replications=2", "sources=4", "objects=3",
                     "warmup=20", "measure=40"]) == 0
        out = capsys.readouterr().out
        assert "n/a (cells not in this matrix)" in out

    def test_multicast_rejects_unknown_delivery(self, capsys):
        assert rejected(["multicast", "deliveries=broadcast"], capsys)

    def test_multicache_delivery_flag(self):
        params = MATRICES["multicache"].parse(["delivery=multicast"])
        assert params["delivery"] == "multicast"
        assert matrix_defaults("readmodel")["delivery"] == "unicast"


class TestProfileCommand:
    def test_profile_wraps_subcommand(self, capsys):
        assert main(["profile", "--top", "5", "matrix", "scale",
                     "sources=15", "warmup=10", "measure=30"]) == 0
        out = capsys.readouterr().out
        assert "scale sweep" in out  # the wrapped command's output
        assert "cProfile" in out
        assert "cumulative" in out

    def test_profile_requires_target(self):
        with pytest.raises(SystemExit) as exc:
            main(["profile"])
        assert exc.value.code == 2

    def test_profile_refuses_recursion(self):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "profile", "matrix", "scale"])
        assert exc.value.code == 2


class TestCacheRatesFlag:
    def test_parses_comma_separated_rates(self):
        params = MATRICES["multicache"].parse(["cache-rates=8,4,2"])
        assert params["cache-rates"] == (8.0, 4.0, 2.0)

    def test_rejects_garbage(self, capsys):
        assert rejected(["multicache", "cache-rates=fast,slow"], capsys)

    def test_heterogeneous_tiny_run(self, capsys):
        assert main(["matrix", "multicache", "cache-rates=10,6",
                     "sources=4", "objects=4",
                     "warmup=20", "measure=60"]) == 0
        out = capsys.readouterr().out
        assert "heterogeneous cache rates" in out
        # the rates pin the sweep to a single 2-cache point
        assert out.count("sharded") == 1
