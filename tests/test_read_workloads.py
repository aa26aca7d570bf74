"""Tests for the client read-stream pipeline (read model PR).

Mirrors ``tests/test_vectorized_workloads.py`` for the read side:

* **unit**: the batched generator and the per-object reference loop of
  ``tests/oracles.py`` produce valid, sorted read traces with the right
  marginal distributions (exponential inter-read gaps);
* **rng-order pins**: the generator consumes the rng exactly like one
  ``poisson_times_batch`` call, and for a single object exactly like the
  reference loop's one ``poisson_times`` call -- so neither can drift
  silently;
* **snapshot**: seed-pinned constants for both samplers and for the
  update+read interleaving the simulator realizes (updates strictly
  before reads at equal timestamps).
"""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.events import Phase
from repro.workloads.read_process import ReadTrace, uniform_reads
from repro.workloads.synthetic import uniform_random_walk
from repro.workloads.trace import TraceReplayer
from repro.workloads.update_process import poisson_times_batch

from oracles import each_event, per_object_reads, poisson_times


class TestReadTrace:
    def test_validation(self):
        with pytest.raises(ValueError, match="lengths differ"):
            ReadTrace(2, times=np.array([1.0]), object_indices=np.array([0, 1]))
        with pytest.raises(ValueError, match="nondecreasing"):
            ReadTrace(2, times=np.array([2.0, 1.0]),
                      object_indices=np.array([0, 1]))
        with pytest.raises(ValueError, match="out of range"):
            ReadTrace(2, times=np.array([1.0]), object_indices=np.array([5]))

    def test_reads_per_object(self):
        trace = ReadTrace(3, times=np.array([1.0, 2.0, 3.0]),
                          object_indices=np.array([2, 0, 2]))
        assert trace.reads_per_object().tolist() == [1, 0, 2]

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            uniform_reads(2, 10.0, np.random.default_rng(0), read_rate=-1.0)

    def test_unknown_generator_rejected(self):
        """One generator: the retired ``generator=`` keyword is an error,
        not a silently ignored option."""
        with pytest.raises(TypeError, match="generator"):
            uniform_reads(2, 10.0, np.random.default_rng(0),
                          generator="turbo")


class TestGeneratorRngOrder:
    """The sampling paths consume the rng exactly as documented."""

    def test_legacy_matches_per_object_poisson_times(self):
        """One object: the batched generator and the per-object reference
        loop draw the same stream bit for bit."""
        rng = np.random.default_rng(3)
        trace = uniform_reads(1, 50.0, rng, read_rate=0.6)
        rng = np.random.default_rng(3)
        times = poisson_times(0.6, 50.0, rng)
        assert np.array_equal(trace.times, times)
        assert np.array_equal(trace.object_indices,
                              np.zeros(len(times), dtype=np.int64))
        rng = np.random.default_rng(3)
        reference = per_object_reads(1, 50.0, rng, read_rate=0.6)
        assert np.array_equal(reference.times, times)

    def test_vectorized_matches_batched_sampler(self):
        rng = np.random.default_rng(3)
        trace = uniform_reads(4, 50.0, rng, read_rate=0.6)
        rng = np.random.default_rng(3)
        raw, owners = poisson_times_batch(np.full(4, 0.6), 50.0, rng)
        order = np.lexsort((owners, raw))
        assert np.array_equal(trace.times, raw[order])
        assert np.array_equal(trace.object_indices, owners[order])

    def test_generators_statistically_compatible(self):
        """Many objects: different rng order, same distribution."""
        make = dict(num_objects=30, horizon=100.0, read_rate=0.5)
        legacy = per_object_reads(rng=np.random.default_rng(0), **make)
        vectorized = uniform_reads(rng=np.random.default_rng(0), **make)
        assert not np.array_equal(legacy.times, vectorized.times)
        assert len(vectorized) == pytest.approx(len(legacy), rel=0.15)

    def test_per_object_read_rates(self):
        """An array read_rate skews per-object read counts accordingly."""
        rates = np.array([0.0, 0.2, 2.0])
        trace = uniform_reads(3, 200.0, np.random.default_rng(1),
                              read_rate=rates)
        counts = trace.reads_per_object()
        assert counts[0] == 0
        assert counts[2] > counts[1]
        assert counts[2] == pytest.approx(400, rel=0.2)


class TestInterReadGaps:
    """Poisson streams: exponential gaps with mean 1/rate."""

    @pytest.mark.parametrize("generator", ["vectorized", "legacy"])
    def test_gap_moments(self, generator):
        rate = 0.5
        sample = uniform_reads if generator == "vectorized" \
            else per_object_reads
        trace = sample(200, 400.0, np.random.default_rng(5),
                       read_rate=rate)
        gaps = []
        for i in range(200):
            own = trace.times[trace.object_indices == i]
            gaps.append(np.diff(own))
        gaps = np.concatenate(gaps)
        # Exponential(rate): mean = 1/rate, std = mean.
        assert gaps.mean() == pytest.approx(1.0 / rate, rel=0.05)
        assert gaps.std() == pytest.approx(1.0 / rate, rel=0.05)

    def test_counts_match_poisson_moments(self):
        rate, horizon, m = 0.4, 50.0, 2000
        trace = uniform_reads(m, horizon, np.random.default_rng(6),
                              read_rate=rate)
        counts = trace.reads_per_object()
        expected = rate * horizon
        assert counts.mean() == pytest.approx(expected, rel=0.05)
        assert counts.var() == pytest.approx(expected, rel=0.1)


class TestSnapshots:
    """Seed-pinned rng-consumption regressions for both samplers."""

    def test_vectorized_snapshot(self):
        rng = np.random.default_rng(42)
        trace = uniform_reads(6, 30.0, rng, read_rate=0.8)
        assert len(trace) == 151
        np.testing.assert_allclose(
            trace.times[:4],
            [0.22086809, 0.6483624, 0.68136219, 0.68411613], atol=1e-8)
        assert trace.object_indices[:8].tolist() == [1, 5, 2, 4, 1, 5, 4, 0]
        assert float(trace.times.sum()) == pytest.approx(
            2145.485122691677, abs=1e-6)

    def test_legacy_snapshot(self):
        """The per-object reference loop of tests/oracles.py."""
        rng = np.random.default_rng(42)
        trace = per_object_reads(6, 30.0, rng, read_rate=0.8)
        assert len(trace) == 145
        assert trace.object_indices[:8].tolist() == [1, 5, 2, 2, 4, 0, 2, 0]
        assert float(trace.times.sum()) == pytest.approx(
            2079.1449468594137, abs=1e-6)

    def test_merged_stream_snapshot(self):
        """Replayed together, updates strictly precede reads at equal
        timestamps, and the seeded interleaving is pinned."""
        rng = np.random.default_rng(7)
        workload = uniform_random_walk(2, 3, 20.0, rng,
                                       arrivals="bernoulli")
        reads = uniform_reads(workload.num_objects, 20.0,
                              np.random.default_rng(9), read_rate=0.5)
        sim = Simulator()
        stream = []

        def log(is_read):
            return lambda times, *_: stream.extend(
                (t, is_read) for t in times.tolist())

        trace = workload.trace
        TraceReplayer(sim, (trace.times, trace.object_indices,
                            trace.values), log(False), Phase.UPDATES)
        TraceReplayer(sim, (reads.times, reads.object_indices), log(True),
                      Phase.METRICS)
        sim.run_until(np.inf)
        times = np.array([t for t, _ in stream])
        is_read = np.array([r for _, r in stream])
        assert len(times) == 139
        assert int(is_read.sum()) == 59
        assert float(times.sum()) == pytest.approx(1471.935500528765,
                                                   abs=1e-6)
        # Bernoulli updates land exactly on tick 1.0; the simulator
        # applies all four same-tick updates before any same-tick read.
        at_one = np.nonzero(times == 1.0)[0]
        assert len(at_one) == 4
        assert not is_read[at_one].any()
        # Global invariants: time order, and updates first at equal times.
        assert (np.diff(times) >= 0).all()
        same = np.diff(times) == 0
        assert not (is_read[:-1][same] & ~is_read[1:][same]).any()


def replay_reads(sim, trace, on_read):
    """Replay ``trace`` into ``on_read(time, index)``."""
    return TraceReplayer(sim, (trace.times, trace.object_indices),
                         each_event(on_read), Phase.METRICS)


class TestReadReplayer:
    def test_fires_in_order_one_event_at_a_time(self):
        sim = Simulator()
        trace = ReadTrace(2, times=np.array([0.5, 0.5, 2.25]),
                          object_indices=np.array([0, 1, 0]))
        fired = []
        replayer = replay_reads(sim, trace,
                                lambda now, i: fired.append((now, i)))
        assert replayer.remaining == 3
        sim.run_until(10.0)
        assert fired == [(0.5, 0), (0.5, 1), (2.25, 0)]
        assert replayer.remaining == 0

    def test_reads_fire_after_same_time_updates(self):
        """METRICS-phase reads observe same-timestamp UPDATES effects."""
        sim = Simulator()
        order = []
        sim.at(1.0, lambda: order.append("update"), phase=Phase.UPDATES)
        trace = ReadTrace(1, times=np.array([1.0]),
                          object_indices=np.array([0]))
        replay_reads(sim, trace, lambda now, i: order.append("read"))
        sim.run_until(2.0)
        assert order == ["update", "read"]
