"""Tests for the vectorized workload pipeline (PR 3 tentpole).

Three layers of guarantees:

* **unit**: the batched samplers produce object-major, per-object-sorted
  event streams with the right marginal distributions, and the segmented
  random-walk cumsum is a genuine +-step walk per object;
* **snapshot**: seed-pinned regressions of the vectorized path, so the
  rng consumption order of the new generators cannot drift silently;
* **pinned experiments**: the exact fig4 / fig5 / multicache numbers,
  and agreement with the per-object reference loops of
  ``tests/oracles.py`` -- bit for bit where the rng consumption
  coincides (one object), statistically where it does not.
"""

import numpy as np
import pytest

from repro.core.divergence import ValueDeviation
from repro.experiments.matrix import MATRICES, make_policy, run_matrix
from repro.experiments.runner import RunSpec, run_policy
from repro.network.bandwidth import ConstantBandwidth
from repro.network.topology import TopologyConfig
import repro.workloads
from repro.workloads.random_walk import random_walk_values_batch
from repro.workloads.synthetic import (
    skewed_validation,
    uniform_random_walk,
)
from repro.workloads.hotspot import hotspot_shards
from repro.workloads.update_process import (
    bernoulli_tick_times_batch,
    poisson_times_batch,
)

from oracles import (
    bernoulli_tick_times,
    per_object_trace,
    poisson_times,
    random_walk_values,
)


class TestPoissonBatch:
    def test_object_major_and_sorted_within_object(self):
        rng = np.random.default_rng(0)
        rates = np.array([0.5, 2.0, 0.0, 1.0])
        times, owners = poisson_times_batch(rates, 50.0, rng)
        assert (np.diff(owners) >= 0).all()
        for i in range(len(rates)):
            own = times[owners == i]
            assert (np.diff(own) >= 0).all()
            assert ((own >= 0.0) & (own < 50.0)).all()
        assert (owners != 2).all()  # rate-0 object never fires

    def test_counts_match_poisson_moments(self):
        """Mean and variance of per-object counts ~ lambda * horizon."""
        rng = np.random.default_rng(1)
        rate, horizon, m = 0.4, 25.0, 4000
        _, owners = poisson_times_batch(np.full(m, rate), horizon, rng)
        counts = np.bincount(owners, minlength=m)
        expected = rate * horizon  # Poisson: mean == variance
        assert counts.mean() == pytest.approx(expected, rel=0.05)
        assert counts.var() == pytest.approx(expected, rel=0.1)

    def test_empty_inputs(self):
        rng = np.random.default_rng(0)
        times, owners = poisson_times_batch(np.empty(0), 10.0, rng)
        assert len(times) == 0 and len(owners) == 0
        times, owners = poisson_times_batch(np.ones(3), 0.0, rng)
        assert len(times) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_times_batch(np.array([-0.1]), 10.0,
                                np.random.default_rng(0))

    def test_interarrivals_exponential(self):
        """Mean and CV of interarrival gaps must match Exp(lambda)."""
        rng = np.random.default_rng(3)
        rate = 2.0
        times, _ = poisson_times_batch(np.array([rate]), 50_000.0, rng)
        gaps = np.diff(times)
        assert gaps.mean() == pytest.approx(1.0 / rate, rel=0.05)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, rel=0.05)

    @pytest.mark.parametrize("seed", range(5))
    def test_single_object_matches_scalar_loop(self, seed):
        """One object: the batched draw is the per-object loop's draw."""
        times, owners = poisson_times_batch(
            np.array([0.6]), 50.0, np.random.default_rng(seed))
        expected = poisson_times(0.6, 50.0, np.random.default_rng(seed))
        assert np.array_equal(times, expected)
        assert (owners == 0).all()


class TestBernoulliBatch:
    def test_ticks_and_certain_updates(self):
        rng = np.random.default_rng(0)
        probs = np.array([1.0, 0.0, 0.5])
        times, owners = bernoulli_tick_times_batch(probs, 10.0, rng)
        certain = times[owners == 0]
        assert np.array_equal(certain, np.arange(1.0, 11.0))
        assert (owners != 1).all()
        # Custom tick spacing: every success lands on a multiple of dt.
        times, owners = bernoulli_tick_times_batch(probs, 10.0, rng, dt=2.5)
        assert times[owners == 0].tolist() == [2.5, 5.0, 7.5, 10.0]
        half = times[owners == 2] / 2.5
        np.testing.assert_array_equal(half, np.round(half))
        # No whole tick before the horizon: no trials at all.
        for horizon, dt in ((0.0, 1.0), (2.0, 2.5)):
            times, owners = bernoulli_tick_times_batch(probs, horizon, rng,
                                                       dt=dt)
            assert len(times) == 0 and len(owners) == 0

    def test_counts_match_binomial_moments(self):
        rng = np.random.default_rng(2)
        prob, ticks, m = 0.3, 40, 3000
        _, owners = bernoulli_tick_times_batch(np.full(m, prob),
                                               float(ticks), rng)
        counts = np.bincount(owners, minlength=m)
        assert counts.mean() == pytest.approx(ticks * prob, rel=0.05)
        assert counts.var() == pytest.approx(ticks * prob * (1 - prob),
                                             rel=0.1)

    def test_chunking_preserves_owner_order(self):
        """Tiny chunks must still yield one contiguous object-major
        stream with correct owner offsets."""
        rng = np.random.default_rng(3)
        probs = np.full(10, 0.8)
        times, owners = bernoulli_tick_times_batch(
            probs, 5.0, rng, max_draws_per_chunk=7)
        assert (np.diff(owners) >= 0).all()
        assert set(np.unique(owners)) <= set(range(10))

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_tick_times_batch(np.array([1.5]), 10.0,
                                       np.random.default_rng(0))

    @pytest.mark.parametrize("dt", [1.0, 2.5])
    def test_single_object_matches_scalar_loop(self, dt):
        """One object with 0 < p < 1: the batched trials are the
        per-object loop's trials."""
        times, _ = bernoulli_tick_times_batch(
            np.array([0.3]), 50.0, np.random.default_rng(4), dt=dt)
        expected = bernoulli_tick_times(0.3, 50.0,
                                        np.random.default_rng(4), dt=dt)
        assert np.array_equal(times, expected)


class TestRandomWalkBatch:
    def test_each_segment_is_a_walk_from_its_initial(self):
        rng = np.random.default_rng(4)
        counts = np.array([3, 0, 5, 1])
        initials = np.array([0.0, 2.0, -1.0, 10.0])
        values = random_walk_values_batch(counts, rng, initials, step=1.0)
        assert len(values) == counts.sum()
        offset = 0
        for count, initial in zip(counts, initials):
            segment = values[offset:offset + count]
            steps = np.diff(np.concatenate(([initial], segment)))
            assert set(np.abs(steps)) <= {1.0}
            offset += count

    def test_matches_per_object_walk_given_same_steps(self):
        """The segmented cumsum is algebraically the per-object walk."""
        rng = np.random.default_rng(5)
        counts = np.array([4, 2])
        batch = random_walk_values_batch(counts, rng,
                                         np.zeros(2), step=1.0)
        rng = np.random.default_rng(5)
        flat_steps = rng.choice((-1.0, 1.0), size=6)
        expected = np.concatenate([np.cumsum(flat_steps[:4]),
                                   np.cumsum(flat_steps[4:])])
        assert np.array_equal(batch, expected)

    def test_empty(self):
        out = random_walk_values_batch(np.zeros(3, dtype=int),
                                       np.random.default_rng(0),
                                       np.zeros(3))
        assert len(out) == 0

    def test_per_object_generator_unchanged(self):
        """The per-object reference walk consumes the rng as one choice
        call of the walk's length, like one segment of the batch."""
        rng = np.random.default_rng(6)
        walk = random_walk_values(5, rng, initial=1.0)
        rng = np.random.default_rng(6)
        steps = rng.choice((-1.0, 1.0), size=5)
        assert np.array_equal(walk, 1.0 + np.cumsum(steps))


class TestVectorizedSnapshots:
    """Seed-pinned regressions: the vectorized rng consumption order."""

    def test_uniform_poisson_snapshot(self):
        rng = np.random.default_rng(42)
        trace = uniform_random_walk(3, 2, 30.0, rng).trace
        assert len(trace) == 103
        np.testing.assert_allclose(
            trace.times[:4],
            [0.22086809, 0.68136219, 0.92453504, 1.31411297], atol=1e-8)
        assert trace.object_indices[:8].tolist() == [1, 3, 2, 0, 2, 3, 3, 5]
        assert trace.values[:8].tolist() == [-1., 1., -1., 1., -2., 2.,
                                             1., -1.]
        assert float(trace.values.sum()) == -117.0
        assert float(trace.times.sum()) == pytest.approx(
            1507.028092812025, abs=1e-6)

    def test_uniform_bernoulli_snapshot(self):
        rng = np.random.default_rng(7)
        trace = uniform_random_walk(2, 3, 20.0, rng,
                                    arrivals="bernoulli").trace
        assert len(trace) == 80
        assert trace.object_indices[:6].tolist() == [0, 1, 2, 5, 2, 3]
        assert trace.values[:6].tolist() == [-1., -1., 1., 1., 2., 1.]
        assert float(trace.values.sum()) == -60.0
        assert float(trace.times.sum()) == 863.0

    def test_trace_invariants(self):
        """Vectorized traces obey every UpdateTrace invariant: sorted
        times, object-index tie-break, per-object +-1 walk values."""
        rng = np.random.default_rng(11)
        workload = uniform_random_walk(4, 3, 60.0, rng)
        trace = workload.trace
        assert (np.diff(trace.times) >= 0).all()
        same_time = np.diff(trace.times) == 0
        assert (np.diff(trace.object_indices)[same_time] > 0).all()
        for i in range(workload.num_objects):
            values = trace.values[trace.object_indices == i]
            steps = np.diff(np.concatenate(([0.0], values)))
            assert set(np.abs(steps)) <= {1.0}

    def test_skewed_and_hotspot_builders(self):
        skewed = skewed_validation(50.0, np.random.default_rng(8))
        assert len(skewed.trace) > 0
        # Fast half updates every second: ~50 updates per fast object.
        counts = skewed.trace.updates_per_object()
        assert counts.max() == 50
        hot = hotspot_shards(8, 2, 50.0, np.random.default_rng(8))
        assert len(hot.trace) > 0
        assert hot.num_objects == 16

    def test_unknown_generator_rejected(self):
        """One generator: the retired ``generator=`` keyword is an error,
        not a silently ignored option."""
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError, match="generator"):
            uniform_random_walk(2, 2, 10.0, rng, generator="turbo")
        assert not hasattr(repro.workloads, "GENERATORS")

    def test_owner_array_matches_source_of(self):
        rng = np.random.default_rng(0)
        workload = uniform_random_walk(3, 4, 10.0, rng)
        assert workload.owner.tolist() == [0, 0, 0, 0, 1, 1, 1, 1,
                                           2, 2, 2, 2]
        assert all(workload.source_of(i) == i // 4 for i in range(12))


class TestLegacyBitForBit:
    """Pinned fig4 / fig5 / multicache numbers.

    The fig5 constants were captured before the vectorized pipeline and
    the batched message fast path landed (fig5's buoy trace generation
    was already epoch-vectorized).  The fig4 and multicache constants
    once pinned the per-object "legacy" sampling path; when that path
    was deleted they were re-captured, repr-exact, from the same calls
    on the vectorized sampler of the commit that still had both, so the
    deletion provably changed no simulated outcome of the one path left.
    """

    FIG4_PINS = [
        ("deviation", 0.0, 0.5147302464542121, 1.0355687286585165),
        ("lag", 0.0, 0.7836545675879729, 2.203696188157975),
        ("deviation", 0.25, 0.7510256547599358, 1.3325658245288594),
        ("lag", 0.25, 1.2880814123637274, 4.1624851233644184),
    ]

    FIG5_PINS = [
        (0.46512457251244144, 1.7599901298427578),
        (0.08765861788514694, 0.10727435854561122),
    ]

    MULTICACHE_PINS = [
        (0.5761087442800995, 0.7334185839760353, 2292, 2400),
        (0.6695494300542557, 0.7334185839760353, 2293, 2400),
    ]

    @staticmethod
    def matrix_rows(name, settings):
        matrix = MATRICES[name]
        return run_matrix(matrix, matrix.parse(settings.split()))

    def test_fig4_legacy_pinned(self):
        points = self.matrix_rows(
            "fig4", "sources=3 objects=4 source-bandwidths=1 "
                    "cache-bandwidths=2 change-rates=0,0.25 "
                    "metrics=deviation,lag warmup=20 measure=80 seed=0")
        got = [(p["metrics"], p["change-rates"], p["ideal"]["divergence"],
                p["ours"]["divergence"]) for p in points]
        assert got == self.FIG4_PINS

    def test_fig5_pinned(self):
        points = self.matrix_rows(
            "fig5", "bandwidths=2,10 days=0.5 warmup-days=0.1 seed=0")
        got = [(p["ideal"]["unweighted"], p["ours"]["unweighted"])
               for p in points]
        assert got == self.FIG5_PINS

    def test_multicache_legacy_pinned(self):
        """Cooperative vs uniform on the hot-shard workload, star and
        sharded-2 (the multicache experiment's cells)."""
        workload = hotspot_shards(8, 4, horizon=200.0,
                                  rng=np.random.default_rng(0))
        got = []
        for topology in (TopologyConfig(),
                         TopologyConfig(kind="sharded", num_caches=2)):
            spec = RunSpec(warmup=50.0, measure=150.0, seed=0,
                           topology=topology)
            results = [run_policy(
                workload, ValueDeviation(),
                make_policy(name, ConstantBandwidth(12.0),
                            [ConstantBandwidth(2.0) for _ in range(8)],
                            workload.num_objects),
                spec) for name in ("cooperative", "uniform")]
            got.append((results[0].weighted_divergence,
                        results[1].weighted_divergence,
                        results[0].refreshes, results[1].refreshes))
        assert got == self.MULTICACHE_PINS

    def test_legacy_and_vectorized_statistically_compatible(self):
        """Same seed, batched builder vs the per-object reference loop:
        different traces, same rates and closely matching aggregate
        event counts."""
        vectorized = uniform_random_walk(
            num_sources=20, objects_per_source=2, horizon=200.0,
            rng=np.random.default_rng(0))
        rng = np.random.default_rng(0)
        rates = rng.uniform(0.0, 1.0, size=40)
        legacy = per_object_trace(
            [poisson_times(rate, 200.0, rng) for rate in rates], rng, 40)
        assert np.array_equal(rates, vectorized.rates)
        assert not np.array_equal(legacy.times, vectorized.trace.times)
        assert len(vectorized.trace) == pytest.approx(len(legacy),
                                                      rel=0.15)
