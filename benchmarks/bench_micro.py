"""Micro-benchmarks of the core data structures.

Unlike the experiment benches (one pedantic round each), these run real
timing rounds: they exist to catch performance regressions in the inner
loops every simulation hammers -- priority-queue churn, divergence
bookkeeping, link transmission, and the event queue.
"""

import numpy as np

from repro.core.divergence import ValueDeviation
from repro.core.objects import DataObject
from repro.core.tracking import PriorityTable
from repro.core.weights import StaticWeights
from repro.metrics.collector import DivergenceCollector
from repro.network.bandwidth import ConstantBandwidth
from repro.network.link import Link
from repro.network.messages import RefreshMessage
from repro.sim.engine import Simulator


def test_tracker_update_pop_churn(benchmark):
    """Mixed update/pop workload on the lazy priority heap."""
    rng = np.random.default_rng(0)
    indices = rng.integers(0, 500, size=5000)
    priorities = rng.uniform(0.1, 100.0, size=5000)

    def churn():
        tracker = PriorityTable()
        for i in range(5000):
            tracker.update(0, int(indices[i]), float(priorities[i]))
            if i % 7 == 0:
                tracker.pop(0)
        return tracker

    tracker = benchmark(churn)
    assert tracker.peek(0) is not None


def test_object_update_bookkeeping(benchmark):
    """apply_update across both sync views (the per-event hot path)."""
    metric = ValueDeviation()
    values = np.random.default_rng(1).normal(size=2000)

    def apply_all():
        obj = DataObject(index=0, source_id=0, rate=0.5)
        for k, v in enumerate(values):
            obj.apply_update(float(k), float(v), metric)
        return obj

    obj = benchmark(apply_all)
    assert obj.update_count == 2000


def test_collector_record_throughput(benchmark):
    """Event-driven divergence integration at scale."""
    rng = np.random.default_rng(2)
    n = 1000
    events = [(float(t), int(rng.integers(0, n)),
               float(rng.uniform(0, 5)))
              for t in np.sort(rng.uniform(0, 100, size=5000))]

    def record_all():
        collector = DivergenceCollector(n, StaticWeights.uniform(n))
        for t, index, value in events:
            collector.record(index, t, value)
        collector.finalize(100.0)
        return collector

    collector = benchmark(record_all)
    assert collector.total_unweighted_average() > 0


def test_link_transmit_throughput(benchmark):
    """transmit_or_queue + drain under alternating load."""

    def pump():
        delivered = []
        link = Link("bench", ConstantBandwidth(5.0),
                    deliver=delivered.append)
        now = 0.0
        for tick in range(500):
            now += 1.0
            link.refill(now)
            for k in range(8):  # oversubscribed: queue exercised
                link.transmit_or_queue(
                    RefreshMessage(source_id=0, sent_at=now))
            link.drain()
        return delivered

    delivered = benchmark(pump)
    assert len(delivered) > 0


def test_event_queue_throughput(benchmark):
    """Schedule/execute cycles through the phased event queue, over a
    standing backlog of pending timers (as the retry layer keeps), so
    every push and pop compares heap entries."""

    def run_events():
        sim = Simulator()
        counter = [0]

        def bump():
            counter[0] += 1
            if counter[0] < 3000:
                sim.schedule(0.01, bump)

        for k in range(2000):  # due after the run ends: never popped
            sim.schedule(100.5 + 0.25 * k, lambda: None)
        sim.schedule(0.01, bump)
        sim.run_until(100.0)
        return counter[0], sim.pending_events

    count, backlog = benchmark(run_events)
    assert (count, backlog) == (3000, 2000)
