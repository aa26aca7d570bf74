"""Tests for the lazy max-heap priority tracker (paper Sec 8)."""

import numpy as np
import pytest

from repro.core.tracking import PriorityTracker


class TestBasicOperations:
    def test_empty_tracker(self):
        tracker = PriorityTracker()
        assert tracker.peek() is None
        assert tracker.pop() is None
        assert len(tracker) == 0
        assert tracker.get(3) == 0.0

    def test_peek_returns_maximum(self):
        tracker = PriorityTracker()
        tracker.update(1, 5.0)
        tracker.update(2, 9.0)
        tracker.update(3, 1.0)
        assert tracker.peek() == (2, 9.0)

    def test_pop_removes_maximum(self):
        tracker = PriorityTracker()
        tracker.update(1, 5.0)
        tracker.update(2, 9.0)
        assert tracker.pop() == (2, 9.0)
        assert tracker.pop() == (1, 5.0)
        assert tracker.pop() is None

    def test_update_overrides_previous_priority(self):
        tracker = PriorityTracker()
        tracker.update(1, 5.0)
        tracker.update(1, 2.0)
        assert tracker.peek() == (1, 2.0)
        assert len(tracker) == 1

    def test_priority_can_increase(self):
        tracker = PriorityTracker()
        tracker.update(1, 2.0)
        tracker.update(2, 3.0)
        tracker.update(1, 10.0)
        assert tracker.pop() == (1, 10.0)

    def test_zero_priority_removes(self):
        tracker = PriorityTracker()
        tracker.update(1, 5.0)
        tracker.update(1, 0.0)
        assert tracker.peek() is None
        assert 1 not in tracker

    def test_remove(self):
        tracker = PriorityTracker()
        tracker.update(1, 5.0)
        tracker.update(2, 3.0)
        tracker.remove(1)
        assert tracker.peek() == (2, 3.0)

    def test_remove_untracked_is_noop(self):
        tracker = PriorityTracker()
        tracker.remove(7)
        assert len(tracker) == 0

    def test_contains_and_get(self):
        tracker = PriorityTracker()
        tracker.update(4, 2.5)
        assert 4 in tracker
        assert tracker.get(4) == 2.5

    def test_items(self):
        tracker = PriorityTracker()
        tracker.update(1, 5.0)
        tracker.update(2, 3.0)
        assert sorted(tracker.items()) == [(1, 5.0), (2, 3.0)]

    def test_infinite_priority_supported(self):
        tracker = PriorityTracker()
        tracker.update(1, float("inf"))
        tracker.update(2, 100.0)
        assert tracker.pop() == (1, float("inf"))


class TestAgainstNaiveArgmax:
    def test_random_operation_sequence_matches_naive(self):
        """The lazy heap must agree with a dict + argmax oracle across a
        long random mix of updates, removes and pops."""
        rng = np.random.default_rng(12345)
        tracker = PriorityTracker()
        oracle: dict[int, float] = {}
        for _ in range(3000):
            op = rng.random()
            index = int(rng.integers(0, 40))
            if op < 0.6:
                priority = float(rng.uniform(0.0, 10.0))
                tracker.update(index, priority)
                if priority <= 0:
                    oracle.pop(index, None)
                else:
                    oracle[index] = priority
            elif op < 0.8:
                tracker.remove(index)
                oracle.pop(index, None)
            else:
                got = tracker.pop()
                if not oracle:
                    assert got is None
                else:
                    best = max(oracle.items(), key=lambda kv: kv[1])
                    assert got is not None
                    assert got[1] == pytest.approx(best[1])
                    oracle.pop(got[0])
            assert len(tracker) == len(oracle)


class TestHeapRebuild:
    """Superseded entries are swept out once they outnumber the live
    ones, so the heap tracks the objects, not the update count."""

    def test_heap_stays_bounded_by_live_entries(self):
        rng = np.random.default_rng(7)
        tracker = PriorityTracker()
        for step in range(20_000):
            tracker.update(int(rng.integers(0, 10)),
                           float(rng.uniform(0.1, 10.0)))
            # at most twice the live entries plus the slack, plus the
            # push that triggers the next rebuild
            assert len(tracker._heap) <= 2 * 10 + 64 + 1

    def test_rebuild_keeps_the_queue_order(self):
        """Interleaved with pops, a tracker that rebuilt many times hands
        out the same sequence as a dict + argmax oracle, ties included
        (equal priorities leave in (version, index) order)."""
        rng = np.random.default_rng(11)
        tracker = PriorityTracker()
        oracle: dict[int, float] = {}
        versions = [0] * 30  # per index: updates and pops so far
        for step in range(5_000):
            index = int(rng.integers(0, 30))
            priority = float(rng.integers(1, 4))  # many ties
            versions[index] += 1
            tracker.update(index, priority)
            oracle[index] = priority
            if step % 7 == 0:
                got = tracker.pop()
                best = min(oracle, key=lambda i: (-oracle[i], versions[i],
                                                  i))
                versions[best] += 1
                assert got == (best, oracle.pop(best))

