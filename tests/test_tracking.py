"""Tests for the lazy max-heap priority table (paper Sec 8); most use one
row, the last class several."""

import numpy as np
import pytest

from repro.core.tracking import PriorityTable


class TestBasicOperations:
    def test_empty_tracker(self):
        tracker = PriorityTable()
        assert tracker.peek(0) is None
        assert tracker.pop(0) is None
        assert len(tracker.items(0)) == 0
        assert tracker.get(0, 3) == 0.0

    def test_peek_returns_maximum(self):
        tracker = PriorityTable()
        tracker.update(0, 1, 5.0)
        tracker.update(0, 2, 9.0)
        tracker.update(0, 3, 1.0)
        assert tracker.peek(0) == (2, 9.0)

    def test_pop_removes_maximum(self):
        tracker = PriorityTable()
        tracker.update(0, 1, 5.0)
        tracker.update(0, 2, 9.0)
        assert tracker.pop(0) == (2, 9.0)
        assert tracker.pop(0) == (1, 5.0)
        assert tracker.pop(0) is None

    def test_update_overrides_previous_priority(self):
        tracker = PriorityTable()
        tracker.update(0, 1, 5.0)
        tracker.update(0, 1, 2.0)
        assert tracker.peek(0) == (1, 2.0)
        assert len(tracker.items(0)) == 1

    def test_priority_can_increase(self):
        tracker = PriorityTable()
        tracker.update(0, 1, 2.0)
        tracker.update(0, 2, 3.0)
        tracker.update(0, 1, 10.0)
        assert tracker.pop(0) == (1, 10.0)

    def test_zero_priority_removes(self):
        tracker = PriorityTable()
        tracker.update(0, 1, 5.0)
        tracker.update(0, 1, 0.0)
        assert tracker.peek(0) is None
        assert 1 not in tracker

    def test_remove(self):
        tracker = PriorityTable()
        tracker.update(0, 1, 5.0)
        tracker.update(0, 2, 3.0)
        tracker.remove(1)
        assert tracker.peek(0) == (2, 3.0)

    def test_remove_untracked_is_noop(self):
        tracker = PriorityTable()
        tracker.remove(7)
        assert len(tracker.items(0)) == 0

    def test_contains_and_get(self):
        tracker = PriorityTable()
        tracker.update(0, 4, 2.5)
        assert 4 in tracker
        assert tracker.get(0, 4) == 2.5

    def test_items(self):
        tracker = PriorityTable()
        tracker.update(0, 1, 5.0)
        tracker.update(0, 2, 3.0)
        assert sorted(tracker.items(0)) == [(1, 5.0), (2, 3.0)]

    def test_infinite_priority_supported(self):
        tracker = PriorityTable()
        tracker.update(0, 1, float("inf"))
        tracker.update(0, 2, 100.0)
        assert tracker.pop(0) == (1, float("inf"))


class TestAgainstNaiveArgmax:
    def test_random_operation_sequence_matches_naive(self):
        """The lazy heap must agree with a dict + argmax oracle across a
        long random mix of updates, removes and pops."""
        rng = np.random.default_rng(12345)
        tracker = PriorityTable()
        oracle: dict[int, float] = {}
        for _ in range(3000):
            op = rng.random()
            index = int(rng.integers(0, 40))
            if op < 0.6:
                priority = float(rng.uniform(0.0, 10.0))
                tracker.update(0, index, priority)
                if priority <= 0:
                    oracle.pop(index, None)
                else:
                    oracle[index] = priority
            elif op < 0.8:
                tracker.remove(index)
                oracle.pop(index, None)
            else:
                got = tracker.pop(0)
                if not oracle:
                    assert got is None
                else:
                    best = max(oracle.items(), key=lambda kv: kv[1])
                    assert got is not None
                    assert got[1] == pytest.approx(best[1])
                    oracle.pop(got[0])
            assert len(tracker.items(0)) == len(oracle)


class TestHeapRebuild:
    """Superseded entries are swept out once they outnumber the live
    ones, so the heap tracks the objects, not the update count."""

    def test_heap_stays_bounded_by_live_entries(self):
        rng = np.random.default_rng(7)
        tracker = PriorityTable()
        for step in range(20_000):
            tracker.update(0, int(rng.integers(0, 10)),
                           float(rng.uniform(0.1, 10.0)))
            # at most twice the live entries plus the slack, plus the
            # push that triggers the next rebuild
            assert len(tracker._heaps[0]) <= 2 * 10 + 64 + 1

    def test_rebuild_keeps_the_queue_order(self):
        """Interleaved with pops, a tracker that rebuilt many times hands
        out the same sequence as a dict + argmax oracle, ties included
        (equal priorities leave in (version, index) order)."""
        rng = np.random.default_rng(11)
        tracker = PriorityTable()
        oracle: dict[int, float] = {}
        versions = [0] * 30  # per index: updates and pops so far
        for step in range(5_000):
            index = int(rng.integers(0, 30))
            priority = float(rng.integers(1, 4))  # many ties
            versions[index] += 1
            tracker.update(0, index, priority)
            oracle[index] = priority
            if step % 7 == 0:
                got = tracker.pop(0)
                best = min(oracle, key=lambda i: (-oracle[i], versions[i],
                                                  i))
                versions[best] += 1
                assert got == (best, oracle.pop(best))



class TestRows:
    """Rows are independent queues over one version store."""

    def test_rows_do_not_see_each_other(self):
        tracker = PriorityTable(3, [0] * 6)
        tracker.update(0, 1, 5.0)
        tracker.update(2, 4, 9.0)
        assert tracker.peek(0) == (1, 5.0)
        assert tracker.peek(1) is None
        assert tracker.pop(2) == (4, 9.0)
        assert tracker.peek(2) is None
        assert tracker.peek(0) == (1, 5.0)

    def test_heap_allocated_on_first_push(self):
        tracker = PriorityTable(2, [0] * 4)
        assert tracker._heaps == [None, None]
        tracker.update(1, 3, 0.0)  # zero priority: nothing to push
        assert tracker._heaps == [None, None]
        tracker.update(1, 3, 2.0)
        assert tracker._heaps[0] is None
        assert tracker.items(1) == [(3, 2.0)]

    def test_emptied_heap_is_released(self):
        """A row whose heap empties is ``None`` again, as before its
        first push, and behaves as it did then."""
        tracker = PriorityTable(2, [0] * 6)
        tracker.update(0, 1, 5.0)
        tracker.update(0, 2, 3.0)
        assert tracker.pop(0) == (1, 5.0)
        assert tracker._heaps[0] is not None
        assert tracker.pop(0) == (2, 3.0)  # the last entry
        assert tracker._heaps == [None, None]
        assert tracker.get(0, 2) == 0.0
        assert tracker.items(0) == []
        assert tracker.peek(0) is None
        assert tracker.pop(0) is None
        tracker.update(0, 3, 4.0)
        assert tracker.items(0) == [(3, 4.0)]
        assert tracker.get(0, 3) == 4.0
        assert tracker.pop(0) == (3, 4.0)
        assert tracker._heaps[0] is None
        # a heap left with stale entries only empties on the next peek
        tracker.update(1, 4, 2.0)
        tracker.remove(4)
        assert tracker._heaps[1] is not None
        assert tracker.peek(1) is None
        assert tracker._heaps == [None, None]
        tracker.update(1, 5, 1.0)
        assert tracker.pop(1) == (5, 1.0)

    def test_remove_needs_no_row(self):
        tracker = PriorityTable(2, [0] * 4)
        tracker.update(1, 2, 7.0)
        tracker.remove(2)
        assert 2 not in tracker
        assert tracker.peek(1) is None
