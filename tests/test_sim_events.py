"""Tests for the event queue primitives."""

import pytest

from repro.sim.events import Event, EventQueue, Phase, WakeupSet


class TestPhaseOrdering:
    def test_phases_are_ordered(self):
        assert Phase.UPDATES < Phase.NETWORK < Phase.SOURCES
        assert Phase.SOURCES < Phase.CACHE < Phase.METRICS < Phase.DEFAULT


def pop_all(queue):
    popped = []
    while (event := queue.pop()) is not None:
        popped.append(event)
    return popped


class TestEventQueue:
    def test_pop_order_uses_time_first(self):
        queue = EventQueue()
        late = queue.push(2.0, Phase.UPDATES, lambda: None)
        early = queue.push(1.0, Phase.DEFAULT, lambda: None)
        assert pop_all(queue) == [early, late]

    def test_pop_order_uses_phase_second(self):
        queue = EventQueue()
        cache = queue.push(1.0, Phase.CACHE, lambda: None)
        updates = queue.push(1.0, Phase.UPDATES, lambda: None)
        assert pop_all(queue) == [updates, cache]

    def test_pop_order_uses_seq_last(self):
        queue = EventQueue()
        first = queue.push(1.0, Phase.CACHE, lambda: None)
        second = queue.push(1.0, Phase.CACHE, lambda: None)
        assert pop_all(queue) == [first, second]

    def test_events_have_no_ordering(self):
        """The queue orders its entries; two events never compare."""
        queue = EventQueue()
        first = queue.push(1.0, Phase.CACHE, lambda: None)
        second = queue.push(2.0, Phase.CACHE, lambda: None)
        assert isinstance(first, Event)
        with pytest.raises(TypeError):
            first < second

    def test_pop_until_leaves_later_events(self):
        queue = EventQueue()
        first = queue.push(1.0, Phase.DEFAULT, lambda: None)
        dead = queue.push(1.5, Phase.DEFAULT, lambda: None)
        later = queue.push(2.0, Phase.DEFAULT, lambda: None)
        dead.cancel()
        assert queue.pop(until=1.0) is first
        assert queue.pop(until=1.9) is None
        assert queue.heap_size == 1  # the dead head was evicted
        assert queue.pop(until=2.0) is later

    def test_cancel_after_clear_keeps_the_count(self):
        queue = EventQueue()
        event = queue.push(1.0, Phase.DEFAULT, lambda: None)
        queue.clear()
        event.cancel()
        assert len(queue) == 0

    def test_pop_empty_returns_none(self):
        queue = EventQueue()
        assert queue.pop() is None
        assert queue.peek_time() is None

    def test_pop_order_is_time_phase_seq(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, Phase.UPDATES, lambda: order.append("c"))
        queue.push(1.0, Phase.CACHE, lambda: order.append("b"))
        queue.push(1.0, Phase.UPDATES, lambda: order.append("a"))
        while (event := queue.pop()) is not None:
            event.action()
        assert order == ["a", "b", "c"]

    def test_fifo_among_equal_keys(self):
        queue = EventQueue()
        order = []
        for tag in ("x", "y", "z"):
            queue.push(1.0, Phase.DEFAULT,
                       lambda tag=tag: order.append(tag))
        while (event := queue.pop()) is not None:
            event.action()
        assert order == ["x", "y", "z"]

    def test_len_counts_live_events(self):
        queue = EventQueue()
        queue.push(1.0, Phase.DEFAULT, lambda: None)
        event = queue.push(2.0, Phase.DEFAULT, lambda: None)
        assert len(queue) == 2
        event.cancel()
        queue.peek_time()  # force lazy discard
        assert len(queue) == 1

    def test_cancelled_event_is_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, Phase.DEFAULT, lambda: None)
        keeper = queue.push(2.0, Phase.DEFAULT, lambda: None)
        event.cancel()
        assert queue.pop() is keeper
        assert queue.pop() is None

    def test_cancel_is_idempotent(self):
        queue = EventQueue()
        event = queue.push(1.0, Phase.DEFAULT, lambda: None)
        event.cancel()
        event.cancel()
        assert queue.pop() is None

    def test_peek_time_reports_next_live_event(self):
        queue = EventQueue()
        first = queue.push(1.0, Phase.DEFAULT, lambda: None)
        queue.push(3.0, Phase.DEFAULT, lambda: None)
        assert queue.peek_time() == pytest.approx(1.0)
        first.cancel()
        assert queue.peek_time() == pytest.approx(3.0)


class TestHeapCompaction:
    def test_cancelled_events_are_evicted_from_deep_in_the_heap(self):
        """Cancel/reschedule churn must not grow the heap unboundedly."""
        queue = EventQueue()
        keeper = queue.push(1000.0, Phase.DEFAULT, lambda: None)
        for k in range(5000):
            event = queue.push(1.0 + k * 1e-6, Phase.DEFAULT, lambda: None)
            event.cancel()
        assert len(queue) == 1
        # Cancelled events never reach the top, yet the heap stays small.
        assert queue.heap_size < 2 * EventQueue.COMPACT_MIN_SIZE
        assert queue.pop() is keeper

    def test_small_heaps_skip_compaction(self):
        queue = EventQueue()
        events = [queue.push(float(k), Phase.DEFAULT, lambda: None)
                  for k in range(10)]
        for event in events[:8]:
            event.cancel()
        assert queue.heap_size == 10  # below the compaction floor
        assert len(queue) == 2

    def test_compaction_preserves_pop_order(self):
        queue = EventQueue()
        live = []
        for k in range(300):
            event = queue.push(float(k), Phase.DEFAULT, lambda k=k: k)
            if k % 5 == 0:
                live.append(event)
            else:
                event.cancel()
        popped = []
        while (event := queue.pop()) is not None:
            popped.append(event)
        assert popped == live


class TestWakeupSet:
    def test_pop_due_returns_keys_ascending(self):
        wakeups = WakeupSet()
        for key in (7, 2, 9, 4):
            wakeups.arm(key, 1.0)
        assert wakeups.pop_due(1.0) == [2, 4, 7, 9]
        assert len(wakeups) == 0

    def test_pop_due_leaves_future_entries(self):
        wakeups = WakeupSet()
        wakeups.arm(1, 1.0)
        wakeups.arm(2, 5.0)
        assert wakeups.pop_due(2.0) == [1]
        assert 2 in wakeups
        assert wakeups.peek_time() == pytest.approx(5.0)

    def test_arm_is_earliest_wins(self):
        wakeups = WakeupSet()
        wakeups.arm(1, 5.0)
        wakeups.arm(1, 2.0)  # moves earlier
        wakeups.arm(1, 9.0)  # ignored: later than pending
        assert wakeups.wake_time(1) == pytest.approx(2.0)
        assert wakeups.pop_due(2.0) == [1]

    def test_reschedule_replaces_even_with_later_time(self):
        wakeups = WakeupSet()
        wakeups.reschedule(1, 2.0)
        wakeups.reschedule(1, 8.0)
        assert wakeups.pop_due(5.0) == []
        assert wakeups.pop_due(8.0) == [1]

    def test_epsilon_slack_matches_deadline_comparisons(self):
        wakeups = WakeupSet()
        wakeups.arm(1, 3.0 + 5e-13)
        assert wakeups.pop_due(3.0) == []
        assert wakeups.pop_due(3.0, eps=1e-12) == [1]

    def test_integer_tick_keys(self):
        """Tick-number wakeups (exact integers) work like float times."""
        wakeups = WakeupSet()
        wakeups.arm("a", 3)
        wakeups.arm("b", 1)
        assert wakeups.pop_due(2) == ["b"]
        assert wakeups.pop_due(3) == ["a"]
