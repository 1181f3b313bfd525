"""Tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import SimulationError, Simulator, Timer


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == list("abcde")

    def test_priority_breaks_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("late"), priority=5)
        sim.schedule(1.0, lambda: order.append("early"), priority=-5)
        sim.run()
        assert order == ["early", "late"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_past_absolute_time_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(1.0, lambda: seen.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 2.0)]


class TestRunControl:
    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_leaves_later_events_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.pending() == 1

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_step_returns_false_on_empty_queue(self):
        assert Simulator().step() is False

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_ignores_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending() == 1


class TestHeapCompaction:
    """Cancelled events must not grow the heap beyond O(live events)."""

    def test_restart_churn_keeps_heap_bounded(self):
        # Timer.restart cancels and re-schedules; 10k restarts used to leave
        # 10k dead entries in the queue for the rest of the run.
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        for _ in range(10_000):
            timer.restart(1.0)
        assert sim.pending() == 1
        # Compaction triggers when dead entries exceed both the floor (64)
        # and half the queue, so the raw heap stays within a small constant
        # of the live count.
        assert sim.queue_size() < 200
        sim.run()
        assert sim.pending() == 0

    def test_many_timers_churning(self):
        sim = Simulator()
        fired = []
        timers = [
            Timer(sim, lambda i=i: fired.append(i)) for i in range(50)
        ]
        for round_no in range(100):
            for timer in timers:
                timer.restart(1.0 + round_no * 1e-3)
        assert sim.pending() == 50
        assert sim.queue_size() < 50 + 2 * 64 + 2
        sim.run()
        assert sorted(fired) == list(range(50))

    def test_compaction_preserves_order(self):
        sim = Simulator()
        order = []
        handles = []
        for i in range(300):
            handles.append(sim.schedule(float(i), lambda i=i: order.append(i)))
        for handle in handles[::2]:  # cancel 150 of 300: compaction fires
            handle.cancel()
        sim.run()
        assert order == list(range(1, 300, 2))

    def test_cancel_after_fire_does_not_corrupt_dead_count(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # no-op: the event already fired
        sim.schedule(1.0, lambda: None)
        assert sim.pending() == 1

    def test_pending_is_queue_minus_dead(self):
        sim = Simulator()
        keep = [sim.schedule(1.0, lambda: None) for _ in range(10)]
        drop = [sim.schedule(2.0, lambda: None) for _ in range(10)]
        for handle in drop:
            handle.cancel()
            handle.cancel()  # idempotent: must not double-count
        assert sim.pending() == 10


class TestDeterminism:
    def test_rng_streams_are_reproducible(self):
        a = Simulator(seed=7).rng("mac-1")
        b = Simulator(seed=7).rng("mac-1")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_rng_streams_are_independent(self):
        sim = Simulator(seed=7)
        stream_a = [sim.rng("a").random() for _ in range(5)]
        sim2 = Simulator(seed=7)
        sim2.rng("b").random()  # consuming another stream must not matter
        stream_a2 = [sim2.rng("a").random() for _ in range(5)]
        assert stream_a == stream_a2

    def test_different_seeds_differ(self):
        a = Simulator(seed=1).rng("x").random()
        b = Simulator(seed=2).rng("x").random()
        assert a != b


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(3.0)
        sim.run()
        assert fired == [3.0]

    def test_restart_supersedes(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(3.0)
        sim.schedule(1.0, lambda: timer.restart(5.0))
        sim.run()
        assert fired == [6.0]

    def test_extend_to_only_extends(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(10.0)
        timer.extend_to(2.0)  # earlier than current expiry: ignored
        sim.run()
        assert fired == [10.0]

    def test_extend_to_later(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.restart(2.0)
        timer.extend_to(10.0)
        sim.run()
        assert fired == [10.0]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.restart(1.0)
        timer.cancel()
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_rearmed_inside_callback(self):
        sim = Simulator()
        count = []

        def tick():
            count.append(sim.now)
            if len(count) < 3:
                timer.restart(1.0)

        timer = Timer(sim, tick)
        timer.restart(1.0)
        sim.run()
        assert count == [1.0, 2.0, 3.0]
