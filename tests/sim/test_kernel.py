"""Tests for the DES kernel: scheduling, ordering, determinism."""

import doctest

import pytest

import repro.sim.kernel
from repro.errors import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_call_in_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.call_in(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_call_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.call_in(1.0, lambda: sim.call_at(5.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [5.0]

    def test_call_at_past_raises(self):
        sim = Simulator()
        sim.call_in(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(1.0, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0)

    def test_fifo_order_for_simultaneous_events(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.call_in(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.call_in(1.0, lambda: seen.append("a"))
        sim.call_in(10.0, lambda: seen.append("b"))
        sim.run(until=5.0)
        assert seen == ["a"]
        assert sim.now == 5.0

    def test_run_until_advances_clock_with_empty_queue(self):
        sim = Simulator()
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_resume_after_until(self):
        sim = Simulator()
        seen = []
        sim.call_in(10.0, lambda: seen.append(sim.now))
        sim.run(until=5.0)
        sim.run(until=20.0)
        assert seen == [10.0]

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        seen = []
        ev = sim.schedule(1.0, lambda: seen.append(1))
        ev.cancel()
        sim.run()
        assert seen == []

    def test_bare_schedule_fires_as_a_counted_time_mark(self):
        sim = Simulator()
        sim.schedule(4.0)
        assert sim.queue_length == 1
        sim.run()
        assert sim.now == 4.0
        assert sim.events_processed == 1 and sim.events_fast == 0

    def test_event_budget_guard(self):
        sim = Simulator()

        def rearm():
            sim.call_in(0.1, rearm)

        sim.call_in(0.1, rearm)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class TestEvery:
    def test_periodic_until_horizon(self):
        sim = Simulator()
        ticks = []
        sim.every(2.0, lambda: ticks.append(sim.now))
        sim.run(until=9.0)
        assert ticks == [2.0, 4.0, 6.0, 8.0]

    def test_start_delay(self):
        sim = Simulator()
        ticks = []
        sim.every(5.0, lambda: ticks.append(sim.now), start_delay=1.0)
        sim.run(until=12.0)
        assert ticks == [1.0, 6.0, 11.0]

    def test_until_bound(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), until=3.5)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_bad_interval(self):
        with pytest.raises(SimulationError):
            Simulator().every(0.0, lambda: None)


class TestDeterminism:
    def _run(self, seed):
        sim = Simulator(seed=seed)
        trail = []
        rng = sim.rng.get("test")

        def tick():
            trail.append((round(sim.now, 6), float(rng.random())))
            sim.call_in(float(rng.exponential(1.0)), tick)

        sim.call_in(0.5, tick)
        sim.run(until=50.0)
        return trail

    def test_same_seed_identical(self):
        assert self._run(11) == self._run(11)

    def test_different_seed_differs(self):
        assert self._run(11) != self._run(12)


def test_kernel_docstring_examples_run():
    result = doctest.testmod(repro.sim.kernel)
    assert result.failed == 0 and result.attempted >= 2
