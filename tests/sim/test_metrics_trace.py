"""Tests for metric recording and tracing."""

import math

import pytest

from repro.sim import Simulator
from repro.sim.metrics import TimeSeries


class TestTimeSeries:
    def test_window(self):
        ts = TimeSeries("x")
        for t, v in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            ts.add(t, v)
        assert ts.window(1, 3) == [2, 3]

    def test_window_duplicate_timestamps(self):
        # Samples sharing a timestamp: all land on one side of the bound.
        ts = TimeSeries("x")
        for t, v in [(0, 1), (1, 2), (1, 3), (1, 4), (2, 5)]:
            ts.add(t, v)
        # All duplicates at t=1 belong to the window starting at 1 ...
        assert ts.window(1, 2) == [2, 3, 4]
        # ... and none to the half-open window ending at 1 ...
        assert ts.window(0, 1) == [1]
        # ... unless the closed-interval variant is requested.
        assert ts.window(0, 1, include_end=True) == [1, 2, 3, 4]

    def test_window_tiles_without_double_counting(self):
        ts = TimeSeries("x")
        for t, v in [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5)]:
            ts.add(t, v)
        tiled = ts.window(0, 1) + ts.window(1, 2) + ts.window(2, 3)
        assert tiled == [1, 2, 3, 4]

    def test_window_empty_cases(self):
        ts = TimeSeries("x")
        assert ts.window(0, 10) == []  # no samples at all
        ts.add(5.0, 1.0)
        assert ts.window(0, 5) == []       # half-open excludes the sample
        assert ts.window(6, 10) == []      # fully after the bound
        assert ts.window(3, 3) == []       # zero-width
        assert ts.window(9, 2) == []       # inverted window is empty
        assert ts.window(9, 2, include_end=True) == []

    def test_window_include_end_at_horizon(self):
        # The motivating case: final samples landing exactly on the run
        # horizon must be countable without shifting the end bound.
        ts = TimeSeries("x")
        for t, v in [(99.0, 1), (100.0, 2), (100.0, 3)]:
            ts.add(t, v)
        assert ts.window(0.0, 100.0) == [1]
        assert ts.window(0.0, 100.0, include_end=True) == [1, 2, 3]

    def test_time_average_sample_and_hold(self):
        ts = TimeSeries("x")
        ts.add(0.0, 0.0)
        ts.add(5.0, 10.0)
        # 0 for 5s, then 10 until horizon 10s -> (0*5 + 10*5)/10 = 5
        assert ts.time_average(horizon=10.0) == pytest.approx(5.0)

    def test_time_average_single_sample(self):
        ts = TimeSeries("x")
        ts.add(1.0, 7.0)
        assert ts.time_average() == 7.0

    def test_time_average_empty_nan(self):
        assert math.isnan(TimeSeries("x").time_average())

class TestMetricRecorder:
    def test_sample_timestamps_with_sim_clock(self):
        sim = Simulator()
        sim.call_in(4.0, lambda: sim.metrics.sample("q", 1.5))
        sim.run()
        series = sim.metrics.series("q")
        assert series.times == [4.0]
        assert series.values == [1.5]

    def test_counters(self):
        sim = Simulator()
        sim.metrics.incr("hits")
        sim.metrics.incr("hits", 2)
        assert sim.metrics.counter("hits") == 3
        assert sim.metrics.counter("misses") == 0

class TestTraceLog:
    def test_emit_and_filter(self):
        sim = Simulator()
        sim.call_in(1.0, lambda: sim.trace.emit("evt", kind="a", node=1))
        sim.call_in(2.0, lambda: sim.trace.emit("evt", kind="b", node=2))
        sim.run()
        assert [r.category for r in sim.trace.records] == ["evt", "evt"]
        only_a = [r for r in sim.trace.records if r.get("kind") == "a"]
        assert len(only_a) == 1
        assert only_a[0].get("node") == 1

    def test_disabled_records_nothing(self):
        sim = Simulator()
        sim.trace.enabled = False
        sim.trace.emit("evt")
        assert len(sim.trace) == 0

    def test_max_records_cap(self):
        sim = Simulator()
        sim.trace.max_records = 3
        for _ in range(10):
            sim.trace.emit("evt")
        assert len(sim.trace) == 3

    def test_overflow_is_counted_not_silent(self):
        sim = Simulator()
        sim.trace.max_records = 3
        for _ in range(10):
            sim.trace.emit("evt")
        assert sim.trace.dropped == 7

    def test_fingerprint_stable_for_identical_runs(self):
        def run():
            sim = Simulator(seed=5)
            for i in range(20):
                sim.call_in(0.5 * i + 0.1, lambda i=i: sim.trace.emit("t", i=i))
            sim.run()
            return sim.trace.fingerprint()

        assert run() == run()

    def test_record_as_dict(self):
        sim = Simulator()
        sim.trace.emit("cat", a=1, b="x")
        d = sim.trace.records[0].as_dict()
        assert d["category"] == "cat"
        assert d["a"] == 1
        assert d["b"] == "x"
