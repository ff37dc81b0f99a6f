"""The kernel's fire order, checked on the Simulator itself.

``Simulator`` keeps its pending entries as ``(time, seq, payload)`` tuples
in a ``heapq`` heap; the contract is that events fire in exactly
``(time, seq)`` order — ``seq`` being the order the schedule calls were
made in — and that ``run(until=T)`` fires everything due at or before
``T`` and nothing after it.  The property test below drives the public
scheduling API (``call_at``, ``call_in``, ``schedule``, ``call_in_fast``)
with heavy duplicate timestamps, cancellations of queued events and
callbacks that schedule more work, runs the result in ``run(until=...)``
windows, and compares what fired with ``sorted()`` over the keys this test
assigned itself.  It was shown to fail with ``run(until)`` firing one
entry past the horizon.

``Simulator.every`` re-arms on the fast lane; the second property test
holds its firings, interleaved with ``call_in``, ``call_in_fast`` and
``call_at`` at equal times, to the order an Event-lane ``every`` kept here
gives.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

# Exact binary fractions, so now + delay never rounds and ties are real.
TIMES = [0.0, 0.5, 1.0, 1.0, 1.5, 2.5, 2.5, 3.0]
#: Children are scheduled strictly later than their parent fires, so a
#: child's key is above every key fired before it.
DELAYS = [0.5, 1.0, 1.5]
KINDS = ["call_at", "call_in", "schedule", "fast"]
WINDOWS = [0.25, 0.5, 1.0, 1.75, 2.5, 3.0, 4.0]

_child = st.tuples(st.sampled_from(KINDS), st.sampled_from(DELAYS))
_op = st.tuples(
    st.sampled_from(KINDS),
    st.sampled_from(TIMES),
    st.lists(_child, max_size=2),
    # Index of an earlier cancellable event this op's callback cancels.
    st.one_of(st.none(), st.integers(min_value=0, max_value=1000)),
)


class Schedule:
    """A Simulator plus the keys this test expects it to fire, in order."""

    def __init__(self) -> None:
        self.sim = Simulator(seed=0)
        self.seq = 0
        self.keys = []
        self.cancellable = []
        self.cancelled = set()
        self.fired = []

    def add(self, kind, delay, children=(), cancel=None) -> None:
        sim = self.sim
        key = (sim.now + delay, self.seq)
        self.seq += 1
        self.keys.append(key)

        def fire() -> None:
            self.fired.append(key)
            for child in children:
                self.add(*child)
            if cancel is not None:
                self.cancel(cancel)

        event = None
        if kind == "call_at":
            event = sim.call_at(sim.now + delay, fire)
        elif kind == "call_in":
            event = sim.call_in(delay, fire)
        elif kind == "schedule":
            event = sim.schedule(delay, fire)
        else:
            sim.call_in_fast(delay, fire)
        if event is not None:
            self.cancellable.append((key, event))

    def cancel(self, index: int) -> None:
        if not self.cancellable:
            return
        key, event = self.cancellable[index % len(self.cancellable)]
        if key not in self.fired:
            self.cancelled.add(key)
        event.cancel()

    def due(self, until=None):
        return sorted(
            key
            for key in self.keys
            if key not in self.cancelled and (until is None or key[0] <= until)
        )


@given(
    st.lists(_op, min_size=1, max_size=40),
    st.lists(st.integers(min_value=0, max_value=1000), max_size=4),
    st.lists(st.sampled_from(WINDOWS), max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_fire_order_is_sorted_time_seq(ops, upfront_cancels, windows):
    world = Schedule()
    for kind, time, children, cancel in ops:
        world.add(kind, time, children, cancel)
    for index in upfront_cancels:
        world.cancel(index)
    for until in sorted(set(windows)):
        world.sim.run(until=until)
        assert world.fired == world.due(until)
        assert world.sim.now == until
        assert world.sim.queue_length == len(world.due()) - len(world.fired)
    world.sim.run()
    assert world.fired == world.due()
    assert world.sim.queue_length == 0


def test_duplicate_timestamps_preserve_insertion_order():
    sim = Simulator(seed=0)
    order = []
    for k in range(50):
        sim.call_at(1.0, lambda k=k: order.append(k))
    sim.run()
    assert order == list(range(50))


def test_simulator_cancellation_and_reschedule():
    sim = Simulator(seed=1)
    fired = []
    victim = sim.call_at(2.0, lambda: fired.append("victim"))
    sim.call_at(1.0, lambda: fired.append("first"))
    sim.call_at(1.0, victim.cancel)  # cancel while queued
    sim.call_at(3.0, lambda: fired.append("last"))
    sim.run()
    assert fired == ["first", "last"]
    # A cancelled event is invisible to queue_length but still queued
    # internally until its timestamp passes.
    ghost = sim.call_at(10.0, lambda: fired.append("ghost"))
    ghost.cancel()
    assert sim.queue_length == 0
    sim.run()
    assert fired == ["first", "last"]


def test_simulator_fast_lane_counts_and_orders_with_events():
    sim = Simulator(seed=2)
    order = []
    sim.call_at(1.0, lambda: order.append("event@1"))
    sim.call_in_fast(0.5, lambda: order.append("fast@0.5"))
    sim.call_in_fast(1.0, lambda: order.append("fast@1"))  # after event@1: FIFO tie
    sim.call_at(2.0, lambda: order.append("event@2"))
    sim.run()
    assert order == ["fast@0.5", "event@1", "fast@1", "event@2"]
    assert sim.events_fast == 2
    # Fast-lane firings are a subset of the total processed count, so
    # events_per_sec and run telemetry see them.
    assert sim.events_processed == 4


# ---------------------------------------------------------------- every()


def reference_every(sim, interval, fn, *, start_delay=None, until=None, ticks=None):
    """``Simulator.every`` on the Event lane: re-armed through ``call_in``."""
    first = interval if start_delay is None else start_delay

    def tick():
        ticks.append(sim.now)
        if until is not None and sim.now > until:
            return
        fn()
        sim.call_in(interval, tick)

    sim.call_in(first, tick)


EVERY_KINDS = ["every", "call_in", "fast", "call_at"]
INTERVALS = [0.5, 1.0, 1.5]
EVERY_HORIZON = 6.0

_every_child = st.tuples(st.sampled_from(EVERY_KINDS), st.sampled_from(DELAYS))
_every_op = st.tuples(
    st.sampled_from(EVERY_KINDS),
    st.sampled_from(TIMES),
    st.sampled_from(INTERVALS),
    st.one_of(st.none(), st.sampled_from(TIMES)),
    st.lists(_every_child, max_size=2),
)


class EveryWorld:
    """One Simulator driven by a script; ``every`` is the kernel's or the
    Event-lane reference."""

    def __init__(self, reference: bool) -> None:
        self.sim = Simulator(seed=0)
        self.reference = reference
        self.fired = []
        self.ticks = []
        self.n = 0

    def add(self, kind, time, interval=1.0, until=None, children=()) -> None:
        sim = self.sim
        label = self.n
        self.n += 1

        def fire() -> None:
            self.fired.append((label, sim.now))
            for child_kind, delay in children:
                self.add(child_kind, delay)

        if kind == "every":
            if self.reference:
                reference_every(
                    sim, interval, fire, start_delay=time, until=until, ticks=self.ticks
                )
            else:
                sim.every(interval, fire, start_delay=time, until=until)
        elif kind == "call_in":
            sim.call_in(time, fire)
        elif kind == "fast":
            sim.call_in_fast(time, fire)
        else:
            sim.call_at(sim.now + time, fire)


@given(
    st.lists(_every_op, min_size=1, max_size=25),
    st.lists(st.sampled_from(WINDOWS), max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_every_fires_in_the_event_lane_order(ops, windows):
    worlds = [EveryWorld(reference=False), EveryWorld(reference=True)]
    for world in worlds:
        for op in ops:
            world.add(*op)
        for until in sorted(set(windows)) + [EVERY_HORIZON]:
            world.sim.run(until=until)
    actual, reference = worlds
    assert actual.fired == reference.fired
    assert actual.sim.events_processed == reference.sim.events_processed
    # Every tick, the last one that only sees ``until`` pass included, now
    # fires on the fast lane.
    assert actual.sim.events_fast == reference.sim.events_fast + len(reference.ticks)


def test_every_until_stops_the_recurrence():
    sim = Simulator(seed=0)
    ticks = []
    sim.every(1.0, lambda: ticks.append(sim.now), until=3.5)
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]
    # The tick at 4.0 sees ``until`` passed and re-arms nothing.
    assert sim.queue_length == 0 and not sim._queue
    assert sim.events_fast == sim.events_processed == 4


def test_every_profiler_label_is_unchanged():
    sim = Simulator(seed=0)
    profiler = sim.enable_profiling()
    sim.every(1.0, lambda: None, start_delay=0.5)
    sim.run(until=3.0)
    assert [(label, calls) for label, calls, _ in profiler.hot_paths()] == [
        ("Simulator.every.<locals>.tick", 3)
    ]
