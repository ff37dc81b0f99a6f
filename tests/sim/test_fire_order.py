"""The kernel's fire order, checked on the Simulator itself.

``Simulator`` keeps its pending entries as ``(time, priority, seq, payload)``
tuples in a ``heapq`` heap; the contract is that events fire in exactly
``(time, priority, seq)`` order — ``seq`` being the order the schedule
calls were made in — and that ``run(until=T)`` fires everything due at or
before ``T`` and nothing after it.  The property test below drives the
public scheduling API (``call_at``, ``call_in``, ``schedule(priority=...)``,
``call_in_fast``) with heavy duplicate timestamps, priorities -2..2,
cancellations of queued events and callbacks that schedule more work, runs
the result in ``run(until=...)`` windows, and compares what fired with
``sorted()`` over the keys this test assigned itself.  It was shown to fail
with the priority dropped from the queued tuple and with ``run(until)``
firing one entry past the horizon.
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

_priorities = st.integers(min_value=-2, max_value=2)
_child = st.tuples(st.sampled_from(KINDS), st.sampled_from(DELAYS), _priorities)
_op = st.tuples(
    st.sampled_from(KINDS),
    st.sampled_from(TIMES),
    _priorities,
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

    def add(self, kind, delay, priority, children=(), cancel=None) -> None:
        sim = self.sim
        if kind in ("call_at", "call_in"):
            priority = 0
        key = (sim.now + delay, priority, self.seq)
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
            event = sim.schedule(delay, priority=priority)
            event.add_callback(lambda _ev: fire())
        else:
            sim.call_in_fast(delay, fire, priority=priority)
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
def test_fire_order_is_sorted_time_priority_seq(ops, upfront_cancels, windows):
    world = Schedule()
    for kind, time, priority, children, cancel in ops:
        world.add(kind, time, priority, children, cancel)
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


def test_priority_breaks_time_ties():
    sim = Simulator(seed=0)
    order = []
    sim.schedule(1.0, priority=1).add_callback(lambda _ev: order.append("late"))
    sim.schedule(1.0, priority=-1).add_callback(lambda _ev: order.append("early"))
    sim.call_in_fast(1.0, lambda: order.append("mid"))
    sim.run()
    assert order == ["early", "mid", "late"]


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
