"""Tests for mobility models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.channel import Channel
from repro.net.mobility import (
    ManhattanGrid,
    MobilityManager,
    RandomWaypoint,
    StaticMobility,
)
from repro.net.node import Network
from repro.sim import Simulator
from repro.util.geometry import Point, Region

REGION = Region(0, 0, 1000, 1000)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestStatic:
    def test_never_moves(self, rng):
        m = StaticMobility(Point(5, 5))
        for _ in range(10):
            assert m.step(10.0, rng) == Point(5, 5)


class TestRandomWaypoint:
    def test_stays_in_region(self, rng):
        m = RandomWaypoint(Point(500, 500), REGION)
        for _ in range(200):
            assert REGION.contains(m.step(5.0, rng))

    def test_moves_over_time(self, rng):
        m = RandomWaypoint(Point(500, 500), REGION, pause_range=(0.0, 0.0))
        start = m.position
        m.step(60.0, rng)
        assert m.position.distance_to(start) > 0

    def test_speed_bounded(self, rng):
        m = RandomWaypoint(
            Point(500, 500), REGION, speed_range=(1.0, 2.0), pause_range=(0.0, 0.0)
        )
        prev = m.position
        for _ in range(100):
            new = m.step(1.0, rng)
            assert prev.distance_to(new) <= 2.0 + 1e-6
            prev = new

    def test_bad_speed_range(self):
        with pytest.raises(ConfigurationError):
            RandomWaypoint(Point(0, 0), REGION, speed_range=(0.0, 1.0))


class TestManhattan:
    def test_stays_in_region(self, rng):
        m = ManhattanGrid(Point(500, 500), REGION, block_size=100.0)
        for _ in range(300):
            assert REGION.contains(m.step(3.0, rng))

    def test_stays_on_streets(self, rng):
        m = ManhattanGrid(Point(512, 487), REGION, block_size=100.0)
        for _ in range(200):
            p = m.step(2.0, rng)
            on_x = abs(p.x % 100.0) < 1e-6 or abs(p.x % 100.0 - 100.0) < 1e-6
            on_y = abs(p.y % 100.0) < 1e-6 or abs(p.y % 100.0 - 100.0) < 1e-6
            assert on_x or on_y

    def test_snap_puts_point_on_street(self):
        m = ManhattanGrid(Point(555, 543), REGION, block_size=100.0)
        p = m.position
        assert (
            abs(p.x % 100.0) < 1e-6
            or abs(p.y % 100.0) < 1e-6
            or abs(p.x % 100.0 - 100.0) < 1e-6
            or abs(p.y % 100.0 - 100.0) < 1e-6
        )

    def test_bad_block_size(self):
        with pytest.raises(ConfigurationError):
            ManhattanGrid(Point(0, 0), REGION, block_size=0.0)


class TestSeededDeterminism:
    """Same seed -> identical trail; different seed -> different trail.

    Runs at the model level (no simulator), so regressions in a model's
    RNG draw pattern are caught even when manager scheduling masks them.
    """

    def _trail(self, make_model, seed, steps=60, dt=2.0):
        rng = np.random.default_rng(seed)
        model = make_model()
        out = []
        for _ in range(steps):
            p = model.step(dt, rng)
            out.append((p.x, p.y))
        return out

    def _assert_reproducible(self, make_model):
        assert self._trail(make_model, 11) == self._trail(make_model, 11)
        assert self._trail(make_model, 11) != self._trail(make_model, 12)

    def test_random_waypoint(self):
        self._assert_reproducible(
            lambda: RandomWaypoint(Point(500, 500), REGION, pause_range=(0, 0))
        )

    def test_manhattan(self):
        self._assert_reproducible(
            lambda: ManhattanGrid(Point(500, 500), REGION, block_size=100.0)
        )


class TestManager:
    def _build(self, seed=3):
        sim = Simulator(seed=seed)
        net = Network(sim, Channel(shadowing_sigma_db=0, fading_sigma_db=0, seed=seed))
        net.create_node(1, Point(100, 100))
        net.create_node(2, Point(200, 200))
        mgr = MobilityManager(sim, net, update_period_s=1.0)
        return sim, net, mgr

    def test_attach_requires_known_node(self):
        sim, net, mgr = self._build()
        from repro.errors import NetworkError

        with pytest.raises(NetworkError):
            mgr.attach(99, StaticMobility(Point(0, 0)))

    def test_positions_update_over_time(self):
        sim, net, mgr = self._build()
        mgr.attach(1, RandomWaypoint(Point(100, 100), REGION, pause_range=(0, 0)))
        mgr.attach(2, StaticMobility(Point(200, 200)))
        mgr.start()
        sim.run(until=30.0)
        assert net.node(1).position != Point(100, 100)
        assert net.node(2).position == Point(200, 200)

    def test_down_nodes_not_moved(self):
        sim, net, mgr = self._build()
        mgr.attach(1, RandomWaypoint(Point(100, 100), REGION, pause_range=(0, 0)))
        mgr.start()
        net.fail_node(1)
        sim.run(until=10.0)
        assert net.node(1).position == Point(100, 100)

    def test_deterministic(self):
        def trail(seed):
            sim, net, mgr = self._build(seed)
            mgr.attach(1, RandomWaypoint(Point(100, 100), REGION))
            mgr.start()
            out = []
            sim.every(5.0, lambda: out.append((net.node(1).position.x, net.node(1).position.y)))
            sim.run(until=50.0)
            return out

        assert trail(4) == trail(4)
        assert trail(4) != trail(5)

    def test_start_idempotent(self):
        sim, net, mgr = self._build()
        mgr.attach(1, StaticMobility(Point(100, 100)))
        mgr.start()
        mgr.start()
        sim.run(until=5.0)  # would double-step if started twice
