"""Mobility models.

Each model produces successive positions for one node via ``step(dt, rng)``.
The :class:`MobilityManager` drives all models on a fixed update period and
invalidates the network's spatial index once per sweep (not once per node).

Models implemented (the standard MANET set):

* :class:`StaticMobility` — fixed emplacements (unattended ground sensors).
* :class:`RandomWaypoint` — dismounted/vehicle free movement.
* :class:`ManhattanGrid` — movement constrained to urban street grids
  (the paper's mega-city environment).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.net.node import Network
from repro.sim.kernel import Simulator
from repro.util.geometry import Point, Region

__all__ = [
    "MobilityModel",
    "StaticMobility",
    "RandomWaypoint",
    "ManhattanGrid",
    "MobilityManager",
]


class MobilityModel:
    """Base class: one instance per node, owns that node's motion state."""

    def __init__(self, position: Point):
        self.position = position

    def step(self, dt: float, rng: np.random.Generator) -> Point:
        """Advance ``dt`` seconds and return the new position."""
        raise NotImplementedError


class StaticMobility(MobilityModel):
    """A node that never moves."""

    def step(self, dt: float, rng: np.random.Generator) -> Point:
        return self.position


class RandomWaypoint(MobilityModel):
    """Classic random-waypoint: pick a point, travel at a drawn speed, pause."""

    def __init__(
        self,
        position: Point,
        region: Region,
        *,
        speed_range: Tuple[float, float] = (0.5, 2.0),
        pause_range: Tuple[float, float] = (0.0, 10.0),
    ):
        super().__init__(position)
        if speed_range[0] <= 0 or speed_range[1] < speed_range[0]:
            raise ConfigurationError(f"bad speed_range {speed_range}")
        self.region = region
        self.speed_range = speed_range
        self.pause_range = pause_range
        self._target: Optional[Point] = None
        self._speed = 0.0
        self._pause_left = 0.0

    def step(self, dt: float, rng: np.random.Generator) -> Point:
        remaining = dt
        while remaining > 0:
            if self._pause_left > 0:
                used = min(self._pause_left, remaining)
                self._pause_left -= used
                remaining -= used
                continue
            if self._target is None:
                self._target = self.region.sample(rng)
                self._speed = float(rng.uniform(*self.speed_range))
            dist_left = self.position.distance_to(self._target)
            travel_time = dist_left / self._speed if self._speed > 0 else math.inf
            if travel_time <= remaining:
                self.position = self._target
                self._target = None
                self._pause_left = float(rng.uniform(*self.pause_range))
                remaining -= travel_time
            else:
                self.position = self.position.toward(
                    self._target, self._speed * remaining
                )
                remaining = 0.0
        return self.position


class ManhattanGrid(MobilityModel):
    """Street-constrained mobility on a Manhattan block grid.

    Nodes move along grid lines spaced ``block_size`` apart, choosing a new
    direction at each intersection (straight with higher probability than
    turning, per the classic Manhattan model).
    """

    def __init__(
        self,
        position: Point,
        region: Region,
        *,
        block_size: float = 100.0,
        speed_range: Tuple[float, float] = (0.5, 2.0),
        p_turn: float = 0.25,
    ):
        super().__init__(position)
        if block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        self.region = region
        self.block_size = block_size
        self.speed_range = speed_range
        self.p_turn = p_turn
        self.position = self._snap(position)
        self._direction: Optional[Tuple[int, int]] = None
        self._speed = 0.0

    def _snap(self, p: Point) -> Point:
        """Snap to the nearest street (grid line) in one axis."""
        gx = round((p.x - self.region.x_min) / self.block_size)
        gy = round((p.y - self.region.y_min) / self.block_size)
        sx = self.region.x_min + gx * self.block_size
        sy = self.region.y_min + gy * self.block_size
        if abs(p.x - sx) <= abs(p.y - sy):
            return self.region.clamp(Point(sx, p.y))
        return self.region.clamp(Point(p.x, sy))

    def _at_intersection(self) -> bool:
        rx = (self.position.x - self.region.x_min) % self.block_size
        ry = (self.position.y - self.region.y_min) % self.block_size
        eps = 1e-6
        return (rx < eps or rx > self.block_size - eps) and (
            ry < eps or ry > self.block_size - eps
        )

    def _pick_direction(self, rng: np.random.Generator) -> Tuple[int, int]:
        dirs = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        if self._direction is not None and rng.random() > self.p_turn:
            return self._direction
        idx = int(rng.integers(0, len(dirs)))
        return dirs[idx]

    def step(self, dt: float, rng: np.random.Generator) -> Point:
        if self._direction is None or self._speed <= 0:
            self._direction = self._pick_direction(rng)
            self._speed = float(rng.uniform(*self.speed_range))
        remaining = dt
        while remaining > 1e-9:
            dx, dy = self._direction
            # Distance to the next intersection along the current street.
            if dx != 0:
                offset = (self.position.x - self.region.x_min) % self.block_size
                to_next = self.block_size - offset if dx > 0 else (
                    offset if offset > 1e-9 else self.block_size
                )
            else:
                offset = (self.position.y - self.region.y_min) % self.block_size
                to_next = self.block_size - offset if dy > 0 else (
                    offset if offset > 1e-9 else self.block_size
                )
            step_len = min(self._speed * remaining, to_next)
            new = Point(
                self.position.x + dx * step_len, self.position.y + dy * step_len
            )
            if not self.region.contains(new):
                # Bounce: reverse direction at the region boundary.
                self._direction = (-dx, -dy)
                new = self.region.clamp(new)
            self.position = new
            remaining -= step_len / self._speed if self._speed > 0 else remaining
            if self._at_intersection():
                self._direction = self._pick_direction(rng)
                self._speed = float(rng.uniform(*self.speed_range))
        return self.position


class MobilityManager:
    """Steps all mobility models on a fixed period and updates the network.

    The spatial index is invalidated once per sweep.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        *,
        update_period_s: float = 1.0,
    ):
        if update_period_s <= 0:
            raise ConfigurationError("update_period_s must be positive")
        self.sim = sim
        self.network = network
        self.update_period_s = update_period_s
        self._models: Dict[int, MobilityModel] = {}
        self._rng = sim.rng.get("mobility")
        self._started = False

    def attach(self, node_id: int, model: MobilityModel) -> None:
        self.network.node(node_id)  # validate the id
        self._models[node_id] = model
        self.network.set_position(node_id, model.position)

    def model(self, node_id: int) -> Optional[MobilityModel]:
        return self._models.get(node_id)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.every(self.update_period_s, self._sweep)

    def _sweep(self) -> None:
        for node_id, model in self._models.items():
            node = self.network.node(node_id)
            if node.up:
                node.position = model.step(self.update_period_s, self._rng)
        self.network.invalidate_topology()
