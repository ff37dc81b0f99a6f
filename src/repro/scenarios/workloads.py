"""Workload generators: targets to track and event fields.

Targets are *ghost* entities — they move through the world and are observed
by sensors, but are not network nodes.  Event fields generate the binary
world events that human sources report on (social sensing).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.net.mobility import MobilityModel, RandomWaypoint
from repro.sim.kernel import Simulator
from repro.util.geometry import Point, Region

__all__ = ["Target", "TargetGroup", "EventField"]

_target_ids = itertools.count(1)


class Target:
    """A tracked entity (e.g., one insurgent) with its own mobility model."""

    def __init__(self, model: MobilityModel, target_id: Optional[int] = None):
        self.id = target_id if target_id is not None else next(_target_ids)
        self.model = model

    @property
    def position(self) -> Point:
        return self.model.position

    def step(self, dt: float, rng: np.random.Generator) -> Point:
        return self.model.step(dt, rng)


class TargetGroup:
    """A dispersed group of targets moving through the region.

    Matches the paper's motivating task: "tracking a dispersed group of
    humans and vehicles moving through cluttered environments".
    """

    def __init__(
        self,
        sim: Simulator,
        region: Region,
        n_targets: int,
        *,
        speed_range=(0.8, 2.5),
        update_period_s: float = 1.0,
    ):
        if n_targets < 1:
            raise ConfigurationError("n_targets must be >= 1")
        self.sim = sim
        self.region = region
        self.update_period_s = update_period_s
        self._rng = sim.rng.get("targets")
        self.targets: List[Target] = []
        for _i in range(n_targets):
            start = region.sample(self._rng)
            model = RandomWaypoint(
                start, region, speed_range=speed_range, pause_range=(0.0, 5.0)
            )
            self.targets.append(Target(model))
        self._started = False

    def start(self) -> None:
        if not self._started:
            self._started = True
            self.sim.every(self.update_period_s, self._step_all)

    def _step_all(self) -> None:
        for target in self.targets:
            target.step(self.update_period_s, self._rng)

    def positions(self) -> Dict[int, Point]:
        return {t.id: t.position for t in self.targets}

    def __len__(self) -> int:
        return len(self.targets)


class EventField:
    """Binary world events scattered in the region (for social sensing).

    Each event has a ground-truth value; honest sources tend to report it,
    malicious sources invert it.  ``refresh`` re-draws truth values to model
    a changing situation.
    """

    def __init__(
        self,
        sim: Simulator,
        region: Region,
        n_events: int,
        *,
        p_true: float = 0.5,
    ):
        if n_events < 1:
            raise ConfigurationError("n_events must be >= 1")
        self.sim = sim
        self.region = region
        self._rng = sim.rng.get("events")
        self.positions: Dict[int, Point] = {}
        self.truth: Dict[int, bool] = {}
        self.p_true = p_true
        for event_id in range(1, n_events + 1):
            self.positions[event_id] = region.sample(self._rng)
            self.truth[event_id] = bool(self._rng.random() < p_true)

    def refresh(self, fraction: float = 1.0) -> None:
        """Re-draw truth for a random ``fraction`` of events."""
        ids = sorted(self.truth)
        k = max(0, min(len(ids), int(round(fraction * len(ids)))))
        chosen = self._rng.choice(ids, size=k, replace=False) if k else []
        for event_id in chosen:
            self.truth[int(event_id)] = bool(self._rng.random() < self.p_true)

    def __len__(self) -> int:
        return len(self.truth)
