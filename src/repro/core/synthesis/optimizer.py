"""Baseline and search-based composers for the synthesis-scale experiment.

Three strategies share one objective, :func:`evaluate_composite`, so the E2
experiment can compare quality-vs-time fairly:

* :class:`RandomComposer` — recruit a random subset of the required size
  (the "no algorithm" baseline).
* :class:`GreedyComposer` (in :mod:`.composer`) — marginal-gain heuristic.
* :class:`AnnealingComposer` — simulated-annealing refinement of the greedy
  solution via member swaps (quality ceiling at higher cost).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.synthesis.composer import (
    CompositeAsset,
    GreedyComposer,
    add_relays,
    finalize_metrics,
)
from repro.core.synthesis.requirements import RequirementSet
from repro.errors import CompositionError
from repro.net.topology import TopologySnapshot
from repro.things.asset import Asset

__all__ = ["evaluate_composite", "RandomComposer", "AnnealingComposer"]


def evaluate_composite(
    composite: CompositeAsset,
    *,
    size_penalty: float = 0.002,
) -> float:
    """Scalar quality of a composite: requirement satisfaction minus cost.

    Score = coverage attainment (0..1) + compute attainment (0..1)
    + connectivity (0..1) - size_penalty * members.  A satisfying composite
    scores near 3 minus its (small) size cost.
    """
    req = composite.requirements
    coverage_score = min(1.0, composite.coverage / req.coverage_target)
    flops_score = min(
        1.0, composite.total_flops / req.compute_flops if req.compute_flops else 1.0
    )
    return (
        coverage_score
        + flops_score
        + composite.connected_fraction
        - size_penalty * composite.size
    )


class RandomComposer:
    """Recruit a uniformly random subset of the required size."""

    name = "random"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def compose(
        self,
        requirements: RequirementSet,
        candidates: Sequence[Asset],
        topology: TopologySnapshot,
    ) -> CompositeAsset:
        if not candidates:
            raise CompositionError("empty candidate pool")
        by_id = {a.id: a for a in candidates}
        n = min(len(candidates), requirements.n_sensors + 3)
        chosen_ids = self.rng.choice(
            sorted(by_id), size=n, replace=False
        ).tolist()
        chosen = [by_id[int(i)] for i in chosen_ids]
        composite = CompositeAsset(requirements=requirements)
        # Sink: the highest-compute member of the random draw.
        sink = max(chosen, key=lambda a: a.profile.compute_flops)
        composite.sink = sink.id
        composite.sensors = [
            a.id
            for a in chosen
            if a.profile.sensing & requirements.modalities and a.id != sink.id
        ]
        composite.compute = []
        add_relays(composite, by_id, topology)
        finalize_metrics(composite, by_id, requirements.goal.area, topology)
        composite.total_flops = sum(
            by_id[m].profile.compute_flops for m in composite.members if m in by_id
        )
        return composite


class AnnealingComposer:
    """Simulated annealing over sensor-set swaps, seeded by greedy.

    Each move swaps one selected sensor for one unselected candidate;
    moves are accepted by the Metropolis rule on :func:`evaluate_composite`.
    """

    name = "annealing"

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        iterations: int = 150,
        t_start: float = 0.2,
        t_end: float = 0.005,
    ):
        if iterations < 1:
            raise CompositionError("iterations must be >= 1")
        self.rng = rng
        self.iterations = iterations
        self.t_start = t_start
        self.t_end = t_end
        self._greedy = GreedyComposer()

    def compose(
        self,
        requirements: RequirementSet,
        candidates: Sequence[Asset],
        topology: TopologySnapshot,
    ) -> CompositeAsset:
        current = self._greedy.compose(requirements, candidates, topology)
        by_id = {a.id: a for a in candidates}
        sensor_pool = [
            a.id
            for a in candidates
            if a.profile.sensing & requirements.modalities
            and a.profile.sensing_range_m > 0
        ]
        if len(sensor_pool) <= len(current.sensors):
            return current

        best = current
        best_score = evaluate_composite(best)
        cur_sensors = list(current.sensors)
        cur_score = best_score
        for i in range(self.iterations):
            frac = i / max(1, self.iterations - 1)
            temperature = self.t_start * (self.t_end / self.t_start) ** frac
            outside = [s for s in sensor_pool if s not in cur_sensors]
            if not outside or not cur_sensors:
                break
            drop = int(self.rng.integers(0, len(cur_sensors)))
            add = outside[int(self.rng.integers(0, len(outside)))]
            trial_sensors = list(cur_sensors)
            trial_sensors[drop] = add
            trial = self._rebuild(
                requirements, by_id, topology, current.sink, trial_sensors
            )
            trial_score = evaluate_composite(trial)
            delta = trial_score - cur_score
            if delta >= 0 or self.rng.random() < math.exp(delta / temperature):
                cur_sensors = trial_sensors
                cur_score = trial_score
                if trial_score > best_score:
                    best, best_score = trial, trial_score
        return best

    def _rebuild(
        self,
        requirements: RequirementSet,
        by_id: Dict[int, Asset],
        topology: TopologySnapshot,
        sink: Optional[int],
        sensors: List[int],
    ) -> CompositeAsset:
        composite = CompositeAsset(requirements=requirements, sink=sink)
        composite.sensors = list(sensors)
        self._greedy._add_compute(composite, requirements, list(by_id.values()))
        add_relays(composite, by_id, topology)
        finalize_metrics(composite, by_id, requirements.goal.area, topology)
        return composite
