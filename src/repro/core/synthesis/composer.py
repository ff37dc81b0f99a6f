"""Composition: select and wire assets into a composite that meets requirements.

:class:`GreedyComposer` implements the practical algorithm: pick a fusion
sink, greedily add sensors by marginal coverage gain (the classic
(1 - 1/e) submodular-maximization heuristic), add compute until the FLOPS
requirement is met, then add relays along min-ETX paths so every member can
reach the sink.  Baseline composers for the E2 experiment live in
:mod:`repro.core.synthesis.optimizer`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.synthesis.requirements import RequirementSet
from repro.errors import CompositionError
from repro.net.topology import TopologySnapshot
from repro.things.asset import Asset
from repro.util.geometry import Point, Region, distance

__all__ = [
    "CompositeAsset",
    "GreedyComposer",
    "add_relays",
    "coverage_fraction",
    "finalize_metrics",
]

#: Grid resolution used to evaluate area coverage.
_COVERAGE_GRID = 16


class _CoverageGrid:
    """The sample lattice of one area: which of its points a sensing disc covers.

    ``points`` is row-major, as :meth:`Region.grid_points` lays it out: index
    ``row * _COVERAGE_GRID + col`` sits at ``(xs[col], ys[row])``.
    """

    def __init__(self, area: Region):
        self.area = area
        self.points = area.grid_points(_COVERAGE_GRID, _COVERAGE_GRID)
        self.xs = [p.x for p in self.points[:_COVERAGE_GRID]]
        self.ys = [p.y for p in self.points[::_COVERAGE_GRID]]

    def mask(self, position: Point, radius: float) -> int:
        """Bitmask of the sample points within ``radius`` of ``position``.

        Bit ``i`` stands for ``points[i]``.  Every sample point lies inside
        the area rectangle, so a disc that cannot touch the rectangle covers
        none and is rejected without visiting the grid; otherwise only the
        columns and rows within ``radius`` along their own axis are measured
        (a point is never nearer than its offset along one axis).
        """
        if distance(position, self.area.clamp(position)) > radius:
            return 0
        px, py = position.x, position.y
        cols = [c for c, x in enumerate(self.xs) if abs(px - x) <= radius]
        if not cols:
            return 0
        points = self.points
        mask = 0
        for row, y in enumerate(self.ys):
            if abs(py - y) > radius:
                continue
            base = row * _COVERAGE_GRID
            for col in cols:
                if distance(position, points[base + col]) <= radius:
                    mask |= 1 << (base + col)
        return mask


def coverage_fraction(
    sensors: Sequence[Asset], area: Region, *, range_scale: float = 1.0
) -> float:
    """Fraction of a sample grid of ``area`` within some sensor's range."""
    grid = _CoverageGrid(area)
    covered = 0
    for s in sensors:
        covered |= grid.mask(s.position, s.profile.sensing_range_m * range_scale)
    return covered.bit_count() / len(grid.points)


@dataclass
class CompositeAsset:
    """A synthesized composite: members with roles plus achieved metrics."""

    requirements: RequirementSet
    sink: Optional[int] = None  # asset id of the fusion sink
    sensors: List[int] = field(default_factory=list)
    compute: List[int] = field(default_factory=list)
    relays: List[int] = field(default_factory=list)
    coverage: float = 0.0
    total_flops: float = 0.0
    max_path_etx: float = math.inf
    connected_fraction: float = 0.0
    build_time_s: float = 0.0

    @property
    def members(self) -> List[int]:
        """All member asset ids (deduplicated, role order preserved)."""
        seen: Set[int] = set()
        out: List[int] = []
        for aid in (
            ([self.sink] if self.sink is not None else [])
            + self.sensors
            + self.compute
            + self.relays
        ):
            if aid not in seen:
                seen.add(aid)
                out.append(aid)
        return out

    @property
    def size(self) -> int:
        return len(self.members)

    def satisfies(self) -> bool:
        """Does the composite meet its compiled requirements?"""
        req = self.requirements
        return (
            self.coverage >= req.coverage_target
            and self.total_flops >= req.compute_flops
            and self.connected_fraction >= 0.99
        )

    def describe(self) -> str:
        return (
            f"composite: {len(self.sensors)} sensors, {len(self.compute)} "
            f"compute, {len(self.relays)} relays; coverage={self.coverage:.0%}, "
            f"flops={self.total_flops:.2e}, connected={self.connected_fraction:.0%}"
        )


class GreedyComposer:
    """Greedy marginal-gain composition over a candidate pool.

    Parameters
    ----------
    max_sensor_surplus:
        Stop adding sensors after requirement count times this factor even
        if coverage is short (prevents unbounded recruitment in sparse
        regions).
    energy_aware:
        When True, marginal coverage gains are discounted by battery
        depletion, so the composer spreads load onto fresh assets — the
        defense against composing a mission onto nearly-dead batteries
        (the paper's "limitations on energy, power" constraint).
    """

    name = "greedy"

    def __init__(self, *, max_sensor_surplus: float = 2.0, energy_aware: bool = False):
        self.max_sensor_surplus = max_sensor_surplus
        self.energy_aware = energy_aware

    def _energy_factor(self, asset: Asset) -> float:
        if not self.energy_aware or asset.battery is None:
            return 1.0
        return 0.25 + 0.75 * asset.battery.fraction_remaining

    def compose(
        self,
        requirements: RequirementSet,
        candidates: Sequence[Asset],
        topology: TopologySnapshot,
    ) -> CompositeAsset:
        """Build a composite from ``candidates`` under ``requirements``."""
        if not candidates:
            raise CompositionError("empty candidate pool")
        area = requirements.goal.area
        by_id = {a.id: a for a in candidates}
        composite = CompositeAsset(requirements=requirements)

        composite.sink = self._pick_sink(candidates, area, topology)
        self._add_sensors(composite, requirements, candidates, area)
        self._add_compute(composite, requirements, candidates)
        add_relays(composite, by_id, topology)
        finalize_metrics(composite, by_id, area, topology)
        return composite

    # ------------------------------------------------------------------ roles

    def _pick_sink(
        self,
        candidates: Sequence[Asset],
        area: Region,
        topology: TopologySnapshot,
    ) -> int:
        """Highest-compute candidate near the area, biased to connectivity.

        The first candidate with the greatest ``compute_flops * (1 + degree)``
        wins; only candidates that tie on it are compared by distance to the
        area's centre (nearer wins, earliest on a further tie).
        """
        degree_of = dict(topology.graph.degree())
        center = area.center
        best = best_score = best_distance = None
        for asset in candidates:
            score = asset.profile.compute_flops * (1 + degree_of.get(asset.node_id, 0))
            if best is None or score > best_score:
                best, best_score, best_distance = asset, score, None
            elif score == best_score:
                if best_distance is None:
                    best_distance = distance(best.position, center)
                d = distance(asset.position, center)
                if d < best_distance:
                    best, best_distance = asset, d
        return best.id

    def _add_sensors(
        self,
        composite: CompositeAsset,
        requirements: RequirementSet,
        candidates: Sequence[Asset],
        area: Region,
    ) -> None:
        grid = _CoverageGrid(area)
        points = grid.points
        # (asset id, coverage mask, energy weight) of every sensor that sees
        # at least one sample point, in candidate order: geometry is measured
        # once here, the greedy rounds below are integer ops.
        pool: List[Tuple[int, int, float]] = []
        for a in candidates:
            r = a.profile.sensing_range_m
            if a.profile.sensing & requirements.modalities and r > 0:
                mask = grid.mask(a.position, r)
                if mask:
                    pool.append((a.id, mask, self._energy_factor(a)))
        uncovered = (1 << len(points)) - 1
        chosen: List[int] = []
        budget = max(
            requirements.n_sensors,
            int(requirements.n_sensors * self.max_sensor_surplus),
        )
        while uncovered and len(chosen) < budget and pool:
            best = -1
            best_score = 0.0
            for idx, (_aid, mask, weight) in enumerate(pool):
                score = (mask & uncovered).bit_count() * weight
                if score > best_score:
                    best_score = score
                    best = idx
            if best < 0:
                break
            # pop by index: list.remove() would compare assets field by field
            # and drop the first *equal* candidate, not the chosen one.
            aid, mask, _weight = pool.pop(best)
            chosen.append(aid)
            uncovered &= ~mask
            covered_frac = 1.0 - uncovered.bit_count() / len(points)
            if (
                covered_frac >= requirements.coverage_target
                and len(chosen) >= requirements.n_sensors
            ):
                break
        composite.sensors = chosen

    def _add_compute(
        self,
        composite: CompositeAsset,
        requirements: RequirementSet,
        candidates: Sequence[Asset],
    ) -> None:
        have = {composite.sink, *composite.sensors}
        flops = sum(
            a.profile.compute_flops
            for a in candidates
            if a.id in have
        )
        added: List[int] = []
        if flops < requirements.compute_flops:
            pool = sorted(
                (a for a in candidates if a.id not in have),
                key=lambda a: a.profile.compute_flops * self._energy_factor(a),
                reverse=True,
            )
            for asset in pool:
                if flops >= requirements.compute_flops:
                    break
                if asset.profile.compute_flops <= 0:
                    break
                flops += asset.profile.compute_flops
                added.append(asset.id)
        composite.compute = added
        composite.total_flops = flops


def add_relays(
    composite: CompositeAsset,
    by_id: Dict[int, Asset],
    topology: TopologySnapshot,
) -> None:
    """Add path nodes so every member reaches the sink in the topology."""
    sink_asset = by_id.get(composite.sink)
    if sink_asset is None:
        return
    sink_node = sink_asset.node_id
    paths = topology.paths_to(sink_node)
    node_to_asset = {a.node_id: a.id for a in by_id.values()}
    member_ids = set(composite.members)
    relays: List[int] = []
    for aid in list(member_ids):
        asset = by_id.get(aid)
        if asset is None or asset.node_id == sink_node:
            continue
        path = paths.get(asset.node_id)
        if path is None:
            continue
        for node_id in path[1:-1]:
            relay_aid = node_to_asset.get(node_id)
            if relay_aid is not None and relay_aid not in member_ids:
                member_ids.add(relay_aid)
                relays.append(relay_aid)
    composite.relays = relays


def finalize_metrics(
    composite: CompositeAsset,
    by_id: Dict[int, Asset],
    area: Region,
    topology: TopologySnapshot,
) -> None:
    """Fill in achieved coverage, connectivity and worst member-to-sink ETX."""
    sensor_assets = [by_id[a] for a in composite.sensors if a in by_id]
    composite.coverage = coverage_fraction(sensor_assets, area)
    sink_asset = by_id.get(composite.sink)
    if sink_asset is None:
        composite.connected_fraction = 0.0
        return
    paths = topology.paths_to(sink_asset.node_id)
    reachable = 0
    worst_etx = 0.0
    others = [m for m in composite.members if m != composite.sink]
    for aid in others:
        asset = by_id.get(aid)
        if asset is None:
            continue
        path = paths.get(asset.node_id)
        if path is not None:
            reachable += 1
            worst_etx = max(worst_etx, topology.path_etx(path))
    composite.connected_fraction = (
        reachable / len(others) if others else 1.0
    )
    composite.max_path_etx = worst_etx if reachable else math.inf
