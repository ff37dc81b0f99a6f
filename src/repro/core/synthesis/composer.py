"""Composition: select and wire assets into a composite that meets requirements.

:class:`GreedyComposer` implements the practical algorithm: pick a fusion
sink, greedily add sensors by marginal coverage gain (the classic
(1 - 1/e) submodular-maximization heuristic), add compute until the FLOPS
requirement is met, then add relays along min-ETX paths so every member can
reach the sink.  Baseline composers for the E2 experiment live in
:mod:`repro.core.synthesis.optimizer`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

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
_GRID_POINTS = _COVERAGE_GRID * _COVERAGE_GRID

#: Half-width of the band around r**2, relative to it, inside which a
#: squared distance is too close to call and ``distance()`` decides.  Float
#: error in either square is ~1e-16 relative; the absolute floor covers
#: squares that underflow.
_BAND = 1e-9
_BAND_FLOOR = 1e-300

#: Goal areas whose grid stays built, and (area, modalities) pairs whose
#: masks a GreedyComposer carries across pools (a service asks about a few
#: areas over and over; a grid is two 16-float arrays).
_GRIDS_KEPT = 64


def _settled(d2: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Split squared distances into (surely within r, too close to call)."""
    within = d2 < lo
    return within, ~(within | (d2 > hi))


class _CoverageGrid:
    """The sample lattice of one area: which of its points sensing discs cover.

    Point ``row * _COVERAGE_GRID + col`` sits at ``(xs[col], ys[row])``, the
    row-major order of :meth:`Region.grid_points`.  One grid serves every
    question about its area (:func:`_grid_of`) and is never written after
    construction.
    """

    def __init__(self, area: Region):
        self.area = area
        points = area.grid_points(_COVERAGE_GRID, _COVERAGE_GRID)
        self.xs = np.array([p.x for p in points[:_COVERAGE_GRID]])
        self.ys = np.array([p.y for p in points[::_COVERAGE_GRID]])
        self.xs.flags.writeable = False
        self.ys.flags.writeable = False

    def masks(self, sensors: Sequence[Asset], discs: Optional["_Discs"] = None) -> List[int]:
        """Per sensor, the bitmask of sample points within its sensing range.

        Bit ``i`` is set exactly when ``distance(position, point_i) <= r``,
        in one numpy pass over all sensors (``discs``, when given, are their
        centres and radii gathered already).  Every sample point lies inside
        the area rectangle, so a disc farther than ``r`` from the rectangle
        covers none, and a point is never nearer than its offset along one
        axis, so only columns and rows with ``abs(p - x) <= r`` are measured
        (both screens compare exactly as ``distance()`` would).  The squared
        distance then decides every point outside a relative ``_BAND`` of
        ``r**2``; the few inside it are asked of ``distance()`` itself.
        """
        n = len(sensors)
        if not n:
            return []
        if discs is None:
            discs = _Discs(sensors)
        positions, radii = discs.positions, discs.radii
        px, py, r = discs.px, discs.py, discs.r
        r2 = r * r
        slack = r2 * _BAND + _BAND_FLOOR
        lo, hi = r2 - slack, r2 + slack

        area = self.area
        ex = px - np.minimum(np.maximum(px, area.x_min), area.x_max)
        ey = py - np.minimum(np.maximum(py, area.y_min), area.y_max)
        touches, unsure = _settled(ex * ex + ey * ey, lo, hi)
        for k in np.flatnonzero(unsure).tolist():
            position = positions[k]
            touches[k] = not distance(position, area.clamp(position)) > radii[k]
        dx = px[:, None] - self.xs
        dy = py[:, None] - self.ys
        cols = np.abs(dx) <= r[:, None]
        rows = np.abs(dy) <= r[:, None]
        reach = np.flatnonzero(touches & cols.any(axis=1) & rows.any(axis=1))

        masks = [0] * n
        if not reach.size:
            return masks
        dx, dy = dx[reach], dy[reach]
        d2 = (dy * dy)[:, :, None] + (dx * dx)[:, None, :]
        measured = rows[reach][:, :, None] & cols[reach][:, None, :]
        within, unsure = _settled(d2, lo[reach, None, None], hi[reach, None, None])
        within &= measured
        for j, row, col in zip(*(a.tolist() for a in np.nonzero(unsure & measured))):
            k = int(reach[j])
            point = Point(float(self.xs[col]), float(self.ys[row]))
            within[j, row, col] = distance(positions[k], point) <= radii[k]
        packed = np.packbits(within.reshape(reach.size, _GRID_POINTS), axis=1, bitorder="little")
        for k, row_bytes in zip(reach.tolist(), packed):
            masks[k] = int.from_bytes(row_bytes.tobytes(), "little")
        return masks


class _Discs:
    """The sensing discs of some sensors: centres and radii, as the sensors
    hold them and as the arrays :meth:`_CoverageGrid.masks` computes on."""

    def __init__(self, sensors: Sequence[Asset]):
        self.positions = [s.position for s in sensors]
        self.radii = [s.profile.sensing_range_m for s in sensors]
        self.px = np.array([p.x for p in self.positions])
        self.py = np.array([p.y for p in self.positions])
        self.r = np.array(self.radii, dtype=float)


@functools.lru_cache(maxsize=_GRIDS_KEPT)
def _grid_of(area: Region) -> _CoverageGrid:
    """The one sample grid of ``area`` (``Region`` is frozen, so it keys a cache)."""
    return _CoverageGrid(area)


def coverage_fraction(sensors: Sequence[Asset], area: Region) -> float:
    """Fraction of a sample grid of ``area`` within some sensor's range."""
    covered = 0
    for mask in _grid_of(area).masks(sensors):
        covered |= mask
    return covered.bit_count() / _GRID_POINTS


class _SensorTable:
    """The candidates of one pool that sense one modality set, in pool order,
    with their discs gathered once."""

    def __init__(self, candidates: Sequence[Asset], modalities: frozenset):
        self.modalities = modalities
        self.sensors = [
            a
            for a in candidates
            if a.profile.sensing & modalities and a.profile.sensing_range_m > 0
        ]
        self.discs = _Discs(self.sensors)
        self.index = {a.id: k for k, a in enumerate(self.sensors)}

    def current(self) -> bool:
        """Does every sensor still stand where its disc was gathered?  A live
        asset in a kept pool moves with its node."""
        return [a.position for a in self.sensors] == self.discs.positions

    def carry(self, old: "_SensorTable", old_masks: List[int]) -> Tuple[List[int], List[int]]:
        """``old_masks`` (one per sensor of ``old``) moved onto this table.

        A sensor keeps the mask ``old`` holds under its id while its centre
        and radius are the ones measured there; the rest get 0 and come back
        as the indices still to measure.
        """
        where = old.index
        old_positions, old_radii = old.discs.positions, old.discs.radii
        masks = [0] * len(self.sensors)
        fresh: List[int] = []
        discs = zip(self.sensors, self.discs.positions, self.discs.radii)
        for k, (asset, position, radius) in enumerate(discs):
            j = where.get(asset.id)
            # Identity first: a record kept across epochs keeps its Point.
            if j is not None and old_radii[j] == radius and (
                old_positions[j] is position or old_positions[j] == position
            ):
                masks[k] = old_masks[j]
            else:
                fresh.append(k)
        return masks, fresh


class _PoolTables:
    """What every compose over one pool and topology reads alike.

    The candidates that tie on the top sink score, the id and node tables of
    :func:`add_relays`, and per modality set a :class:`_SensorTable`, filled
    on first use and published copy-on-write.
    """

    def __init__(self, candidates: Sequence[Asset], topology: TopologySnapshot, *, kept: bool):
        self.candidates = candidates
        self.topology = topology
        self.kept = kept
        self.by_id = {a.id: a for a in candidates}
        self.node_to_asset = {a.node_id: a.id for a in self.by_id.values()}
        self.sink_ties = _sink_ties(candidates, topology)
        self._sensors: Dict[frozenset, _SensorTable] = {}

    def sensors(self, modalities: frozenset) -> _SensorTable:
        table = self._sensors.get(modalities)
        if table is None or not table.current():
            table = _SensorTable(self.candidates, modalities)
            self._sensors = {**self._sensors, modalities: table}
        return table


def _sink_ties(candidates: Sequence[Asset], topology: TopologySnapshot) -> List[Asset]:
    """The candidates with the greatest ``compute_flops * (1 + degree)``, in pool order."""
    degree_of = topology.degrees()
    ties: List[Asset] = []
    best_score = None
    for asset in candidates:
        score = asset.profile.compute_flops * (1 + degree_of.get(asset.node_id, 0))
        if not ties or score > best_score:
            ties, best_score = [asset], score
        elif score == best_score:
            ties.append(asset)
    return ties


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
        # The tables of the last tuple pool and topology composed over, and
        # each (area, modalities)'s sensor table with one mask per sensor
        # from its last compose.  The service composes on several threads
        # through one instance, so each is replaced whole by one assignment:
        # a racing thread's entry may be lost, which costs a re-measure and
        # never hands out a half-built table.
        self._pool: Optional[_PoolTables] = None
        self._area_masks: Dict[Tuple[Region, frozenset], Tuple[_SensorTable, List[int]]] = {}

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
        """Build a composite from ``candidates`` under ``requirements``.

        A tuple pool is taken to hold the same candidates each time it is
        passed (the service hands one over per epoch), so what does not
        depend on the goal is kept for the last tuple and topology, and each
        area's masks are carried to the next pool for the sensors whose
        id, position and range did not change.  Any other pool may be
        mutated between calls and is measured afresh, keeping nothing.
        """
        if not candidates:
            raise CompositionError("empty candidate pool")
        area = requirements.goal.area
        tables = self._tables_for(candidates, topology)
        composite = CompositeAsset(requirements=requirements)

        composite.sink = self._pick_sink(tables.sink_ties, area)
        self._add_sensors(composite, requirements, tables, area)
        self._add_compute(composite, requirements, candidates)
        _add_relays(composite, tables.by_id, tables.node_to_asset, topology)
        _finalize_paths(composite, tables.by_id, topology)
        return composite

    def _tables_for(self, candidates: Sequence[Asset], topology: TopologySnapshot) -> _PoolTables:
        tables = self._pool
        if tables is None or tables.candidates is not candidates or tables.topology is not topology:
            kept = isinstance(candidates, tuple)
            tables = _PoolTables(candidates, topology, kept=kept)
            if kept:
                self._pool = tables
        return tables

    # ------------------------------------------------------------------ roles

    def _pick_sink(self, ties: List[Asset], area: Region) -> int:
        """Highest-compute candidate, biased to connectivity.

        The first candidate with the greatest ``compute_flops * (1 + degree)``
        wins (``ties``, in pool order, see :func:`_sink_ties`).  The area
        only breaks exact ties on that score, by distance to its centre
        (nearer wins, earliest on a further tie), so the sink is a property
        of the pool and its topology, scored once per pool.
        """
        best = ties[0]
        if len(ties) > 1:
            center = area.center
            best_distance = distance(best.position, center)
            for asset in ties[1:]:
                d = distance(asset.position, center)
                if d < best_distance:
                    best, best_distance = asset, d
        return best.id

    def _masks(self, table: _SensorTable, area: Region, kept: bool) -> List[int]:
        """One coverage mask of ``area`` per sensor of ``table``.

        For a kept pool, start from the masks the same area and modalities
        got at their last compose and measure only the sensors they lack.
        """
        grid = _grid_of(area)
        if not kept:
            return grid.masks(table.sensors, table.discs)
        key = (area, table.modalities)
        last = self._area_masks.get(key)
        if last is None:
            masks = grid.masks(table.sensors, table.discs)
        elif last[0] is table:
            return last[1]
        else:
            masks, fresh = table.carry(*last)
            sensors = table.sensors
            for k, mask in zip(fresh, grid.masks([sensors[k] for k in fresh])):
                masks[k] = mask
        area_masks = dict(self._area_masks)
        area_masks.pop(key, None)
        area_masks[key] = (table, masks)
        while len(area_masks) > _GRIDS_KEPT:
            del area_masks[next(iter(area_masks))]
        self._area_masks = area_masks
        return masks

    def _add_sensors(
        self,
        composite: CompositeAsset,
        requirements: RequirementSet,
        tables: _PoolTables,
        area: Region,
    ) -> None:
        table = tables.sensors(requirements.modalities)
        # (sensor, coverage mask, energy weight) of every sensor that sees
        # at least one sample point, in candidate order: geometry is measured
        # before the greedy rounds below, which are integer ops.
        pool: List[Tuple[Asset, int, float]] = [
            (a, mask, self._energy_factor(a))
            for a, mask in zip(table.sensors, self._masks(table, area, tables.kept))
            if mask
        ]
        uncovered = (1 << _GRID_POINTS) - 1
        chosen: List[Asset] = []
        budget = max(
            requirements.n_sensors,
            int(requirements.n_sensors * self.max_sensor_surplus),
        )
        while uncovered and len(chosen) < budget and pool:
            best = -1
            best_score = 0.0
            for idx, (_asset, mask, weight) in enumerate(pool):
                score = (mask & uncovered).bit_count() * weight
                if score > best_score:
                    best_score = score
                    best = idx
            if best < 0:
                break
            # pop by index: list.remove() would compare assets field by field
            # and drop the first *equal* candidate, not the chosen one.
            asset, mask, _weight = pool.pop(best)
            chosen.append(asset)
            uncovered &= ~mask
            covered_frac = 1.0 - uncovered.bit_count() / _GRID_POINTS
            if (
                covered_frac >= requirements.coverage_target
                and len(chosen) >= requirements.n_sensors
            ):
                break
        composite.sensors = [a.id for a in chosen]
        by_id = tables.by_id
        if all(by_id[a.id] is a for a in chosen):
            # The sensors finalize_metrics would measure: the masks in hand.
            composite.coverage = (_GRID_POINTS - uncovered.bit_count()) / _GRID_POINTS
        else:  # a pool holding two assets under one id
            composite.coverage = coverage_fraction([by_id[a.id] for a in chosen], area)

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
    _add_relays(composite, by_id, {a.node_id: a.id for a in by_id.values()}, topology)


def _add_relays(
    composite: CompositeAsset,
    by_id: Dict[int, Asset],
    node_to_asset: Dict[int, int],
    topology: TopologySnapshot,
) -> None:
    sink_asset = by_id.get(composite.sink)
    if sink_asset is None:
        return
    sink_node = sink_asset.node_id
    paths = topology.paths_to(sink_node)
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
    _finalize_paths(composite, by_id, topology)


def _finalize_paths(
    composite: CompositeAsset,
    by_id: Dict[int, Asset],
    topology: TopologySnapshot,
) -> None:
    """Fill in connectivity and worst member-to-sink ETX."""
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
