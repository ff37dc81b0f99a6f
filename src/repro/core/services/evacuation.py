"""Non-combatant evacuation: the integrated Figure-1 mission.

§I's running example: "civilians must be safely removed from a zone of
increased or impending hostility.  The situation is highly dynamic.  New
information updates arrive in real-time ... [and] may impact decisions such
as evacuation routes."

The mission exercises all three IoBT functions, each independently
ablatable (that is experiment E1):

* **Synthesis** — hazard-sensing coverage comes from a greedily composed
  sensor set (ablation: a random subset of equal size).
* **Learning** — civilian reports about hazards (some from malicious
  sources) are fused by truth discovery (ablation: raw majority vote).
* **Adaptation** — evacuee groups re-route as the believed hazard map
  changes, and sensing switches modality when hazards emit smoke
  (ablation: routes fixed at start, no modality switching).

Evacuees walk the street grid toward exit gates; walking through a *truly*
hazardous intersection records an exposure.  The result reports evacuated
fraction, exposures, and evacuation times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.adaptation.perception import ModalityManager
from repro.core.learning.truth_discovery import TruthDiscovery, majority_vote
from repro.core.synthesis.composer import GreedyComposer, coverage_fraction
from repro.core.synthesis.requirements import compile_goal
from repro.core.mission import MissionGoal, MissionType
from repro.errors import ConfigurationError
from repro.net.topology import build_topology
from repro.scenarios.builder import Scenario
from repro.things.asset import Asset
from repro.things.capabilities import SensingModality
from repro.things.humans import Claim
from repro.util.geometry import Point, distance

__all__ = ["EvacuationConfig", "EvacuationResult", "EvacuationMission"]


@dataclass
class EvacuationConfig:
    """Mission parameters and the three ablation switches."""

    n_evacuee_groups: int = 12
    n_hazards: int = 16
    hazard_onset_s: Tuple[float, float] = (5.0, 60.0)
    deadline_s: float = 600.0
    step_period_s: float = 12.0
    n_exits: int = 1
    scan_period_s: float = 5.0
    claim_period_s: float = 20.0
    walk_speed_edges_per_step: int = 1
    use_synthesis: bool = True
    use_learning: bool = True
    use_adaptation: bool = True
    sensor_budget: int = 20
    #: §VI's risk-balance knob: routes also avoid intersections within this
    #: many hops of a believed hazard.  0 = avoid only the hazard itself
    #: (fast, riskier — belief errors are unbuffered); higher = wider safety
    #: margins at the price of longer evacuation routes.
    caution_radius: int = 0

    def __post_init__(self) -> None:
        if self.n_evacuee_groups < 1:
            raise ConfigurationError("need at least one evacuee group")
        if self.deadline_s <= 0:
            raise ConfigurationError("deadline must be positive")


@dataclass
class EvacuationResult:
    """Mission outcome."""

    evacuated: int
    total_groups: int
    exposures: int
    evacuation_times: List[float]
    hazard_belief_accuracy: float
    sensor_coverage: float

    @property
    def evacuated_fraction(self) -> float:
        return self.evacuated / self.total_groups if self.total_groups else 0.0

    @property
    def mean_evacuation_time_s(self) -> float:
        return float(np.mean(self.evacuation_times)) if self.evacuation_times else float("nan")


@dataclass
class _EvacueeGroup:
    group_id: int
    node: Tuple[int, int]            # grid coordinates of current intersection
    route: List[Tuple[int, int]] = field(default_factory=list)
    evacuated_at: Optional[float] = None
    exposures: int = 0


class EvacuationMission:
    """Run one evacuation mission over a scenario."""

    def __init__(self, scenario: Scenario, config: Optional[EvacuationConfig] = None):
        self.scenario = scenario
        self.sim = scenario.sim
        self.config = config if config is not None else EvacuationConfig()
        self.grid = scenario.grid
        self._rng = self.sim.rng.get("evacuation")
        self.graph = self._street_graph()
        self.exits = self._exit_nodes()
        self.groups = self._spawn_groups()
        # Ground-truth hazards: grid node -> onset time.
        self.hazard_onset: Dict[Tuple[int, int], float] = {}
        self.believed_hazards: Set[Tuple[int, int]] = set()
        self._claims: List[Claim] = []
        self._event_ids: Dict[Tuple[int, int], int] = {
            node: i + 1 for i, node in enumerate(sorted(self.graph.nodes))
        }
        self.sensors = self._select_sensors()
        self.modality_manager = (
            ModalityManager(self.sensors) if self.config.use_adaptation else None
        )
        self._finished = False

    # ------------------------------------------------------------ world setup

    def _street_graph(self) -> nx.Graph:
        import networkx as nx

        g = nx.grid_2d_graph(self.grid.blocks + 1, self.grid.blocks + 1)
        return g

    def _node_position(self, node: Tuple[int, int]) -> Point:
        return Point(
            node[0] * self.grid.block_size_m, node[1] * self.grid.block_size_m
        )

    def _nearest_node(self, p: Point) -> Tuple[int, int]:
        """The grid intersection closest to a measured position."""
        size = self.grid.block_size_m
        i = int(round(p.x / size))
        j = int(round(p.y / size))
        i = max(0, min(self.grid.blocks, i))
        j = max(0, min(self.grid.blocks, j))
        return (i, j)

    def _exit_nodes(self) -> Set[Tuple[int, int]]:
        """Exit gates: the first ``n_exits`` corners (few exits -> long,
        contested routes, which is what makes routing decisions matter)."""
        b = self.grid.blocks
        corners = [(0, 0), (b, b), (0, b), (b, 0)]
        n = max(1, min(self.config.n_exits, len(corners)))
        return set(corners[:n])

    def _spawn_groups(self) -> List[_EvacueeGroup]:
        nodes = sorted(set(self.graph.nodes) - self.exits)
        groups = []
        for gid in range(1, self.config.n_evacuee_groups + 1):
            node = nodes[int(self._rng.integers(0, len(nodes)))]
            groups.append(_EvacueeGroup(group_id=gid, node=node))
        return groups

    def _select_sensors(self) -> List[Asset]:
        """Choose the hazard-sensing set (synthesis vs random ablation)."""
        candidates = [
            a
            for a in self.scenario.inventory.blue()
            if a.sensors and a.profile.sensing_range_m > 0
        ]
        budget = min(self.config.sensor_budget, len(candidates))
        if not candidates:
            return []
        if self.config.use_synthesis:
            goal = MissionGoal(
                MissionType.EVACUATE,
                self.scenario.region,
                min_coverage=0.7,
                modalities=frozenset(
                    {
                        SensingModality.CAMERA,
                        SensingModality.SEISMIC,
                        SensingModality.ACOUSTIC,
                        SensingModality.OCCUPANCY,
                    }
                ),
            )
            requirements = compile_goal(goal)
            topology = build_topology(self.scenario.network)
            composite = GreedyComposer().compose(requirements, candidates, topology)
            chosen = [
                self.scenario.inventory.get(aid) for aid in composite.sensors
            ][:budget]
            if chosen:
                return chosen
        idx = self._rng.choice(len(candidates), size=budget, replace=False)
        return [candidates[int(i)] for i in idx]

    # ---------------------------------------------------------------- hazards

    def _schedule_hazards(self) -> None:
        nodes = sorted(set(self.graph.nodes) - self.exits)
        lo, hi = self.config.hazard_onset_s
        for _i in range(self.config.n_hazards):
            node = nodes[int(self._rng.integers(0, len(nodes)))]
            onset = float(self._rng.uniform(lo, hi))
            if node not in self.hazard_onset or onset < self.hazard_onset[node]:
                self.hazard_onset[node] = onset

        for node, onset in self.hazard_onset.items():
            self.sim.call_at(onset, lambda n=node: self._hazard_appears(n))

    def _hazard_appears(self, node: Tuple[int, int]) -> None:
        self.sim.trace.emit("evacuation.hazard", node=str(node))
        # Hazards emit smoke, degrading visual sensing mission-wide a bit.
        env = self.scenario.environment
        env.smoke = min(1.0, env.smoke + 0.25)

    def active_hazards(self) -> Set[Tuple[int, int]]:
        now = self.sim.now
        return {n for n, t in self.hazard_onset.items() if t <= now}

    # ---------------------------------------------------------------- sensing

    def _scan_round(self) -> None:
        if self.modality_manager is not None:
            self.modality_manager.update(self.scenario.environment)
        env = self.scenario.environment
        for node in self.active_hazards():
            pos = self._node_position(node)
            for asset in self.sensors:
                if not asset.alive:
                    continue
                for sensor in asset.sensors:
                    p = sensor.detection_probability(asset.position, pos, env)
                    if p > 0 and self._rng.random() < p:
                        # Localization is noisy: the belief lands on the
                        # grid node nearest the *measured* position, which
                        # for long-range / coarse modalities is often an
                        # adjacent intersection.  This mislocalization is
                        # exactly what a caution buffer (E20) insures
                        # against.
                        d = distance(asset.position, pos)
                        sigma = sensor.noise_std_m(d)
                        measured = Point(
                            pos.x + float(self._rng.normal(0.0, sigma)),
                            pos.y + float(self._rng.normal(0.0, sigma)),
                        )
                        self.believed_hazards.add(self._nearest_node(measured))
                        break

    # ----------------------------------------------------------------- claims

    def _claim_round(self) -> None:
        """Civilian (and red) human sources report on nearby intersections."""
        humans = [
            a
            for a in self.scenario.inventory
            if a.human is not None and a.alive
        ]
        active = self.active_hazards()
        for asset in humans:
            for node in sorted(self.graph.nodes):
                pos = self._node_position(node)
                if distance(asset.position, pos) > 2.5 * self.grid.block_size_m:
                    continue
                truth = node in active
                claim = asset.human.report(
                    self._event_ids[node], truth, self._rng, self.sim.now
                )
                if claim is not None:
                    self._claims.append(claim)
        self._update_beliefs_from_claims()

    def _update_beliefs_from_claims(self) -> None:
        if not self._claims:
            return
        id_to_node = {eid: node for node, eid in self._event_ids.items()}
        if self.config.use_learning:
            result = TruthDiscovery().run(self._claims)
            for eid, p in result.event_probability.items():
                node = id_to_node[eid]
                if p > 0.5:
                    self.believed_hazards.add(node)
                else:
                    # Only claims can retract a claim-induced belief; direct
                    # sensor detections are never retracted.
                    pass
        else:
            for eid, value in majority_vote(self._claims).items():
                if value:
                    self.believed_hazards.add(id_to_node[eid])

    # --------------------------------------------------------------- movement

    def _buffered_hazards(self, radius: int) -> Set[Tuple[int, int]]:
        """Believed hazards inflated by ``radius`` graph hops."""
        blocked = set(self.believed_hazards)
        frontier = set(self.believed_hazards)
        for _hop in range(radius):
            nxt: Set[Tuple[int, int]] = set()
            for node in frontier:
                if node in self.graph:
                    nxt.update(self.graph.neighbors(node))
            nxt -= blocked
            blocked |= nxt
            frontier = nxt
        return blocked

    def _route(self, group: _EvacueeGroup) -> List[Tuple[int, int]]:
        """Safest-then-shortest path to the nearest exit.

        Caution degrades gracefully: the route is first sought with the
        full hazard buffer; if the buffered map disconnects the group from
        every exit, the buffer shrinks one hop at a time before the final
        resort of walking the shortest route regardless of hazards.
        """
        import networkx as nx

        for radius in range(self.config.caution_radius, -1, -1):
            g = self.graph.copy()
            blocked = self._buffered_hazards(radius) - self.exits - {group.node}
            g.remove_nodes_from(blocked)
            best: Optional[List[Tuple[int, int]]] = None
            for exit_node in sorted(self.exits):
                if group.node not in g or exit_node not in g:
                    continue
                try:
                    path = nx.shortest_path(g, group.node, exit_node)
                except nx.NetworkXNoPath:
                    continue
                if best is None or len(path) < len(best):
                    best = path
            if best is not None:
                return best
        # All safe routes blocked at every buffer level: shortest anyway.
        return min(
            (
                nx.shortest_path(self.graph, group.node, e)
                for e in sorted(self.exits)
            ),
            key=len,
        )

    def _step_groups(self) -> None:
        active_hazards = self.active_hazards()
        for group in self.groups:
            if group.evacuated_at is not None:
                continue
            if self.config.use_adaptation or not group.route:
                group.route = self._route(group)
            for _hop in range(self.config.walk_speed_edges_per_step):
                if len(group.route) <= 1:
                    break
                group.route.pop(0)
                group.node = group.route[0]
                if group.node in active_hazards:
                    group.exposures += 1
                    self.sim.trace.emit(
                        "evacuation.exposure",
                        group=group.group_id,
                        node=str(group.node),
                    )
            if group.node in self.exits:
                group.evacuated_at = self.sim.now
                self.sim.trace.emit("evacuation.out", group=group.group_id)

    # --------------------------------------------------------------------- run

    def run(self) -> EvacuationResult:
        if self._finished:
            raise ConfigurationError("mission already ran")
        self._finished = True
        cfg = self.config
        self._schedule_hazards()
        self.sim.every(cfg.scan_period_s, self._scan_round)
        self.sim.every(cfg.claim_period_s, self._claim_round)
        self.sim.every(cfg.step_period_s, self._step_groups)
        self.scenario.start()
        self.sim.run(until=cfg.deadline_s)
        return self._result()

    def _result(self) -> EvacuationResult:
        evacuated = [g for g in self.groups if g.evacuated_at is not None]
        active = self.active_hazards()
        all_nodes = set(self.graph.nodes)
        correct = sum(
            1
            for node in all_nodes
            if (node in active) == (node in self.believed_hazards)
        )
        return EvacuationResult(
            evacuated=len(evacuated),
            total_groups=len(self.groups),
            exposures=sum(g.exposures for g in self.groups),
            evacuation_times=[g.evacuated_at for g in evacuated],
            hazard_belief_accuracy=correct / len(all_nodes) if all_nodes else 0.0,
            sensor_coverage=coverage_fraction(
                [a for a in self.sensors if a.alive], self.scenario.region
            ),
        )
