"""Functional composition: placing distributed service pipelines.

§III-B's third composition challenge: "functional composition for
generating distributed services and controllers that achieve the mission
goals in a scalable manner" (the macroprogramming / service-composition
lineage of citations [5-9]).

A battlefield service is modeled as a :class:`ServiceGraph` — a DAG of
processing stages (source -> filter -> fuse -> decide ...), each with a
compute cost per data unit and a data-rate contract on its edges.  The
:class:`PipelinePlacer` maps stages onto discovered compute elements so
that end-to-end latency (compute service time + network transfer time
along min-ETX paths) is minimized, subject to per-element capacity.

This is the NP-hard task-assignment problem; the placer is the standard
greedy list-scheduler over a topological order, which is what production
stream processors use for initial placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CompositionError
from repro.net.topology import TopologySnapshot
from repro.things.asset import Asset

__all__ = ["Stage", "ServiceGraph", "Placement", "PipelinePlacer"]

#: Planning value for one radio transfer of one data unit (s per bit at
#: 1 Mbps), scaled by path ETX.
_TRANSFER_S_PER_BIT = 1.0e-6


@dataclass(frozen=True)
class Stage:
    """One processing stage of a battlefield service.

    ``pinned_node`` constrains placement (e.g., a source stage must run
    where its sensor is; an actuation stage where the actuator is).
    """

    name: str
    work_flops_per_unit: float
    output_bits_per_unit: float = 2048.0
    pinned_node: Optional[int] = None


class ServiceGraph:
    """A DAG of stages with data-flow edges."""

    def __init__(self):
        import networkx as nx

        self._graph = nx.DiGraph()

    def add_stage(self, stage: Stage) -> Stage:
        if stage.name in self._graph:
            raise CompositionError(f"duplicate stage {stage.name!r}")
        self._graph.add_node(stage.name, stage=stage)
        return stage

    def connect(self, upstream: str, downstream: str) -> None:
        for name in (upstream, downstream):
            if name not in self._graph:
                raise CompositionError(f"unknown stage {name!r}")
        import networkx as nx

        self._graph.add_edge(upstream, downstream)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_edge(upstream, downstream)
            raise CompositionError(
                f"edge {upstream}->{downstream} would create a cycle"
            )

    def stage(self, name: str) -> Stage:
        try:
            return self._graph.nodes[name]["stage"]
        except KeyError:
            raise CompositionError(f"unknown stage {name!r}") from None

    def stages(self) -> List[Stage]:
        return [self._graph.nodes[n]["stage"] for n in self._graph.nodes]

    def topological_order(self) -> List[Stage]:
        import networkx as nx

        return [
            self._graph.nodes[n]["stage"]
            for n in nx.topological_sort(self._graph)
        ]

    def upstream_of(self, name: str) -> List[str]:
        return sorted(self._graph.predecessors(name))

    def edges(self) -> List[Tuple[str, str]]:
        return sorted(self._graph.edges)

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    @classmethod
    def linear_pipeline(cls, stages: Sequence[Stage]) -> "ServiceGraph":
        """Convenience: chain stages in order."""
        graph = cls()
        for stage in stages:
            graph.add_stage(stage)
        for a, b in zip(stages, stages[1:]):
            graph.connect(a.name, b.name)
        return graph


@dataclass
class Placement:
    """A mapping of stages to nodes, with its estimated cost."""

    assignment: Dict[str, int]
    end_to_end_latency_s: float
    transfer_latency_s: float
    compute_latency_s: float
    feasible: bool = True

    def node_of(self, stage_name: str) -> int:
        return self.assignment[stage_name]


class PipelinePlacer:
    """Greedy latency-aware placement of a service graph onto compute assets.

    Parameters
    ----------
    compute_assets:
        Candidate hosts (assets with compute capability).
    topology:
        Network snapshot for transfer-cost estimation (path ETX).
    data_rate_hz:
        Units of data entering the pipeline per second; drives the
        utilization (capacity) constraint per element.
    """

    def __init__(
        self,
        compute_assets: Sequence[Asset],
        topology: TopologySnapshot,
        *,
        data_rate_hz: float = 1.0,
        max_utilization: float = 0.8,
    ):
        hosts = [a for a in compute_assets if a.profile.compute_flops > 0]
        if not hosts:
            raise CompositionError("no compute-capable candidate hosts")
        self.hosts = hosts
        self.topology = topology
        self.data_rate_hz = data_rate_hz
        self.max_utilization = max_utilization
        self._by_node = {a.node_id: a for a in hosts}

    # ----------------------------------------------------------------- costs

    def _transfer_s(self, from_node: int, to_node: int, bits: float) -> float:
        if from_node == to_node:
            return 0.0
        path = self.topology.shortest_path(from_node, to_node)
        if path is None:
            return float("inf")
        etx = self.topology.path_etx(path)
        return bits * _TRANSFER_S_PER_BIT * etx

    def _service_s(self, host: Asset, stage: Stage) -> float:
        return stage.work_flops_per_unit / host.profile.compute_flops

    # ------------------------------------------------------------- placement

    def place(self, service: ServiceGraph) -> Placement:
        """Greedy topological placement minimizing incremental latency."""
        order = service.topological_order()
        load_flops: Dict[int, float] = {a.node_id: 0.0 for a in self.hosts}
        assignment: Dict[str, int] = {}
        compute_latency = 0.0
        transfer_latency = 0.0
        feasible = True

        for stage in order:
            candidates = self._candidates(stage, load_flops)
            if not candidates:
                feasible = False
                candidates = list(self.hosts)  # best-effort overload
            best_host = None
            best_cost = float("inf")
            for host in candidates:
                cost = self._service_s(host, stage)
                for upstream_name in service.upstream_of(stage.name):
                    upstream_stage = service.stage(upstream_name)
                    up_node = assignment[upstream_name]
                    cost += self._transfer_s(
                        up_node, host.node_id, upstream_stage.output_bits_per_unit
                    )
                if cost < best_cost:
                    best_cost = cost
                    best_host = host
            assert best_host is not None
            assignment[stage.name] = best_host.node_id
            load_flops[best_host.node_id] += (
                stage.work_flops_per_unit * self.data_rate_hz
            )
            compute_latency += self._service_s(best_host, stage)
            for upstream_name in service.upstream_of(stage.name):
                upstream_stage = service.stage(upstream_name)
                transfer_latency += self._transfer_s(
                    assignment[upstream_name],
                    best_host.node_id,
                    upstream_stage.output_bits_per_unit,
                )
        return Placement(
            assignment=assignment,
            end_to_end_latency_s=compute_latency + transfer_latency,
            transfer_latency_s=transfer_latency,
            compute_latency_s=compute_latency,
            feasible=feasible,
        )

    def _candidates(
        self, stage: Stage, load_flops: Dict[int, float]
    ) -> List[Asset]:
        if stage.pinned_node is not None:
            pinned = self._by_node.get(stage.pinned_node)
            return [pinned] if pinned is not None else []
        out = []
        for host in self.hosts:
            projected = (
                load_flops[host.node_id]
                + stage.work_flops_per_unit * self.data_rate_hz
            )
            if projected <= self.max_utilization * host.profile.compute_flops:
                out.append(host)
        return out

    def colocated_baseline(self, service: ServiceGraph) -> Placement:
        """Everything on the single largest host (the cloud-only baseline)."""
        unpinned_hosts = list(self.hosts)
        big = max(unpinned_hosts, key=lambda a: a.profile.compute_flops)
        assignment: Dict[str, int] = {}
        compute_latency = 0.0
        transfer_latency = 0.0
        for stage in service.topological_order():
            node = stage.pinned_node if stage.pinned_node is not None else big.node_id
            host = self._by_node.get(node, big)
            assignment[stage.name] = host.node_id
            compute_latency += self._service_s(host, stage)
            for upstream_name in service.upstream_of(stage.name):
                upstream_stage = service.stage(upstream_name)
                transfer_latency += self._transfer_s(
                    assignment[upstream_name],
                    host.node_id,
                    upstream_stage.output_bits_per_unit,
                )
        return Placement(
            assignment=assignment,
            end_to_end_latency_s=compute_latency + transfer_latency,
            transfer_latency_s=transfer_latency,
            compute_latency_s=compute_latency,
        )
