"""Topology snapshots and spatial partitioning.

A :class:`TopologySnapshot` is a networkx view of the network at one instant:
nodes are live endpoints, edges carry delivery probability and ETX (expected
transmission count).  Synthesis, tomography, and assurance all consume these
snapshots rather than poking at the live network.

:class:`GridPartition` / :func:`partition_network` split a world into
contiguous spatial shards for the sharded execution engine
(:mod:`repro.shard`): nodes are bucketed into grid cells, the occupied cells
are walked in a seeded boustrophedon sweep, and cut points are placed at the
ideal per-shard node counts.  The sweep is pure integer/float arithmetic over
sorted inputs, so the same ``(positions, n_shards, cell_size, seed)`` always
yields the same assignment in every process — the property the conservative
time-sync protocol depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

import networkx as nx

from repro.net.node import Network
from repro.util.rng import derive_seed

__all__ = [
    "TopologySnapshot",
    "build_topology",
    "GridPartition",
    "partition_network",
    "min_cross_shard_distance_m",
]


#: Destinations whose min-ETX tree one snapshot remembers (synthesis routes
#: nearly every member of an epoch to the same one or two sinks).
_PATH_TREES_KEPT = 4


@dataclass
class TopologySnapshot:
    """A frozen connectivity graph with link-quality annotations."""

    graph: nx.Graph
    time: float
    _path_trees: Dict[int, Dict[int, List[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def node_count(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def edge_count(self) -> int:
        return self.graph.number_of_edges()

    def is_connected(self) -> bool:
        if self.graph.number_of_nodes() == 0:
            return False
        return nx.is_connected(self.graph)

    def components(self) -> List[Set[int]]:
        return [set(c) for c in nx.connected_components(self.graph)]

    def giant_component_fraction(self) -> float:
        if self.graph.number_of_nodes() == 0:
            return 0.0
        comps = self.components()
        return max(len(c) for c in comps) / self.graph.number_of_nodes()

    def shortest_path(
        self, src: int, dst: int, weight: str = "etx"
    ) -> Optional[List[int]]:
        """Min-ETX path, or None when src/dst are disconnected."""
        try:
            return nx.shortest_path(self.graph, src, dst, weight=weight)
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            return None

    def paths_to(self, dst: int) -> Dict[int, List[int]]:
        """Min-ETX paths from every node that can reach ``dst``, keyed by source.

        Each path runs source first, ``dst`` last (``dst`` maps to
        ``[dst]``); sources in other components are absent, and a ``dst``
        outside the graph yields an empty mapping.  One single-source
        Dijkstra from ``dst`` serves every source, and the snapshot keeps
        the trees of its last few destinations.  Which of several
        equal-ETX paths a source gets is unspecified (it need not be the
        one :meth:`shortest_path` returns); the cost is the same.  Treat
        the mapping and its lists as read-only.
        """
        tree = self._path_trees.get(dst)
        if tree is None:
            if dst not in self.graph:
                return {}
            rooted = nx.single_source_dijkstra_path(self.graph, dst, weight="etx")
            tree = {src: path[::-1] for src, path in rooted.items()}
            # Copy-on-write, published by one assignment: threads composing
            # on the same snapshot may both build a tree and one may be
            # recomputed later, but no reader sees a dict mid-update.
            kept = list(self._path_trees.items())[-(_PATH_TREES_KEPT - 1):]
            self._path_trees = dict(kept + [(dst, tree)])
        return tree

    def path_etx(self, path: List[int]) -> float:
        """Sum of ETX along a node path."""
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += self.graph.edges[a, b]["etx"]
        return total

    def degree_stats(self) -> Dict[str, float]:
        degrees = [d for _n, d in self.graph.degree()]
        if not degrees:
            return {"mean": 0.0, "min": 0.0, "max": 0.0}
        return {
            "mean": sum(degrees) / len(degrees),
            "min": float(min(degrees)),
            "max": float(max(degrees)),
        }


def build_topology(
    network: Network,
    *,
    min_delivery_probability: float = 0.1,
    include_down: bool = False,
    link_p: Optional[Dict[int, Dict[int, float]]] = None,
) -> TopologySnapshot:
    """Snapshot the network's connectivity graph.

    An edge is added between each neighbor pair whose (fading-free) delivery
    probability exceeds ``min_delivery_probability``; edge attributes are
    ``p`` (delivery probability, min of both directions) and ``etx`` (1/p).

    ``link_p`` is a neighbour-pair table, ``{node id: {higher neighbour id:
    p}}``, that the build reads before asking the channel and fills with
    what it had to compute.  A pair's ``p`` depends on positions, powers and
    jamming but not on which nodes are up, so whoever keeps a table across
    builds owes it one rule: drop it when
    ``(network.topology_version, network.channel.jam_signature())`` changes.
    """
    graph = nx.Graph()
    nodes = network.nodes.values() if include_down else network.up_nodes()
    for node in nodes:
        graph.add_node(node.id, pos=(node.position.x, node.position.y))
    if link_p is None:
        link_p = {}
    # Geometry: every node's higher-id neighbours; a pair the table lacks goes under both ends.
    rows = []
    receivers: Dict[int, List[int]] = {}
    in_graph = set(graph)  # `in graph` without a Python frame per candidate
    for node in nodes:
        node_id = node.id
        row = link_p.setdefault(node_id, {})
        near = network.neighbors(node_id, include_down=include_down)
        higher = [other_id for other_id in near if other_id > node_id and other_id in in_graph]
        rows.append((row, node_id, higher))
        for other_id in higher:
            if other_id not in row:
                receivers.setdefault(node_id, []).append(other_id)
                receivers.setdefault(other_id, []).append(node_id)
    # Shadowing of all those pairs at once, then one channel batch per
    # transmitter: both directions of a pair read the same memoized terms.
    channel, by_id = network.channel, network.nodes
    channel.prime_shadowing((a, b) for a, bs in receivers.items() for b in bs if a < b)
    directed: Dict[int, Dict[int, float]] = {}
    for tx_id, rx_ids in receivers.items():
        tx = by_id[tx_id]
        probs = channel.delivery_probability_batch(
            tx.tx_power_dbm, tx.position, [by_id[i].position for i in rx_ids], rx_ids, tx_id
        )
        directed[tx_id] = dict(zip(rx_ids, probs))
    for a, forward in directed.items():
        for b, p in forward.items():
            if a < b:
                link_p[a][b] = min(p, directed[b][a])
    for row, node_id, higher in rows:
        for other_id in higher:
            p = row[other_id]
            if p >= min_delivery_probability:
                graph.add_edge(node_id, other_id, p=p, etx=1.0 / p)
    return TopologySnapshot(graph=graph, time=network.sim.now)


# ---------------------------------------------------------------- partition


@dataclass(frozen=True)
class GridPartition:
    """A deterministic spatial assignment of nodes to shards.

    ``assignments`` maps every node id to a shard index in
    ``[0, n_shards)``.  ``cells`` maps each *occupied* grid cell to the
    shard that owns it; a node's cell is ``(floor(x / cell_size),
    floor(y / cell_size))``, so a node sitting exactly on a cell border
    belongs to the cell whose lower edge it touches (floor convention).
    Empty cells are simply absent — they own no nodes and cost nothing.
    """

    n_shards: int
    cell_size_m: float
    seed: int
    assignments: Mapping[int, int] = field(default_factory=dict)
    cells: Mapping[Tuple[int, int], int] = field(default_factory=dict)

    def shard_of(self, node_id: int) -> int:
        return self.assignments[node_id]

    def nodes_of(self, shard: int) -> List[int]:
        """Sorted node ids owned by ``shard``."""
        return sorted(n for n, s in self.assignments.items() if s == shard)

    def counts(self) -> List[int]:
        """Nodes per shard (length ``n_shards``; empty shards count 0)."""
        out = [0] * self.n_shards
        for s in self.assignments.values():
            out[s] += 1
        return out

    def __repr__(self) -> str:
        return (
            f"GridPartition(n_shards={self.n_shards}, "
            f"cell_size_m={self.cell_size_m}, counts={self.counts()})"
        )


def _cell_of(x: float, y: float, cell_size: float) -> Tuple[int, int]:
    return (math.floor(x / cell_size), math.floor(y / cell_size))


def partition_network(
    network: Network,
    n_shards: int,
    *,
    cell_size_m: Optional[float] = None,
    seed: int = 0,
) -> GridPartition:
    """Partition ``network`` into ``n_shards`` contiguous spatial shards.

    Nodes are bucketed into square grid cells (default edge: the network's
    maximum comm range, so one cell roughly spans one radio neighborhood),
    the occupied cells are walked in a boustrophedon sweep — column-major
    or row-major, chosen deterministically from ``seed`` — and cut points
    fall at the ideal cumulative node counts ``i * N / n_shards``.  The
    result is balanced to within one cell's population and identical in
    every process given the same inputs.

    Isolated nodes and empty cells need no special casing: only occupied
    cells enter the sweep, and an isolated node is just a cell of
    population one.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if cell_size_m is None:
        cell_size_m = max(network._max_range(), 1.0)
    if not (cell_size_m > 0.0) or not math.isfinite(cell_size_m):
        raise ValueError(f"cell_size_m must be finite and > 0, got {cell_size_m}")

    by_cell: Dict[Tuple[int, int], List[int]] = {}
    for nid in sorted(network.nodes):
        node = network.nodes[nid]
        cell = _cell_of(node.position.x, node.position.y, cell_size_m)
        by_cell.setdefault(cell, []).append(nid)

    total = sum(len(v) for v in by_cell.values())
    assignments: Dict[int, int] = {}
    cell_owner: Dict[Tuple[int, int], int] = {}
    if total == 0:
        return GridPartition(
            n_shards=n_shards,
            cell_size_m=cell_size_m,
            seed=seed,
            assignments=assignments,
            cells=cell_owner,
        )

    # Seeded sweep axis: 0 walks columns of constant x (snaking in y),
    # 1 walks rows of constant y (snaking in x).  The snake keeps
    # consecutive cells spatially adjacent, so each shard is a contiguous
    # band and cross-shard traffic concentrates at two cut fronts.
    axis = derive_seed(seed, "shard.partition.axis") % 2

    def sweep_key(cell: Tuple[int, int]) -> Tuple[int, int]:
        major, minor = (cell[0], cell[1]) if axis == 0 else (cell[1], cell[0])
        return (major, -minor if major % 2 else minor)

    ordered = sorted(by_cell, key=sweep_key)
    shard = 0
    cum = 0
    for cell in ordered:
        # Advance to the next shard once the running population has
        # reached this shard's ideal cumulative share.
        while shard < n_shards - 1 and cum * n_shards >= (shard + 1) * total:
            shard += 1
        cell_owner[cell] = shard
        for nid in by_cell[cell]:
            assignments[nid] = shard
        cum += len(by_cell[cell])

    return GridPartition(
        n_shards=n_shards,
        cell_size_m=cell_size_m,
        seed=seed,
        assignments=assignments,
        cells=cell_owner,
    )


def min_cross_shard_distance_m(
    network: Network, partition: GridPartition
) -> float:
    """Minimum distance between any two nodes owned by different shards.

    Feeds the conservative lookahead's propagation term.  Only adjacent
    occupied cell pairs with different owners are compared pairwise; any
    non-adjacent cross-shard pair is separated by at least one full empty
    or same-owner cell, so ``cell_size_m`` lower-bounds it.  Returns
    ``inf`` for single-shard partitions (no cross-shard pairs exist).
    """
    if partition.n_shards <= 1 or not partition.cells:
        return math.inf
    cell_size = partition.cell_size_m
    members: Dict[Tuple[int, int], List[int]] = {}
    for nid, shard in partition.assignments.items():
        node = network.nodes[nid]
        members.setdefault(
            _cell_of(node.position.x, node.position.y, cell_size), []
        ).append(nid)

    best = math.inf
    cells = partition.cells
    for (cx, cy), owner in cells.items():
        for dx, dy in ((1, -1), (1, 0), (1, 1), (0, 1)):
            other = (cx + dx, cy + dy)
            if other not in cells or cells[other] == owner:
                continue
            for a in members[(cx, cy)]:
                pa = network.nodes[a].position
                for b in members[other]:
                    pb = network.nodes[b].position
                    d = math.hypot(pa.x - pb.x, pa.y - pb.y)
                    if d < best:
                        best = d
    return min(best, cell_size)
