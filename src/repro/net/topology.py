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

import collections.abc
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

import networkx as nx
import numpy as np

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


def _next_hops(graph: nx.Graph, dst: int) -> Dict[int, Optional[int]]:
    """Each node's next hop on its min-ETX path to ``dst`` (``dst`` maps to None).

    This is networkx 3.6's single-source Dijkstra path search from ``dst``
    with only the predecessors kept: the same adjacency order, the same heap
    of ``(distance, count(), node)`` and a predecessor replaced only by a
    strictly shorter tentative distance.  Of several equal-ETX paths, every
    source therefore gets the one networkx returns, reversed.
    """
    adjacency = dict(graph.adjacency())
    next_hop: Dict[int, Optional[int]] = {dst: None}
    tentative = {dst: 0}
    tie = count()
    fringe = [(0, next(tie), dst)]
    while fringe:
        d, _, v = heappop(fringe)
        if d > tentative[v]:
            continue  # a stale entry: v was settled nearer
        for u, edge in adjacency[v].items():
            du = d + edge["etx"]
            if u not in tentative or du < tentative[u]:
                tentative[u] = du
                heappush(fringe, (du, next(tie), u))
                next_hop[u] = v
    return next_hop


class _PathTree(collections.abc.Mapping):
    """Min-ETX paths into one destination, held as each source's next hop.

    ``tree[src]`` walks the hops into a new list, source first and the
    destination last; sources that cannot reach the destination are absent.
    Nothing writes the hop table once the Dijkstra that filled it returns.
    """

    __slots__ = ("_next_hop",)

    def __init__(self, next_hop: Dict[int, Optional[int]]):
        self._next_hop = next_hop

    def __getitem__(self, src: int) -> List[int]:
        next_hop = self._next_hop
        hop = next_hop[src]
        path = [src]
        while hop is not None:
            path.append(hop)
            hop = next_hop[hop]
        return path

    def __contains__(self, src: object) -> bool:
        return src in self._next_hop

    def __iter__(self) -> Iterator[int]:
        return iter(self._next_hop)

    def __len__(self) -> int:
        return len(self._next_hop)


_NO_PATHS = _PathTree({})


@dataclass
class TopologySnapshot:
    """A frozen connectivity graph with link-quality annotations."""

    graph: nx.Graph
    time: float
    _path_trees: Dict[int, _PathTree] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _degrees: Optional[Mapping[int, int]] = field(
        default=None, init=False, repr=False, compare=False
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

    def paths_to(self, dst: int) -> Mapping[int, List[int]]:
        """Min-ETX paths from every node that can reach ``dst``, keyed by source.

        Each path runs source first, ``dst`` last (``dst`` maps to
        ``[dst]``); sources in other components are absent, and a ``dst``
        outside the graph yields an empty mapping.  One Dijkstra from
        ``dst`` serves every source and keeps only each node's next hop, so
        a path is walked when it is looked up; the snapshot keeps the trees
        of its last few destinations.  Of several equal-ETX paths a source
        gets the one networkx's single-source Dijkstra path search from
        ``dst`` returns, reversed (it need not be the one
        :meth:`shortest_path` returns; the cost is the same), as pinned in
        ``tests/net/test_topology_paths.py``.  The mapping is read-only.
        """
        tree = self._path_trees.get(dst)
        if tree is None:
            if dst not in self.graph:
                return _NO_PATHS
            tree = _PathTree(_next_hops(self.graph, dst))
            # Copy-on-write, published by one assignment: threads composing
            # on the same snapshot may both build a tree and one may be
            # recomputed later, but no reader sees a dict mid-update.
            kept = list(self._path_trees.items())[-(_PATH_TREES_KEPT - 1):]
            self._path_trees = dict(kept + [(dst, tree)])
        return tree

    def degrees(self) -> Mapping[int, int]:
        """Every node's degree: one read-only table, built on first use.

        Threads racing on a fresh snapshot may each build it; the last
        assignment wins and every copy is equal.
        """
        table = self._degrees
        if table is None:
            table = self._degrees = MappingProxyType(dict(self.graph.degree()))
        return table

    def path_etx(self, path: List[int]) -> float:
        """Sum of ETX along a node path."""
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += self.graph.edges[a, b]["etx"]
        return total

    def degree_stats(self) -> Dict[str, float]:
        degrees = list(self.degrees().values())
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


_Table = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _cells(network: Network, ids: List[int], cell_size: float) -> Tuple[np.ndarray, ...]:
    """``ids``' coordinates and grid cells ``floor(coordinate / cell_size)``, in numpy."""
    positions = [network.nodes[i].position for i in ids]
    xs = np.array([p.x for p in positions], dtype=float)
    ys = np.array([p.y for p in positions], dtype=float)
    cx, cy = (np.floor(v / cell_size).astype(np.int64) for v in (xs, ys))
    return xs, ys, cx, cy


def _cell_table(cx: np.ndarray, cy: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int, int, _Table]:
    """The occupancy table of a non-empty set of grid cells.

    Returns each node's column and row on a ``width`` by ``height`` grid
    whose lowest occupied column and row are 0, the grid's size, and the
    table :func:`_members` reads: the occupied cells ``row * width +
    column`` ascending, where each one's nodes start in the node order (and
    where the last one's end), and that order, node indices sorted by cell.
    Only occupied cells take space, however sparse the grid.
    """
    gx, gy = cx - cx.min(), cy - cy.min()
    width, height = int(gx.max()) + 1, int(gy.max()) + 1
    flat = gy * width + gx
    order = np.argsort(flat, kind="stable")
    first = np.flatnonzero(np.diff(flat[order], prepend=-1))
    return gx, gy, width, height, (flat[order[first]], np.r_[first, flat.size], order)


def _members(lo: np.ndarray, hi: np.ndarray, table: _Table) -> Tuple[np.ndarray, np.ndarray]:
    """``(i, node)`` for each node in the cells ``lo[i] <= cell < hi[i]``,
    by cell and then ascending."""
    cells, bounds, order = table
    first, end = bounds[np.searchsorted(cells, lo)], bounds[np.searchsorted(cells, hi)]
    n = end - first
    which = np.repeat(np.arange(n.size), n)
    return which, order[np.arange(which.size) + np.repeat(first - (np.cumsum(n) - n), n)]


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

    ids = sorted(network.nodes)
    assignments: Dict[int, int] = {}
    cell_owner: Dict[Tuple[int, int], int] = {}
    if ids:
        # Seeded sweep axis: 0 walks columns of constant x (snaking in y),
        # 1 walks rows of constant y (snaking in x).  The snake keeps consecutive
        # cells spatially adjacent, so each shard is a contiguous band and
        # cross-shard traffic concentrates at two cut fronts.
        axis = derive_seed(seed, "shard.partition.axis") % 2
        _, _, cx, cy = _cells(network, ids, cell_size_m)
        cells, bounds, order = table = _cell_table(cx, cy)[4]
        counts = np.diff(bounds)
        cx, cy = cx[order[bounds[:-1]]], cy[order[bounds[:-1]]]  # each occupied cell's
        major, minor = (cx, cy) if axis == 0 else (cy, cx)
        sweep = np.lexsort((np.where(major % 2 == 1, -minor, minor), major))
        # A cell goes to the last shard whose ideal start, ``s * N /
        # n_shards`` nodes, the population before the cell has reached.
        before = np.cumsum(counts[sweep]) - counts[sweep]
        shard = np.minimum(before * n_shards // len(ids), n_shards - 1)
        cell_owner.update(zip(zip(cx[sweep].tolist(), cy[sweep].tolist()), shard.tolist()))
        which, members = _members(cells[sweep], cells[sweep] + 1, table)
        assignments.update(zip([ids[i] for i in members.tolist()], shard[which].tolist()))
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
    ids = list(partition.assignments)
    xs, ys, cx, cy = _cells(network, ids, cell_size)
    _, _, width, height, table = _cell_table(cx, cy)
    cells, bounds, order = table
    owners = np.fromiter(partition.assignments.values(), np.int64, len(ids))
    owner = owners[order[bounds[:-1]]]  # each occupied cell's
    # Each occupied cell against its (1, -1), (1, 0), (1, 1) and (0, 1)
    # neighbours: every member pair of a cross-owner cell pair.
    qx = (cells % width)[:, None] + np.array([1, 1, 1, 0])
    qy = (cells // width)[:, None] + np.array([-1, 0, 1, 1])
    other = np.where((qx < width) & (qy >= 0) & (qy < height), qy * width + qx, -1)
    at = np.minimum(np.searchsorted(cells, other), cells.size - 1)
    cross = (cells[at] == other) & (owner[at] != owner[:, None])
    here, there = np.broadcast_to(cells[:, None], cross.shape)[cross], other[cross]
    i, a = _members(here, here + 1, table)
    j, b = _members(there[i], there[i] + 1, table)
    if not b.size:
        return cell_size
    # Screened in numpy; math.hypot decides among the pairs near the best.
    ax, ay = xs[a[j]] - xs[b], ys[a[j]] - ys[b]
    dist = np.hypot(ax, ay)
    near = dist <= dist.min() * (1.0 + 1e-9)
    return min(min(map(math.hypot, ax[near].tolist(), ay[near].tolist())), cell_size)
