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

import numpy as np

from repro.net.node import NetNode, Network, _candidate_pairs, _cell_table, _cells, _members
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
        import networkx as nx

        return nx.is_connected(self.graph)

    def components(self) -> List[Set[int]]:
        import networkx as nx

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
        import networkx as nx

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

    The graph's nodes are the up nodes (every node with ``include_down``),
    in ``network.nodes`` order.  A pair of them is a candidate when the
    higher id lies within the lower id's margin-extended range,
    ``comm_range_m(tx_power_dbm, margin_db=-network.neighbor_margin_db)``,
    the rule :meth:`Network.neighbors` applies; the higher id's range is
    not consulted.  A candidate becomes an edge when its (fading-free)
    delivery probability is at least ``min_delivery_probability``; edge
    attributes are ``p`` (delivery probability, min of both directions)
    and ``etx`` (1/p).  So a pair that decodes with ``p`` over the
    threshold but lies outside the lower id's range gets no edge.

    ``link_p`` is the table of one screen: ``{node id: {higher candidate id:
    p}}`` with a row for every node screened, rows in node order and each
    row in ascending id.  A pair's ``p`` depends on positions, powers and
    jamming but not on which nodes are up, so whoever keeps a table across
    builds owes it one rule: empty it when
    ``(network.topology_version, network.channel.jam_signature())`` changes.
    While that holds, a build whose nodes all have a row screens nothing
    and asks the channel nothing: it keeps the table's pairs whose ends are
    both built, in table order, the order a screen of those nodes would
    give.  Any other build screens, reads the ``p`` of pairs the table
    holds, and replaces the table with its own screen.

    A screen is a few whole-world passes: candidate pairs from one grid
    screen in numpy, the shadowing of every pair the table lacks seeded in
    batches, both directions of those pairs from one channel call.  The
    graph is then built in one pass over the table, edges in node order and
    then ascending id.
    """
    import networkx as nx

    nodes = list(network.nodes.values()) if include_down else network.up_nodes()
    if link_p is None:
        link_p = {}
    if not all(node.id in link_p for node in nodes):
        _screen(network, nodes, link_p)
    graph = nx.Graph()
    # What add_nodes_from and add_edges_from would store, in their order,
    # written into the new graph's own dicts: the calls' per-item checks
    # cost more than the writes.  Both build oracles build through the
    # calls and compare every order and attribute with this.
    graph._node.update((node.id, {"pos": (node.position.x, node.position.y)}) for node in nodes)
    adj = graph._adj
    adj.update((node.id, {}) for node in nodes)
    for a, row in adj.items():
        for b, p in link_p[a].items():
            if p >= min_delivery_probability and b in adj:
                row[b] = adj[b][a] = {"p": p, "etx": 1.0 / p}
    return TopologySnapshot(graph=graph, time=network.sim.now)


def _screen(network: Network, nodes: List[NetNode], link_p: Dict[int, Dict[int, float]]) -> None:
    """Replace ``link_p`` with the table of a screen of ``nodes``, taking
    the ``p`` of every pair it already holds and asking the channel for the
    rest."""
    id_list = [node.id for node in nodes]
    lower, higher = _candidate_pairs(network, nodes, np.array(id_list, dtype=np.int64))
    # The nodes' own id objects, not copies: the table and the graph keep them.
    a_ids, b_ids = (list(map(id_list.__getitem__, index.tolist())) for index in (lower, higher))
    probs = [link_p[a].get(b) if a in link_p else None for a, b in zip(a_ids, b_ids)]
    missing = [k for k, p in enumerate(probs) if p is None]
    if missing:
        a_new, b_new = [a_ids[k] for k in missing], [b_ids[k] for k in missing]
        channel = network.channel
        channel.prime_shadowing(
            [(a_new[k], b_new[k]) for k in _first_seen_order(lower[missing], higher[missing])]
        )
        ends = [[nodes[i] for i in index[missing].tolist()] for index in (lower, higher)]
        forward, backward = channel.delivery_probability_pairs(
            (a_new, b_new),
            tuple([n.position for n in end] for end in ends),
            tuple([n.tx_power_dbm for n in end] for end in ends),
        )
        for k, p in zip(missing, np.minimum(forward, backward).tolist()):
            probs[k] = p
    link_p.clear()
    link_p.update((node_id, {}) for node_id in id_list)
    for a, b, p in zip(a_ids, b_ids, probs):
        link_p[a][b] = p


def _first_seen_order(lower: np.ndarray, higher: np.ndarray) -> List[int]:
    """Positions of the pairs ``(lower[k], higher[k])``, grouped by lower end,
    groups in the order each lower end first appears in ``lower[0],
    higher[0], lower[1], ...`` and pairs in their own order within a group.

    A per-node build primed shadowing in this order, through a dict of
    receivers keyed on first sight, and the memo keeps its insertion order.
    """
    seen = np.column_stack([lower, higher]).ravel()
    first = np.full(int(seen.max()) + 1, seen.size)
    np.minimum.at(first, seen, np.arange(seen.size))
    return np.argsort(first[lower], kind="stable").tolist()


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
