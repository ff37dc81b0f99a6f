"""Network nodes and the network container.

:class:`NetNode` is the communication endpoint (radio parameters, liveness,
handler/router hooks).  :class:`Network` owns the spatial index for neighbor
queries (so 10,000-node inventories stay fast) and a
:class:`~repro.net.stack.NetworkStack` — the explicit layered pipeline
(PHY/channel -> MAC -> queue -> routing -> transport -> app) whose
:class:`~repro.net.stack.FastPathDispatcher` implements the transmit path.
The historical ``send`` / ``broadcast`` / fault-injection API is preserved
by delegation, so routers and fault injectors are unchanged callers.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import NetworkError
from repro.net.channel import Channel
from repro.net.mac import ContentionMac
from repro.net.packet import Packet, PacketKind
from repro.net.stack import SPEED_OF_LIGHT_M_S, FaultLayer, NetworkStack, RouterPort
from repro.sim.kernel import Simulator
from repro.util.geometry import Point

__all__ = ["NetNode", "Network", "SPEED_OF_LIGHT_M_S"]

PacketHandler = Callable[["NetNode", Packet, int], None]
SendResult = Callable[[bool], None]
# Invoked as (node_id, up) on every liveness transition.
NodeStateListener = Callable[[int, bool], None]


class NetNode:
    """A radio-equipped network endpoint.

    The node is deliberately thin: protocol behavior lives in routers
    (:mod:`repro.net.routing`) and in the asset layer (:mod:`repro.things`).
    """

    def __init__(
        self,
        node_id: int,
        position: Point,
        *,
        tx_power_dbm: float = 20.0,
        bitrate_bps: float = 1.0e6,
    ):
        self.id = node_id
        self.position = position
        self.tx_power_dbm = tx_power_dbm
        self.bitrate_bps = bitrate_bps
        self.up = True
        #: The routing-layer occupant of this node's stack, if any.  Typed
        #: via the :class:`~repro.net.stack.RouterPort` protocol so the
        #: routing slot is checkable (was ``Optional[Any]``).
        self.router: Optional[RouterPort] = None
        self.handlers: Dict[PacketKind, PacketHandler] = {}
        self.default_handler: Optional[PacketHandler] = None
        # Optional hook charged (bits_tx, bits_rx) for energy accounting.
        self.energy_hook: Optional[Callable[[float, float], None]] = None
        # Count of in-flight transmissions (for MAC contention estimates).
        self.busy_tx = 0

    def on(self, kind: PacketKind, handler: PacketHandler) -> None:
        """Register a handler for packets of ``kind`` addressed to this node."""
        self.handlers[kind] = handler

    def deliver_local(self, packet: Packet, from_id: int) -> None:
        """Hand a received packet to the registered application handler."""
        handler = self.handlers.get(packet.kind, self.default_handler)
        if handler is not None:
            handler(self, packet, from_id)

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"NetNode({self.id}, {state}, pos=({self.position.x:.0f},{self.position.y:.0f}))"


class Network:
    """Container for nodes + the layered stack; owns the spatial index.

    Neighbor lists come from one whole-world screen per topology change
    (:func:`_candidate_pairs`, a cell grid in numpy), not a scan per node.  The
    transmit path lives in the stack's dispatcher; fault state lives in the
    stack's :class:`~repro.net.stack.FaultLayer` (both reachable through
    :attr:`stack`, with the historical methods kept as delegations).
    """

    def __init__(
        self,
        sim: Simulator,
        channel: Optional[Channel] = None,
        mac: Optional[ContentionMac] = None,
        *,
        neighbor_margin_db: float = 3.0,
    ):
        self.sim = sim
        self.channel = channel if channel is not None else Channel(seed=sim.rng.seed)
        self.mac = mac if mac is not None else ContentionMac()
        self.neighbor_margin_db = neighbor_margin_db
        self.nodes: Dict[int, NetNode] = {}
        self._rng = sim.rng.get("net")
        #: Bumped on every membership/position change; position-dependent
        #: caches (the PHY pair-probability cache) key their validity on it
        #: instead of hashing Point coordinates per lookup.
        self.topology_version = 0
        #: Bumped on every up/down flip; caches that depend on which nodes
        #: are alive (e.g. greedy-geo next-hop memos built over the default
        #: liveness-filtered neighbor view) key on this *and* on
        #: :attr:`topology_version`.
        self.liveness_version = 0
        # node_id -> sorted neighbor ids.  The geometric lists (everything
        # in range, up or down) depend on positions only: one screen fills
        # every node's, with the era's pairs, per topology_version.  The
        # up-only lists are filtered from them on demand and are all a
        # liveness flip has to drop.
        self._geo_neighbors: Dict[int, List[int]] = {}
        self._up_neighbors: Dict[int, List[int]] = {}
        # The era's pairs until the PHY's fill takes them (_neighbor_pairs).
        self._geo_pairs: Optional[Tuple[List[NetNode], List[NetNode]]] = None
        self._geo_version = -1
        # Listeners observing node liveness transitions (routers invalidate
        # stale state, services re-plan around losses).
        self._node_state_listeners: List[NodeStateListener] = []
        #: The layered pipeline; shares this network's channel, MAC and RNG
        #: stream, so composing a stack by hand or via the registry is the
        #: same object graph the legacy constructor args produce.
        self.stack = NetworkStack(
            sim, self, channel=self.channel, mac=self.mac, rng=self._rng
        )

    # ------------------------------------------------------------- membership

    def add_node(self, node: NetNode) -> NetNode:
        if node.id in self.nodes:
            raise NetworkError(f"duplicate node id {node.id}")
        self.nodes[node.id] = node
        self.topology_version += 1
        return node

    def create_node(self, node_id: int, position: Point, **kwargs: Any) -> NetNode:
        return self.add_node(NetNode(node_id, position, **kwargs))

    def remove_node(self, node_id: int) -> None:
        self.nodes.pop(node_id, None)
        self.topology_version += 1

    def node(self, node_id: int) -> NetNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id}") from None

    def set_position(self, node_id: int, position: Point) -> None:
        self.node(node_id).position = position
        self.topology_version += 1

    def fail_node(self, node_id: int) -> None:
        """Take a node down (battlefield loss, capture, battery death).

        Idempotent: re-failing an already-down node is a no-op, so attack
        and fault injectors compose without double-counting transitions.
        """
        node = self.node(node_id)
        if not node.up:
            return
        node.up = False
        self._up_neighbors.clear()
        self.liveness_version += 1
        self.sim.trace.emit("net.node_down", node=node_id)
        self._notify_node_state(node_id, False)

    def restore_node(self, node_id: int) -> None:
        """Bring a failed node back (repair, redeploy, battery swap)."""
        node = self.node(node_id)
        if node.up:
            return
        node.up = True
        self._up_neighbors.clear()
        self.liveness_version += 1
        self.sim.trace.emit("net.node_up", node=node_id)
        self._notify_node_state(node_id, True)

    def on_node_state(self, listener: NodeStateListener) -> None:
        """Subscribe to liveness transitions as ``(node_id, up)`` calls.

        Routers use this to invalidate stale state the instant a node dies
        (AODV purges routes through it, DTN stores lose custody); services
        can use it to trigger re-synthesis.
        """
        self._node_state_listeners.append(listener)

    def _notify_node_state(self, node_id: int, up: bool) -> None:
        for listener in self._node_state_listeners:
            listener(node_id, up)

    def up_nodes(self) -> List[NetNode]:
        return [n for n in self.nodes.values() if n.up]

    # ------------------------------------------------------------ fault hooks
    #
    # Fault state lives in the stack's FaultLayer; these delegations keep
    # the injector-facing API (repro.faults) where it has always been.

    # Canonical unordered link key (kept here for fault-injector callers).
    _link_key = staticmethod(FaultLayer._link_key)

    def block_link(self, a: int, b: int) -> None:
        """Sever the (bidirectional) radio link between two nodes."""
        self.stack.faults.block_link(a, b)

    def unblock_link(self, a: int, b: int) -> None:
        self.stack.faults.unblock_link(a, b)

    def add_partition(self, groups: Dict[int, int]) -> None:
        """Add a partition constraint: nodes mapped to different groups
        cannot exchange packets.  Nodes absent from the mapping are
        unconstrained.  Multiple constraints compose (all must allow)."""
        self.stack.faults.add_partition(groups)

    def remove_partition(self, groups: Dict[int, int]) -> None:
        self.stack.faults.remove_partition(groups)

    def link_blocked(self, a: int, b: int) -> bool:
        """True when a fault (link cut or partition) severs the pair."""
        return self.stack.faults.link_blocked(a, b)

    def add_gremlin(self, gremlin: Any) -> None:
        """Install a packet-level gremlin (see :mod:`repro.faults.gremlin`)."""
        self.stack.faults.add_gremlin(gremlin)

    def remove_gremlin(self, gremlin: Any) -> None:
        self.stack.faults.remove_gremlin(gremlin)

    # ------------------------------------------------------- spatial screen

    def _max_range(self) -> float:
        if not self.nodes:
            return 1.0
        max_power = max(n.tx_power_dbm for n in self.nodes.values())
        return self.channel.comm_range_m(max_power, margin_db=-self.neighbor_margin_db)

    def _screen_world(self) -> None:
        """Every node's geometric list and the era's pairs, from one screen."""
        nodes = list(self.nodes.values())
        id_list = [node.id for node in nodes]
        ids = np.array(id_list, dtype=np.int64)
        row, cand = _candidate_pairs(self, nodes, ids, directed=True)
        # Object arrays index out the nodes' own id and node objects, so no
        # int is made per entry.
        listed = np.array(id_list, dtype=object)[cand]
        ends = np.searchsorted(row, np.arange(1, len(nodes) + 1)).tolist()
        self._geo_neighbors = {
            node_id: listed[start:end].tolist()
            for node_id, start, end in zip(id_list, [0] + ends[:-1], ends)
        }
        self._up_neighbors.clear()
        by_index = np.empty(len(nodes), dtype=object)
        by_index[:] = nodes
        self._geo_pairs = tuple(by_index[end].tolist() for end in _undirected(row, cand, ids))
        self._geo_version = self.topology_version

    def _neighbor_pairs(self) -> Tuple[List[NetNode], List[NetNode]]:
        """``(lower, higher)``: the ends of every pair either of whose
        geometric lists holds the other, once each, lower id first.

        One list per end, from the screen that serves :meth:`neighbors`; a
        pair only the stronger end reaches is here too.  The network lets
        go of the lists it hands out, so a second call in one
        ``topology_version`` (a jammer edit refills the PHY's cache)
        screens again.
        """
        if self._geo_version != self.topology_version or self._geo_pairs is None:
            self._screen_world()
        pairs, self._geo_pairs = self._geo_pairs, None
        return pairs

    def invalidate_topology(self) -> None:
        """Mark positions stale (bulk position updates call this)."""
        self.topology_version += 1

    def neighbors(self, node_id: int, *, include_down: bool = False) -> List[int]:
        """Ids of nodes within (margin-extended) communication range.

        A node's range is ``comm_range_m(tx_power_dbm,
        margin_db=-neighbor_margin_db)``.  The first call of a
        ``topology_version`` screens the whole world at once and fills every
        node's geometric list (``include_down=True``); the up-only view is
        filtered from it per node and kept until the next liveness change.
        Treat the returned list as read-only.
        """
        if self._geo_version != self.topology_version:
            self._screen_world()
        if not include_down:
            cached = self._up_neighbors.get(node_id)
            if cached is not None:
                return cached
        found = self._geo_neighbors.get(node_id)
        if found is None:
            raise NetworkError(f"unknown node {node_id}")
        if include_down:
            return found
        nodes = self.nodes
        up = [i for i in found if nodes[i].up]
        self._up_neighbors[node_id] = up
        return up

    # --------------------------------------------------------------- transmit

    def send(
        self,
        sender_id: int,
        receiver_id: int,
        packet: Packet,
        on_result: Optional[SendResult] = None,
    ) -> None:
        """Unicast ``packet`` over one hop; outcome reported via ``on_result``.

        The outcome callback fires at the time the transmission completes
        (success) or would have completed (failure) — i.e., it models a
        link-layer ack with negligible ack airtime.
        """
        nodes = self.nodes
        try:
            sender = nodes[sender_id]
            receiver = nodes[receiver_id]
        except KeyError:
            sender = self.node(sender_id)  # raises NetworkError, names the id
            receiver = self.node(receiver_id)
        self.stack.dispatcher.unicast(sender, receiver, packet, on_result)

    def broadcast(self, sender_id: int, packet: Packet) -> int:
        """Link-local broadcast to every in-range neighbor.

        Returns the neighbor count at transmit time.  Each neighbor's
        reception is drawn independently (no acks on broadcast).
        """
        sender = self.node(sender_id)
        if not sender.up:
            # Let the dispatcher record the unsent drop uniformly.
            return self.stack.dispatcher.broadcast(sender, (), packet)
        return self.stack.dispatcher.broadcast(sender, self.neighbors(sender_id), packet)

    def add_sniffer(self, fn: Callable[[Packet, int, int], None]) -> None:
        """Observe every successful delivery as ``(packet, from, to)``."""
        self.stack.app.add_sniffer(fn)

    def __repr__(self) -> str:
        return f"Network(nodes={len(self.nodes)}, jammers={len(self.channel.jammers)})"


# ------------------------------------------------------------------- screen
#
# The neighbour rule over a whole world at once, in numpy: Network.neighbors
# (every node's list), build_topology (candidate pairs) and the shard
# runtime's nearest partners all read the same cells.

#: Cells per widest range in ``_candidate_pairs``' grid: a node scans the
#: ``2k + 1`` by ``2k + 1`` cells its own range needs, not the widest's.
_CELLS_PER_RANGE = 4
#: Nodes screened per numpy step: tens of thousands of candidates, a few
#: MiB of arrays at most.
_SCREEN_NODES = 256


def _screen_cell_m(widest_m: float) -> float:
    """The edge of ``_candidate_pairs``' cells when the widest range is
    ``widest_m``: a quarter of it and a hair more."""
    return max(widest_m, 1.0) * (1.0 + 1e-9) / _CELLS_PER_RANGE


def _candidate_pairs(
    network: Network, nodes: List[NetNode], ids: np.ndarray, *, directed: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` index arrays into ``nodes``, whose ids are ``ids``: each
    node ``i`` with every other ``j`` within ``i``'s margin-extended range,
    in node order and then ascending id.  Unless ``directed``, only the
    ``j`` of higher id than ``i``: the lower id's range decides a pair.

    Node ``i``'s neighbours lie within ``k = ceil(limit * (1 + 1e-9) /
    cell)`` cells of its own.  Squared distances screen those blocks in
    numpy; a pair within a billionth of its limit is decided again by
    ``math.hypot(dx, dy) <= limit``, the rule's own expression.
    """
    if len(nodes) < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    margin_db = -network.neighbor_margin_db
    ranges = {
        power: network.channel.comm_range_m(power, margin_db=margin_db)
        for power in {node.tx_power_dbm for node in nodes}
    }
    limit = np.array([ranges[node.tx_power_dbm] for node in nodes])
    cell = _screen_cell_m(float(limit.max()))
    blocks = np.ceil(limit * (1.0 + 1e-9) / cell).astype(np.int64)
    xs, ys, cx, cy = _cells(network, ids.tolist(), cell)
    gx, gy, width, height, table = _cell_table(cx, cy)
    rows, cands = [], []
    for k in np.flatnonzero(np.bincount(blocks)).tolist():
        scanned = np.flatnonzero(blocks == k)
        for start in range(0, scanned.size, _SCREEN_NODES):
            s = scanned[start:start + _SCREEN_NODES]
            row, cand = _block_members(s, k, gx, gy, width, height, table)
            row = s[row]
            if not directed:
                up = ids[cand] > ids[row]
                row, cand = row[up], cand[up]
            dx, dy = xs[row] - xs[cand], ys[row] - ys[cand]
            d2, lim2 = dx * dx + dy * dy, limit[row] * limit[row]
            near = d2 <= lim2
            for e in np.flatnonzero(abs(d2 - lim2) <= 1e-9 * lim2).tolist():
                near[e] = math.hypot(float(dx[e]), float(dy[e])) <= float(limit[row[e]])
            rows.append(row[near])
            cands.append(cand[near])
    row, cand = np.concatenate(rows), np.concatenate(cands)
    # The keys are distinct, so any sort gives this order.  Stable is the
    # kind _cell_table sorts with: a second sort's code is another ~0.3 MiB
    # of resident pages in a process that never sorted before.
    order = np.argsort(row * ids.size + _ranks(ids)[cand], kind="stable")
    return row[order], cand[order]


def _ranks(ids: np.ndarray) -> np.ndarray:
    """Each id's place in ascending id order."""
    rank = np.empty_like(ids)
    rank[np.argsort(ids, kind="stable")] = np.arange(ids.size)
    return rank


def _undirected(row: np.ndarray, cand: np.ndarray, ids: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The pairs of a directed screen once each, as index arrays ``(lower,
    higher)`` by id, in the screen's order of the end that lists them.

    The screen's order makes ``row * n + rank[cand]`` ascending, so
    ``searchsorted`` finds whether a pair's reverse is listed too; of a
    pair both ends list, the entry from the lower id stays.
    """
    rank = _ranks(ids)
    n = ids.size
    keys, back = row * n + rank[cand], cand * n + rank[row]
    at = np.minimum(np.searchsorted(keys, back), keys.size - 1)
    up = rank[row] < rank[cand]
    keep = up | (keys[at] != back)
    return np.where(up, row, cand)[keep], np.where(up, cand, row)[keep]


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


def _block_members(
    s: np.ndarray, k: int, gx: np.ndarray, gy: np.ndarray, width: int, height: int, table: _Table
) -> Tuple[np.ndarray, np.ndarray]:
    """``(row, node)``: for each ``s[row]``, every other node in the ``2k + 1``
    by ``2k + 1`` cells around its own, by row, then by cell and ascending."""
    y = gy[s, None] + np.arange(-k, k + 1)
    inside = (y >= 0) & (y < height)
    lo = np.where(inside, y * width + np.maximum(gx[s, None] - k, 0), 0)
    hi = np.where(inside, y * width + np.minimum(gx[s, None] + k, width - 1) + 1, 0)
    segment, cand = _members(lo.ravel(), hi.ravel(), table)
    row = segment // (2 * k + 1)
    other = cand != s[row]
    return row[other], cand[other]
