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

    Neighbor queries use a uniform grid sized to the maximum communication
    range, so they cost O(occupants of 9 cells) instead of O(N).  The
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
        # cell -> rows of (node id, x, y), so a scan reads no node object.
        self._grid: Dict[Tuple[int, int], List[Tuple[int, float, float]]] = {}
        self._cell_size = 0.0
        self._grid_dirty = True
        #: Bumped on every membership/position change; position-dependent
        #: caches (the PHY pair-probability cache) key their validity on it
        #: instead of hashing Point coordinates per lookup.
        self.topology_version = 0
        #: Bumped on every up/down flip; caches that depend on which nodes
        #: are alive (e.g. greedy-geo next-hop memos built over the default
        #: liveness-filtered neighbor view) key on this *and* on
        #: :attr:`topology_version`.
        self.liveness_version = 0
        # node_id -> sorted neighbor ids.  Broadcast asks for a node's
        # neighborhood twice per transmission (MAC load + the fan-out list),
        # so the answers are cached.  The geometric lists (everything in
        # range, up or down) depend on positions only and live until the
        # next grid rebuild; the up-only lists are filtered from them and
        # are all a liveness flip has to drop.
        self._geo_neighbors: Dict[int, List[int]] = {}
        self._up_neighbors: Dict[int, List[int]] = {}
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
        self._grid_dirty = True
        self.topology_version += 1
        return node

    def create_node(self, node_id: int, position: Point, **kwargs: Any) -> NetNode:
        return self.add_node(NetNode(node_id, position, **kwargs))

    def remove_node(self, node_id: int) -> None:
        self.nodes.pop(node_id, None)
        self._grid_dirty = True
        self.topology_version += 1

    def node(self, node_id: int) -> NetNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise NetworkError(f"unknown node {node_id}") from None

    def set_position(self, node_id: int, position: Point) -> None:
        self.node(node_id).position = position
        self._grid_dirty = True
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

    # ------------------------------------------------------------ spatial grid

    def _max_range(self) -> float:
        if not self.nodes:
            return 1.0
        max_power = max(n.tx_power_dbm for n in self.nodes.values())
        return self.channel.comm_range_m(max_power, margin_db=-self.neighbor_margin_db)

    def _rebuild_grid(self) -> None:
        # A hair over the widest range, or a pair exactly at its limit can sit two rows apart.
        self._cell_size = max(self._max_range(), 1.0) * (1.0 + 1e-9)
        self._grid = {}
        for node in self.nodes.values():
            p = node.position
            self._grid.setdefault(self._cell_of(p), []).append((node.id, p.x, p.y))
        self._grid_dirty = False
        self._geo_neighbors.clear()
        self._up_neighbors.clear()

    def _cell_of(self, p: Point) -> Tuple[int, int]:
        return (int(math.floor(p.x / self._cell_size)), int(math.floor(p.y / self._cell_size)))

    def invalidate_topology(self) -> None:
        """Mark the spatial index stale (bulk position updates call this)."""
        self._grid_dirty = True
        self.topology_version += 1

    def neighbors(self, node_id: int, *, include_down: bool = False) -> List[int]:
        """Ids of nodes within (margin-extended) communication range.

        The returned list is cached until the next topology change
        (``include_down=True``: pure geometry) or the next topology or
        liveness change (the default up-only view) — treat it as read-only.
        """
        if self._grid_dirty:
            self._rebuild_grid()
        if not include_down:
            cached = self._up_neighbors.get(node_id)
            if cached is not None:
                return cached
        found = self._geo_neighbors.get(node_id)
        if found is None:
            node = self.node(node_id)
            limit = self.channel.comm_range_m(
                node.tx_power_dbm, margin_db=-self.neighbor_margin_db
            )
            x, y = node.position.x, node.position.y
            cx, cy = self._cell_of(node.position)
            hypot = math.hypot
            found = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    # distance(node.position, other.position) <= limit, inline.
                    found += [
                        other_id
                        for other_id, ox, oy in self._grid.get((cx + dx, cy + dy), ())
                        if hypot(x - ox, y - oy) <= limit and other_id != node_id
                    ]
            found.sort()
            self._geo_neighbors[node_id] = found
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
