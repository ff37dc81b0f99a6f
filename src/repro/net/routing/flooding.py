"""Duplicate-suppressed blind flooding.

Every node rebroadcasts each packet the first time it sees it, until the TTL
expires.  Maximal reliability and latency-optimality at maximal cost — the
canonical dissemination baseline the smarter protocols are judged against.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.net.node import NetNode, Network
from repro.net.packet import Packet
from repro.net.routing.base import Router

__all__ = ["FloodingRouter"]


class FloodingRouter(Router):
    name = "flooding"

    def __init__(self, network: Network):
        super().__init__(network)
        self._seen: Dict[int, Set[int]] = {}

    def on_node_state(self, node_id: int, up: bool) -> None:
        # A crash loses the in-RAM duplicate cache; the restarted node will
        # treat still-circulating packets as new (and may re-forward them).
        if not up:
            self._seen.pop(node_id, None)

    def _mark_seen(self, node_id: int, uid: int) -> None:
        seen = self._seen.get(node_id)
        if seen is None:
            seen = self._seen[node_id] = set()
        seen.add(uid)

    def send(self, src_id: int, packet: Packet) -> None:
        self._stamp_origin(src_id, packet)
        self._mark_seen(src_id, packet.uid)
        node = self.attached.get(src_id) or self.network.node(src_id)
        # Source delivers to itself when it is the destination (degenerate).
        if packet.dst == src_id:
            self._deliver_up(node, packet, src_id)
            return
        self.network.broadcast(src_id, packet)

    def on_receive(self, node: NetNode, packet: Packet, from_id: int) -> None:
        # Nine receptions in ten of a dense flood are duplicates and end here.
        seen = self._seen.get(node.id)
        if seen is not None and packet.uid in seen:
            return
        self._mark_seen(node.id, packet.uid)
        fwd = packet.copy_for_forwarding()
        fwd.path.append(node.id)
        if packet.dst is None:
            # Broadcast payloads are consumed everywhere and forwarded on.
            self._deliver_up(node, fwd, from_id)
        elif packet.dst == node.id:
            self._deliver_up(node, fwd, from_id)
            return
        if fwd.ttl > 0:
            self.network.broadcast(node.id, fwd)
        elif packet.dst is not None:
            self._trace_drop(node.id, fwd, "ttl_expired")


# Registry hookup: addressable by name in stack compositions.
from repro.net.registry import register  # noqa: E402  (registration epilogue)

register("router", FloodingRouter.name, FloodingRouter)
