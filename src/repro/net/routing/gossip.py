"""Probabilistic (gossip) flooding.

Identical to flooding except each relay rebroadcasts with probability ``p``.
Classic result: above a percolation threshold in ``p``, gossip reaches
almost everyone flooding reaches at a fraction of the transmissions — the
right trade for energy-disadvantaged IoBT assets.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.errors import ConfigurationError
from repro.net.node import NetNode, Network
from repro.net.packet import Packet
from repro.net.routing.base import Router

__all__ = ["GossipRouter"]


class GossipRouter(Router):
    name = "gossip"

    def __init__(self, network: Network, *, forward_probability: float = 0.7):
        super().__init__(network)
        if not (0.0 < forward_probability <= 1.0):
            raise ConfigurationError(
                f"forward_probability must be in (0, 1], got {forward_probability}"
            )
        self.forward_probability = forward_probability
        self._seen: Dict[int, Set[int]] = {}
        self._rng = network.sim.rng.get("gossip")

    def on_node_state(self, node_id: int, up: bool) -> None:
        # A crash loses the in-RAM duplicate cache; the restarted node will
        # treat still-circulating packets as new (and may re-forward them).
        if not up:
            self._seen.pop(node_id, None)

    def _already_seen(self, node_id: int, uid: int) -> bool:
        seen = self._seen.get(node_id)
        if seen is None:
            seen = self._seen[node_id] = set()
        if uid in seen:
            return True
        seen.add(uid)
        return False

    def send(self, src_id: int, packet: Packet) -> None:
        self._stamp_origin(src_id, packet)
        self._already_seen(src_id, packet.uid)
        if packet.dst == src_id:
            # Self-addressed: deliver locally like every other router
            # (hops == 0, path == [src]) instead of gossiping a packet
            # nobody else will accept.
            self._deliver_up(self.network.node(src_id), packet, src_id)
            return
        # The source always transmits; gossip applies to relays.
        self.network.broadcast(src_id, packet)

    def on_receive(self, node: NetNode, packet: Packet, from_id: int) -> None:
        if self._already_seen(node.id, packet.uid):
            return
        fwd = packet.copy_for_forwarding()
        fwd.path.append(node.id)
        if packet.dst is None or packet.dst == node.id:
            self._deliver_up(node, fwd, from_id)
            if packet.dst == node.id:
                return
        if fwd.ttl > 0 and self._rng.random() < self.forward_probability:
            self.network.broadcast(node.id, fwd)


# Registry hookup: addressable by name in stack compositions.
from repro.net.registry import register  # noqa: E402  (registration epilogue)

register("router", GossipRouter.name, GossipRouter)
