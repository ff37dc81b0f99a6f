"""Greedy geographic forwarding.

Each hop forwards to the neighbor geographically closest to the destination,
provided it is strictly closer than the current node (otherwise the packet
is at a local minimum — a "void" — and is dropped after a bounded number of
random detours).  Position knowledge comes from a pluggable location
service; the default reads true positions, modeling a GPS-equipped force.
"""

from __future__ import annotations

from math import hypot
from typing import Callable, Dict, Optional, Tuple

from repro.net.node import NetNode, Network
from repro.net.packet import Packet
from repro.net.routing.base import Router
from repro.util.geometry import Point, distance

__all__ = ["GreedyGeoRouter"]

LocationService = Callable[[int], Optional[Point]]


class GreedyGeoRouter(Router):
    name = "geo"

    def __init__(
        self,
        network: Network,
        *,
        location_service: Optional[LocationService] = None,
        max_detours: int = 2,
        retries: int = 2,
    ):
        super().__init__(network)
        self._locate = location_service or self._true_position
        # The memo below answers from cached geometry, which is only the
        # truth when positions come from the true-position service.
        self._memo_ok = location_service is None
        self.max_detours = max_detours
        self.retries = retries
        self._rng = network.sim.rng.get("geo")
        # Metric names of the drop paths, built once (most hops of a lossy
        # world end on one of them).
        self._m_no_location = f"route.{self.name}.no_location"
        self._m_void_drop = f"route.{self.name}.void_drop"
        self._m_link_drop = f"route.{self.name}.link_drop"
        # (node_id, dst_id) -> (best_nid, best_d, here_d): the *unfiltered*
        # greedy argmin over the node's live neighborhood plus the node's
        # own distance to the destination.  Valid only while topology and
        # liveness stand still (see _forward); only used with the
        # true-position location service, whose answers are exactly the
        # cached geometry.  An entry exists only for a destination that
        # was located, and removing or moving a node bumps
        # topology_version, so a hit needs no location lookup.
        self._next_hop: Dict[
            Tuple[int, Optional[int]], Tuple[Optional[int], float, float]
        ] = {}
        self._next_hop_sig: Tuple[int, int] = (-1, -1)

    def _true_position(self, node_id: int) -> Optional[Point]:
        if node_id in self.network.nodes:
            return self.network.node(node_id).position
        return None

    def send(self, src_id: int, packet: Packet) -> None:
        self._stamp_origin(src_id, packet)
        node = self.network.node(src_id)
        if packet.dst == src_id:
            self._deliver_up(node, packet, src_id)
            return
        self._forward(node, packet)

    def on_receive(self, node: NetNode, packet: Packet, from_id: int) -> None:
        fwd = packet.copy_for_forwarding()
        fwd.path.append(node.id)
        if packet.dst == node.id or packet.dst is None:
            self._deliver_up(node, fwd, from_id)
            return
        if fwd.ttl <= 0:
            self.sim.metrics.incr(self._m_ttl_expired)
            self._trace_drop(node.id, fwd, "ttl_expired")
            return
        self._forward(node, fwd)

    def _forward(self, node: NetNode, packet: Packet, attempt: int = 0) -> None:
        network = self.network
        cacheable = self._memo_ok
        cached = None
        if cacheable:
            sig = (network.topology_version, network.liveness_version)
            if sig != self._next_hop_sig:
                self._next_hop.clear()
                self._next_hop_sig = sig
            cached = self._next_hop.get((node.id, packet.dst))
            if cached is not None:
                cached_id, cached_d, here = cached
                # The unfiltered argmin is exactly what the filtered scan
                # below would pick whenever it is admissible: removing
                # path-visited candidates can't surface an earlier or
                # smaller minimum, and ties resolve to the first neighbor
                # in iteration order either way.
                if cached_id is not None and cached_d < here and cached_id not in packet.path:
                    self._dispatch(node, packet, cached_id, attempt)
                    return
        dst_pos = self._locate(packet.dst) if packet.dst is not None else None
        if dst_pos is None:
            self.sim.metrics.incr(self._m_no_location)
            self._trace_drop(node.id, packet, "no_location")
            return
        if cached is None:
            here = distance(node.position, dst_pos)
        best_id: Optional[int] = None
        best_dist = here
        free_id: Optional[int] = None  # unfiltered argmin, for the memo
        free_dist = here
        neighbor_ids = network.neighbors(node.id)
        nodes = network.nodes
        dx, dy = dst_pos.x, dst_pos.y
        path = packet.path
        for nid in neighbor_ids:
            pos = nodes[nid].position
            d = hypot(pos.x - dx, pos.y - dy)
            if d < free_dist:
                free_dist = d
                free_id = nid
            if d < best_dist and nid not in path:
                best_dist = d
                best_id = nid
        if cacheable:
            self._next_hop[(node.id, packet.dst)] = (free_id, free_dist, here)
        detours = packet.headers.get("geo_detours", 0)
        if best_id is None:
            # Local minimum: take a bounded random detour, then give up.
            candidates = [n for n in neighbor_ids if n not in packet.path]
            if detours >= self.max_detours or not candidates:
                self.sim.metrics.incr(self._m_void_drop)
                self._trace_drop(node.id, packet, "void_drop")
                return
            best_id = candidates[int(self._rng.integers(0, len(candidates)))]
            packet.headers["geo_detours"] = detours + 1
        self._dispatch(node, packet, best_id, attempt)

    def _dispatch(
        self, node: NetNode, packet: Packet, next_id: int, attempt: int
    ) -> None:
        def result(ok: bool) -> None:
            if not ok and attempt < self.retries:
                tracer = self._tracer()
                if tracer is not None:
                    tracer.on_retransmit(
                        packet, node.id, attempt=attempt + 1, layer="link"
                    )
                self._forward(node, packet, attempt + 1)
            elif not ok:
                self.sim.metrics.incr(self._m_link_drop)
                self._trace_drop(node.id, packet, "link_drop")

        self.network.send(node.id, next_id, packet, on_result=result)


# Registry hookup: addressable by name in stack compositions.
from repro.net.registry import register  # noqa: E402  (registration epilogue)

register("router", GreedyGeoRouter.name, GreedyGeoRouter)
