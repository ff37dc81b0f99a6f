"""Router interface shared by all protocols."""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.errors import NetworkError
from repro.net.node import NetNode, Network
from repro.net.packet import Packet

__all__ = ["Router"]

DeliveryCallback = Callable[[Packet, int], None]


class Router:
    """Base router: bookkeeping for attachment and delivery accounting.

    Subclasses override :meth:`send` (originate a packet at its source) and
    :meth:`on_receive` (handle a packet the network delivered to a node).
    """

    name = "base"

    def __init__(self, network: Network):
        self.network = network
        self.sim = network.sim
        self.attached: Dict[int, NetNode] = {}
        # Metric names of _deliver_up, built once (it runs per delivered
        # packet), and of the TTL drop every forwarding router shares.
        self._m_delivered = f"route.{self.name}.delivered"
        self._m_latency = f"route.{self.name}.latency_s"
        self._m_hops = f"route.{self.name}.hops"
        self._m_ttl_expired = f"route.{self.name}.ttl_expired"
        # Liveness transitions invalidate stale protocol state (routes
        # through dead nodes, caches a crashed node held in RAM).
        network.on_node_state(self.on_node_state)

    def on_node_state(self, node_id: int, up: bool) -> None:
        """Hook: a node's liveness changed.  Default is a no-op; protocols
        override it to purge state the transition invalidated."""

    # ------------------------------------------------------------- attachment

    def attach(self, node_id: int) -> None:
        node = self.network.node(node_id)
        if node.router is not None and node.router is not self:
            raise NetworkError(f"node {node_id} already has a router")
        node.router = self
        self.attached[node_id] = node

    def attach_all(self, node_ids: Iterable[int]) -> None:
        for node_id in node_ids:
            self.attach(node_id)

    def detach(self, node_id: int) -> None:
        node = self.attached.pop(node_id, None)
        if node is not None and node.router is self:
            node.router = None

    # ---------------------------------------------------------------- routing

    def send(self, src_id: int, packet: Packet) -> None:
        """Originate ``packet`` at node ``src_id``."""
        raise NotImplementedError

    def on_receive(self, node: NetNode, packet: Packet, from_id: int) -> None:
        """Handle a packet delivered by the network to ``node``."""
        raise NotImplementedError

    # ------------------------------------------------------------ accounting

    def _tracer(self):
        """The simulator's packet tracer, or ``None`` when tracing is off."""
        tracer = self.sim.packet_tracer
        if tracer is not None and tracer.enabled:
            return tracer
        return None

    def _deliver_up(self, node: NetNode, packet: Packet, from_id: int) -> None:
        """Hand the packet to the application and record delivery metrics."""
        metrics = self.sim.metrics
        metrics.incr(self._m_delivered)
        metrics.sample(self._m_latency, self.sim.now - packet.created_at)
        metrics.sample(self._m_hops, packet.hops)
        tracer = self._tracer()
        if tracer is not None:
            tracer.on_deliver(node.id, packet)
        node.deliver_local(packet, from_id)

    def _stamp_origin(self, src_id: int, packet: Packet) -> None:
        """Originate ``packet`` at ``src_id``: timestamp it, seed its path
        with the origin (so ``Packet.hops`` counts transmissions uniformly
        across routers), and open its trace context when tracing is on.

        Every ``send()`` implementation — including control packets like
        AODV RREQ/RREP — must come through here rather than stamping by
        hand; it is the single place the path/trace origin contract lives.
        """
        packet.created_at = self.sim.now
        if not packet.path:
            packet.path.append(src_id)
        tracer = self._tracer()
        if tracer is not None:
            tracer.stamp_origin(packet)

    def _trace_drop(self, node_id: int, packet: Packet, reason: str) -> None:
        """Record a routing-layer abandonment (TTL expiry, void, ...)."""
        tracer = self._tracer()
        if tracer is not None:
            tracer.on_route_drop(node_id, packet, reason)

    def send_reliable(
        self,
        sender_id: int,
        receiver_id: int,
        packet: Packet,
        *,
        retries: int = 3,
        on_result: Optional[Callable[[bool], None]] = None,
    ) -> None:
        """Unicast with link-layer retransmissions (ARQ), like 802.11.

        Retries draw fresh fading/backoff each attempt, so a marginal link
        with per-try probability p succeeds with 1-(1-p)^(retries+1).
        """

        def attempt(tries_left: int) -> None:
            def result(ok: bool) -> None:
                if ok or tries_left <= 0:
                    if on_result:
                        on_result(ok)
                else:
                    tracer = self._tracer()
                    if tracer is not None:
                        tracer.on_retransmit(
                            packet,
                            sender_id,
                            attempt=retries - tries_left + 1,
                            layer="link",
                        )
                    attempt(tries_left - 1)

            self.network.send(sender_id, receiver_id, packet, on_result=result)

        attempt(retries)
