"""AODV-style reactive routing.

On-demand route discovery: a source with no route floods a route request
(RREQ); the destination (or a node with a fresh cached route) unicasts a
route reply (RREP) back along the reverse path; data then follows the
discovered next-hops.  Failed unicasts trigger rediscovery.  Sequence
numbers prevent stale/looping routes, as in the RFC 3561 design, though
timers and gratuitous replies are simplified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.net.node import NetNode, Network
from repro.net.packet import Packet, PacketKind
from repro.net.routing.base import Router

__all__ = ["AodvRouter"]


@dataclass
class RouteEntry:
    next_hop: int
    hop_count: int
    dst_seq: int
    expires_at: float


@dataclass
class _RreqInfo:
    """Payload carried by RREQ/RREP control packets."""

    origin: int
    target: int
    origin_seq: int
    target_seq: int
    hop_count: int = 0


class AodvRouter(Router):
    name = "aodv"

    def __init__(
        self,
        network: Network,
        *,
        route_lifetime_s: float = 60.0,
        discovery_timeout_s: float = 2.0,
        max_discovery_retries: int = 2,
        rreq_ttl: int = 16,
        destination_only: bool = False,
    ):
        super().__init__(network)
        self.route_lifetime_s = route_lifetime_s
        self.discovery_timeout_s = discovery_timeout_s
        self.max_discovery_retries = max_discovery_retries
        self.rreq_ttl = rreq_ttl
        #: RFC 3561's 'D' flag: only the destination may answer an RREQ.
        #: Intermediate cache replies compare the cached sequence against
        #: the originator's *knowledge* of the destination sequence — a
        #: read of the router-global ``_seq`` map that has no distributed
        #: equivalent, so sharded execution requires this flag.
        self.destination_only = destination_only
        self._tables: Dict[int, Dict[int, RouteEntry]] = {}
        self._seq: Dict[int, int] = {}
        self._rreq_id = 0
        self._seen_rreq: Dict[int, Set[Tuple[int, int]]] = {}
        self._pending: Dict[Tuple[int, int], List[Packet]] = {}
        self._discovery_tries: Dict[Tuple[int, int], int] = {}
        # Metric names of the per-packet paths, built once.
        self._m_rreq = f"route.{self.name}.rreq"
        self._m_rrep = f"route.{self.name}.rrep"
        self._m_link_break = f"route.{self.name}.link_break"
        self._m_dropped = f"route.{self.name}.dropped"

    # --------------------------------------------------------------- plumbing

    def on_node_state(self, node_id: int, up: bool) -> None:
        """Purge state a crash invalidated: the dead node's own table and
        RREQ cache (RAM is lost), every route through or to it, and any
        packets it had queued awaiting discovery."""
        if up:
            return
        self._tables.pop(node_id, None)
        self._seen_rreq.pop(node_id, None)
        purged = 0
        stale_dsts = {node_id}
        for table in self._tables.values():
            stale = [
                dst
                for dst, entry in table.items()
                if entry.next_hop == node_id or dst == node_id
            ]
            for dst in stale:
                del table[dst]
            stale_dsts.update(stale)
            purged += len(stale)
        # Sequence-number invalidation (the RERR analogue): destinations
        # whose routes broke get a bumped sequence, so surviving stale
        # cached routes elsewhere cannot answer rediscovery RREQs and seed
        # routing loops toward the dead hop.
        for dst in stale_dsts:
            self._seq[dst] = self._seq.get(dst, 0) + 1
        if purged:
            self.sim.metrics.incr(f"route.{self.name}.routes_purged", purged)
        for key in [k for k in self._pending if k[0] == node_id]:
            dropped = self._pending.pop(key, [])
            self._discovery_tries.pop(key, None)
            if dropped:
                self.sim.metrics.incr(self._m_dropped, len(dropped))
                for packet in dropped:
                    self._trace_drop(node_id, packet, "node_down")

    def _table(self, node_id: int) -> Dict[int, RouteEntry]:
        return self._tables.setdefault(node_id, {})

    def _next_seq(self, node_id: int) -> int:
        self._seq[node_id] = self._seq.get(node_id, 0) + 1
        return self._seq[node_id]

    def _route(self, node_id: int, dst: int) -> Optional[RouteEntry]:
        entry = self._table(node_id).get(dst)
        if entry is None or entry.expires_at < self.sim.now:
            return None
        if not self.network.node(entry.next_hop).up:
            return None
        return entry

    def _learn(
        self, node_id: int, dst: int, next_hop: int, hops: int, dst_seq: int
    ) -> None:
        table = self._table(node_id)
        current = table.get(dst)
        fresher = current is None or dst_seq > current.dst_seq
        shorter = (
            current is not None
            and dst_seq == current.dst_seq
            and hops < current.hop_count
        )
        if fresher or shorter:
            table[dst] = RouteEntry(
                next_hop=next_hop,
                hop_count=hops,
                dst_seq=dst_seq,
                expires_at=self.sim.now + self.route_lifetime_s,
            )

    # ------------------------------------------------------------------- send

    def send(self, src_id: int, packet: Packet) -> None:
        self._stamp_origin(src_id, packet)
        node = self.network.node(src_id)
        if packet.dst is None:
            self.network.broadcast(src_id, packet)
            return
        if packet.dst == src_id:
            self._deliver_up(node, packet, src_id)
            return
        self._dispatch(src_id, packet)

    def _dispatch(self, node_id: int, packet: Packet) -> None:
        assert packet.dst is not None
        entry = self._route(node_id, packet.dst)
        if entry is None:
            key = (node_id, packet.dst)
            queue = self._pending.setdefault(key, [])
            queue.append(packet)
            if len(queue) == 1:
                self._discovery_tries[key] = 0
                self._start_discovery(node_id, packet.dst)
            return
        self._forward_via(node_id, entry.next_hop, packet)

    def _forward_via(self, node_id: int, next_hop: int, packet: Packet) -> None:
        def result(ok: bool) -> None:
            if ok:
                return
            # Link break: purge the route and retry via rediscovery.
            self._table(node_id).pop(packet.dst, None)
            self.sim.metrics.incr(self._m_link_break)
            if packet.ttl > 0:
                packet.ttl -= 1
                self._dispatch(node_id, packet)
            else:
                self.sim.metrics.incr(self._m_dropped)
                self._trace_drop(node_id, packet, "ttl_expired")

        self.send_reliable(node_id, next_hop, packet, on_result=result)

    # -------------------------------------------------------------- discovery

    def _start_discovery(self, origin: int, target: int) -> None:
        self._rreq_id += 1
        rreq_key = (origin, self._rreq_id)
        info = _RreqInfo(
            origin=origin,
            target=target,
            origin_seq=self._next_seq(origin),
            target_seq=self._seq.get(target, 0),
        )
        rreq = Packet(
            src=origin,
            dst=None,
            kind=PacketKind.RREQ,
            payload=info,
            size_bits=256,
            ttl=self.rreq_ttl,
            headers={"rreq_key": rreq_key},
        )
        self._stamp_origin(origin, rreq)
        self._seen_rreq.setdefault(origin, set()).add(rreq_key)
        self.sim.metrics.incr(self._m_rreq)
        self.network.broadcast(origin, rreq)
        self.sim.call_in(
            self.discovery_timeout_s, lambda: self._discovery_check(origin, target)
        )

    def _discovery_check(self, origin: int, target: int) -> None:
        key = (origin, target)
        queue = self._pending.get(key)
        if not queue:
            return
        if self._route(origin, target) is not None:
            self._flush_pending(origin, target)
            return
        tries = self._discovery_tries.get(key, 0) + 1
        self._discovery_tries[key] = tries
        if tries <= self.max_discovery_retries:
            self._start_discovery(origin, target)
        else:
            self.sim.metrics.incr(
                f"route.{self.name}.discovery_failed", len(queue)
            )
            self._pending.pop(key, None)
            for packet in queue:
                self._trace_drop(origin, packet, "discovery_failed")

    def _flush_pending(self, origin: int, target: int) -> None:
        key = (origin, target)
        queue = self._pending.pop(key, [])
        for packet in queue:
            self._dispatch(origin, packet)

    # --------------------------------------------------------------- receive

    def on_receive(self, node: NetNode, packet: Packet, from_id: int) -> None:
        if packet.kind is PacketKind.RREQ:
            self._handle_rreq(node, packet, from_id)
            return
        if packet.kind is PacketKind.RREP:
            self._handle_rrep(node, packet, from_id)
            return
        fwd = packet.copy_for_forwarding()
        fwd.path.append(node.id)
        if packet.dst is None or packet.dst == node.id:
            self._deliver_up(node, fwd, from_id)
            return
        if fwd.ttl <= 0:
            self.sim.metrics.incr(self._m_ttl_expired)
            self._trace_drop(node.id, fwd, "ttl_expired")
            return
        self._dispatch(node.id, fwd)

    def _handle_rreq(self, node: NetNode, packet: Packet, from_id: int) -> None:
        info: _RreqInfo = packet.payload
        rreq_key = packet.headers["rreq_key"]
        seen = self._seen_rreq.setdefault(node.id, set())
        if rreq_key in seen:
            return
        seen.add(rreq_key)
        hops = packet.hops + 1
        # Reverse route toward the originator.
        self._learn(node.id, info.origin, from_id, hops, info.origin_seq)
        if node.id == info.target:
            self._send_rrep(node.id, info, hops=0, rreq=packet)
            return
        cached = None if self.destination_only else self._route(node.id, info.target)
        if cached is not None and cached.dst_seq >= info.target_seq:
            # Intermediate reply from cache.
            self._send_rrep(
                node.id,
                info,
                hops=cached.hop_count,
                cached_seq=cached.dst_seq,
                rreq=packet,
            )
            return
        if packet.ttl > 0:
            fwd = packet.copy_for_forwarding()
            fwd.path.append(node.id)
            self.network.broadcast(node.id, fwd)

    def _send_rrep(
        self,
        replier: int,
        info: _RreqInfo,
        *,
        hops: int,
        cached_seq: Optional[int] = None,
        rreq: Optional[Packet] = None,
    ) -> None:
        seq = cached_seq if cached_seq is not None else self._next_seq(info.target)
        rrep = Packet(
            src=replier,
            dst=info.origin,
            kind=PacketKind.RREP,
            payload=_RreqInfo(
                origin=info.origin,
                target=info.target,
                origin_seq=info.origin_seq,
                target_seq=seq,
                hop_count=hops,
            ),
            size_bits=256,
            ttl=self.rreq_ttl,
        )
        tracer = self._tracer()
        if tracer is not None and rreq is not None:
            # The RREP is causally spawned by the RREQ that reached us.
            tracer.inherit(rreq, rrep)
        self._stamp_origin(replier, rrep)
        self.sim.metrics.incr(self._m_rrep)
        entry = self._route(replier, info.origin)
        if entry is not None:
            self.send_reliable(replier, entry.next_hop, rrep)

    def _handle_rrep(self, node: NetNode, packet: Packet, from_id: int) -> None:
        info: _RreqInfo = packet.payload
        hops_to_target = info.hop_count + packet.hops + 1
        self._learn(node.id, info.target, from_id, hops_to_target, info.target_seq)
        if node.id == info.origin:
            self._flush_pending(node.id, info.target)
            return
        entry = self._route(node.id, info.origin)
        if entry is not None:
            fwd = packet.copy_for_forwarding()
            fwd.path.append(node.id)
            if fwd.ttl > 0:
                self.send_reliable(node.id, entry.next_hop, fwd)


# Registry hookup: addressable by name in stack compositions.
from repro.net.registry import register  # noqa: E402  (registration epilogue)

register("router", AodvRouter.name, AodvRouter)
