"""Delay-tolerant (store-carry-forward) routing.

When the battlefield network is partitioned — the normal case for
forward-deployed IoBTs — end-to-end paths rarely exist and packets must ride
node mobility.  Two classic protocols:

* :class:`EpidemicRouter` — replicate every bundle at every contact;
  delivery-optimal, storage/energy-maximal.
* :class:`SprayAndWaitRouter` — binary spray of ``L`` copies, then direct
  delivery only; near-epidemic delivery at a fixed replication budget.

Contacts are detected by a periodic beacon sweep over current neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.errors import ConfigurationError
from repro.net.node import NetNode, Network
from repro.net.packet import Packet, PacketKind
from repro.net.routing.base import Router

__all__ = ["EpidemicRouter", "SprayAndWaitRouter"]


@dataclass
class _Bundle:
    packet: Packet
    copies: int = 1  # spray-and-wait budget held by this custodian
    expires_at: float = float("inf")


class _StoreCarryForwardRouter(Router):
    """Shared machinery: per-node bundle stores and contact sweeps."""

    def __init__(
        self,
        network: Network,
        *,
        contact_period_s: float = 5.0,
        bundle_lifetime_s: float = 3600.0,
        store_capacity: int = 512,
    ):
        super().__init__(network)
        if contact_period_s <= 0:
            raise ConfigurationError("contact_period_s must be positive")
        self.contact_period_s = contact_period_s
        self.bundle_lifetime_s = bundle_lifetime_s
        self.store_capacity = store_capacity
        self._stores: Dict[int, Dict[int, _Bundle]] = {}
        self._delivered: Dict[int, Set[int]] = {}
        self._started = False

    def start(self) -> None:
        """Begin periodic contact sweeps (idempotent)."""
        if not self._started:
            self._started = True
            self.sim.every(
                self.contact_period_s, lambda: self.on_timer(self.sim.now)
            )

    def on_timer(self, now: float) -> None:
        """One contact sweep; :meth:`start` schedules it every period."""
        self._sweep()

    def on_node_state(self, node_id: int, up: bool) -> None:
        # A crash loses custody of every bundle the node was carrying
        # (volatile store); the delivered-ledger is kept, modelling
        # application-level dedup on stable storage.
        if not up:
            lost = len(self._stores.pop(node_id, ()) or ())
            if lost:
                self.sim.metrics.incr(f"route.{self.name}.custody_lost", lost)

    def _store(self, node_id: int) -> Dict[int, _Bundle]:
        return self._stores.setdefault(node_id, {})

    def _expire(self, node_id: int) -> None:
        store = self._store(node_id)
        dead = [uid for uid, b in store.items() if b.expires_at < self.sim.now]
        for uid in dead:
            bundle = store.pop(uid)
            self.sim.metrics.incr(f"route.{self.name}.expired")
            self._trace_drop(node_id, bundle.packet, "expired")

    def _admit(self, node_id: int, bundle: _Bundle) -> bool:
        store = self._store(node_id)
        if bundle.packet.uid in store:
            return False
        if len(store) >= self.store_capacity:
            # Drop-oldest: evict the bundle closest to expiry.
            victim = min(store.values(), key=lambda b: b.expires_at)
            del store[victim.packet.uid]
            self.sim.metrics.incr(f"route.{self.name}.evicted")
            self._trace_drop(node_id, victim.packet, "evicted")
        store[bundle.packet.uid] = bundle
        tracer = self._tracer()
        if tracer is not None:
            tracer.on_custody(node_id, bundle.packet, copies=bundle.copies)
        return True

    def send(self, src_id: int, packet: Packet) -> None:
        self._stamp_origin(src_id, packet)
        node = self.network.node(src_id)
        if packet.dst == src_id:
            self._deliver_up(node, packet, src_id)
            return
        bundle = _Bundle(
            packet=packet,
            copies=self._initial_copies(),
            expires_at=self.sim.now + self.bundle_lifetime_s,
        )
        self._admit(src_id, bundle)
        self.start()

    def on_receive(self, node: NetNode, packet: Packet, from_id: int) -> None:
        if packet.kind is PacketKind.DTN_SUMMARY:
            return  # summaries are consumed inside the sweep model
        incoming = packet.copy_for_forwarding()
        incoming.path.append(node.id)
        if incoming.dst == node.id:
            already = self._delivered.setdefault(node.id, set())
            if incoming.uid not in already:
                already.add(incoming.uid)
                self._deliver_up(node, incoming, from_id)
            return
        bundle = _Bundle(
            packet=incoming,
            copies=int(packet.headers.get("sw_copies", 1)),
            expires_at=self.sim.now + self.bundle_lifetime_s,
        )
        self._admit(node.id, bundle)

    # --------------------------------------------------------------- contacts

    def _sweep(self) -> None:
        for node_id in list(self.attached):
            node = self.network.nodes.get(node_id)
            if node is None or not node.up:
                continue
            self._expire(node_id)
            if not self._store(node_id):
                continue
            for neighbor_id in self.network.neighbors(node_id):
                if neighbor_id in self.attached:
                    self._contact(node_id, neighbor_id)

    def _contact(self, a: int, b: int) -> None:
        raise NotImplementedError

    def _initial_copies(self) -> int:
        return 1

    def _transfer(
        self,
        carrier: int,
        peer: int,
        bundle: _Bundle,
        copies: int,
        on_result=None,
    ) -> None:
        """Transmit one bundle replica from carrier to peer over the radio."""
        pkt = bundle.packet.copy_for_forwarding()
        pkt.ttl = bundle.packet.ttl  # DTN replicas do not burn TTL
        pkt.headers["sw_copies"] = copies
        self.network.send(carrier, peer, pkt, on_result=on_result)


class EpidemicRouter(_StoreCarryForwardRouter):
    """Replicate every stored bundle to every encountered peer."""

    name = "epidemic"

    def _contact(self, a: int, b: int) -> None:
        peer_store = self._store(b)
        peer_delivered = self._delivered.setdefault(b, set())
        for uid, bundle in list(self._store(a).items()):
            if uid in peer_store or uid in peer_delivered:
                continue
            self._transfer(a, b, bundle, copies=1)


class SprayAndWaitRouter(_StoreCarryForwardRouter):
    """Binary spray-and-wait with a configurable copy budget ``L``."""

    name = "spray_wait"

    def __init__(self, network: Network, *, copies: int = 8, **kwargs):
        super().__init__(network, **kwargs)
        if copies < 1:
            raise ConfigurationError("copies must be >= 1")
        self.copies = copies

    def _initial_copies(self) -> int:
        return self.copies

    def _contact(self, a: int, b: int) -> None:
        peer_store = self._store(b)
        peer_delivered = self._delivered.setdefault(b, set())
        for uid, bundle in list(self._store(a).items()):
            if uid in peer_store or uid in peer_delivered:
                continue
            if bundle.packet.dst == b:
                # Direct delivery to the destination, regardless of budget.
                self._transfer(a, b, bundle, copies=1)
                continue
            if bundle.copies > 1:
                # Binary spray: hand over half the copy budget — but only
                # commit the decrement once the radio transfer actually
                # succeeded, otherwise a lossy contact would leak copies
                # and strand the bundle below its replication budget.
                give = bundle.copies // 2

                def settle(ok: bool, bundle=bundle, give=give) -> None:
                    if ok:
                        bundle.copies -= give

                self._transfer(a, b, bundle, copies=give, on_result=settle)


# Registry hookup: addressable by name in stack compositions.
from repro.net.registry import register  # noqa: E402  (registration epilogue)

register("router", EpidemicRouter.name, EpidemicRouter)
register("router", SprayAndWaitRouter.name, SprayAndWaitRouter)
