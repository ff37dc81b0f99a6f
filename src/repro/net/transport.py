"""Message transport over any router.

:class:`MessageService` gives applications a simple ``send -> receipt``
abstraction and aggregates delivery statistics (delivery ratio, latency,
hop count, transmissions per delivery) that the experiments report.

:class:`ReliableMessageService` layers an end-to-end reliability protocol
on top of the same router substrate: destinations acknowledge with
:attr:`~repro.net.packet.PacketKind.ACK` packets, unacked messages are
retransmitted with exponential backoff plus seeded jitter up to a bounded
retry budget, receivers suppress duplicates, and every message carries a
:class:`MessageFate` (``delivered`` / ``gave_up`` / ``in_flight``) so
degradation under faults is measurable (retransmit rate, goodput).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set

from repro.errors import ConfigurationError
from repro.net.node import NetNode, Network
from repro.net.packet import Packet, PacketKind
from repro.net.routing.base import Router
from repro.sim.event import Event

__all__ = [
    "DeliveryReceipt",
    "MessageService",
    "MessageFate",
    "ReliableMessageService",
]


@dataclass
class DeliveryReceipt:
    """Tracks the fate of one application message."""

    uid: int
    src: int
    dst: Optional[int]
    sent_at: float
    delivered_at: Optional[float] = None
    hops: Optional[int] = None

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None

    @property
    def latency_s(self) -> Optional[float]:
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at


class MessageService:
    """Application-level messaging bound to one router.

    The service installs a DATA handler on every node the router is attached
    to; user callbacks can be registered per destination node.
    """

    def __init__(self, router: Router):
        self.router = router
        self.network: Network = router.network
        self.sim = router.sim
        self.receipts: Dict[int, DeliveryReceipt] = {}
        # Multiple services (tracking, health, ...) may share one transport
        # and register on the same node, so handlers are multicast lists —
        # a single-slot dict would silently drop earlier subscribers.
        self._user_handlers: Dict[int, List[Callable[[Packet], None]]] = {}
        for node in router.attached.values():
            self._install(node)

    def _install(self, node: NetNode) -> None:
        node.on(PacketKind.DATA, self._on_data)

    def attach(self, node_id: int) -> None:
        """Attach a node to the router and this service."""
        self.router.attach(node_id)
        self._install(self.network.node(node_id))

    def on_message(self, node_id: int, handler: Callable[[Packet], None]) -> None:
        """Subscribe ``handler`` to messages arriving at ``node_id``.

        Subscriptions are additive: every registered handler runs.
        """
        self._user_handlers.setdefault(node_id, []).append(handler)

    def send(
        self,
        src: int,
        dst: Optional[int],
        payload: Any = None,
        *,
        size_bits: int = 2048,
        ttl: int = 32,
    ) -> DeliveryReceipt:
        packet = Packet(
            src=src,
            dst=dst,
            kind=PacketKind.DATA,
            payload=payload,
            size_bits=size_bits,
            ttl=ttl,
        )
        receipt = DeliveryReceipt(
            uid=packet.uid, src=src, dst=dst, sent_at=self.sim.now
        )
        self.receipts[packet.uid] = receipt
        self.router.send(src, packet)
        return receipt

    def _on_data(self, node: NetNode, packet: Packet, from_id: int) -> None:
        receipt = self.receipts.get(packet.uid)
        if receipt is not None and receipt.delivered_at is None:
            if receipt.dst is None or receipt.dst == node.id:
                receipt.delivered_at = self.sim.now
                receipt.hops = packet.hops
        for handler in self._user_handlers.get(node.id, ()):
            handler(packet)

    # ------------------------------------------------------------- statistics

    def delivery_ratio(self) -> float:
        if not self.receipts:
            return float("nan")
        done = sum(1 for r in self.receipts.values() if r.delivered)
        return done / len(self.receipts)

    def transmissions_per_delivery(self) -> float:
        delivered = sum(1 for r in self.receipts.values() if r.delivered)
        if delivered == 0:
            # NaN, matching delivery_ratio's no-data convention (and staying
            # JSON-guardable: benchmarks map non-finite values to null).
            return float("nan")
        return self.sim.metrics.counter("net.tx_attempts") / delivered


# --------------------------------------------------------------- reliability


@dataclass
class MessageFate:
    """End-to-end fate accounting for one reliably-sent message."""

    msg_id: int
    src: int
    dst: int
    size_bits: int
    sent_at: float
    attempts: int = 0
    delivered_at: Optional[float] = None
    gave_up_at: Optional[float] = None

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None

    @property
    def state(self) -> str:
        if self.delivered_at is not None:
            return "delivered"
        if self.gave_up_at is not None:
            return "gave_up"
        return "in_flight"

    @property
    def latency_s(self) -> Optional[float]:
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at

    @property
    def retransmits(self) -> int:
        return max(0, self.attempts - 1)


class ReliableMessageService:
    """Acknowledged, retransmitting unicast transport over any router.

    Protocol: each application message gets a transport-level ``msg_id``
    carried in the packet headers.  The destination replies with an ACK
    packet routed back to the source; until the ACK arrives the sender
    retransmits after ``base_rto_s * backoff**attempt`` plus seeded jitter
    (fresh packet uid per attempt, so duplicate-suppressing routers forward
    retries), up to ``max_retries`` retransmissions before declaring the
    message ``gave_up``.  Receivers ACK every copy but deliver each message
    to the application exactly once.

    All timing randomness comes from the named ``transport.reliable`` RNG
    stream — reliable runs stay bit-reproducible from the seed.
    """

    def __init__(
        self,
        router: Router,
        *,
        base_rto_s: float = 3.0,
        backoff: float = 2.0,
        max_retries: int = 5,
        jitter_s: float = 0.5,
        ack_size_bits: int = 128,
    ):
        if base_rto_s <= 0:
            raise ConfigurationError("base_rto_s must be positive")
        if backoff < 1.0:
            raise ConfigurationError("backoff must be >= 1")
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        self.router = router
        self.network: Network = router.network
        self.sim = router.sim
        self.base_rto_s = base_rto_s
        self.backoff = backoff
        self.max_retries = max_retries
        self.jitter_s = jitter_s
        self.ack_size_bits = ack_size_bits
        self.fates: Dict[int, MessageFate] = {}
        self._payloads: Dict[int, Any] = {}
        self._ttls: Dict[int, int] = {}
        self._timers: Dict[int, Event] = {}
        # Receiver-side duplicate suppression: node -> delivered msg_ids.
        self._seen: Dict[int, Set[int]] = {}
        self._user_handlers: Dict[int, List[Callable[[Packet], None]]] = {}
        self._rng = self.sim.rng.get("transport.reliable")
        # Per-service counter (not process-global): msg ids appear in trace
        # records, and identical seeds must reproduce identical traces.
        self._msg_ids = itertools.count(1)
        for node in router.attached.values():
            self._install(node)

    def _install(self, node: NetNode) -> None:
        node.on(PacketKind.DATA, self._on_data)
        node.on(PacketKind.ACK, self._on_ack)

    def attach(self, node_id: int) -> None:
        """Attach a node to the router and this service."""
        self.router.attach(node_id)
        self._install(self.network.node(node_id))

    def on_message(self, node_id: int, handler: Callable[[Packet], None]) -> None:
        """Subscribe ``handler`` to messages first arriving at ``node_id``."""
        self._user_handlers.setdefault(node_id, []).append(handler)

    # ------------------------------------------------------------------- send

    def send(
        self,
        src: int,
        dst: int,
        payload: Any = None,
        *,
        size_bits: int = 2048,
        ttl: int = 32,
    ) -> MessageFate:
        if dst is None:
            raise ConfigurationError(
                "reliable transport is unicast; broadcast cannot be acked"
            )
        msg_id = next(self._msg_ids)
        fate = MessageFate(
            msg_id=msg_id,
            src=src,
            dst=dst,
            size_bits=size_bits,
            sent_at=self.sim.now,
        )
        self.fates[msg_id] = fate
        self._payloads[msg_id] = payload
        self._ttls[msg_id] = ttl
        self._transmit(fate)
        return fate

    def _transmit(self, fate: MessageFate) -> None:
        fate.attempts += 1
        if fate.attempts > 1:
            self.sim.metrics.incr("transport.reliable.retransmit")
        packet = Packet(
            src=fate.src,
            dst=fate.dst,
            kind=PacketKind.DATA,
            payload=self._payloads.get(fate.msg_id),
            size_bits=fate.size_bits,
            ttl=self._ttls.get(fate.msg_id, 32),
            headers={"rmsg": fate.msg_id},
        )
        tracer = self.sim.packet_tracer
        if tracer is not None and fate.attempts > 1:
            # Each retry is a fresh packet (fresh uid, fresh trace); the
            # shared rmsg header is what groups the attempts into one flow.
            tracer.on_retransmit(
                packet,
                fate.src,
                attempt=fate.attempts,
                layer="transport",
                msg_id=fate.msg_id,
            )
        self.router.send(fate.src, packet)
        rto = self.base_rto_s * self.backoff ** (fate.attempts - 1)
        rto += self.jitter_s * float(self._rng.random())
        self._timers[fate.msg_id] = self.sim.call_in(
            rto, lambda: self._on_timeout(fate.msg_id)
        )

    def _on_timeout(self, msg_id: int) -> None:
        fate = self.fates.get(msg_id)
        if fate is None or fate.state != "in_flight":
            return
        if fate.attempts > self.max_retries:
            fate.gave_up_at = self.sim.now
            self._forget(msg_id)
            self.sim.trace.emit("transport.gave_up", msg=msg_id, dst=fate.dst)
            self.sim.metrics.incr("transport.reliable.gave_up")
            return
        self._transmit(fate)

    def _forget(self, msg_id: int) -> None:
        self._payloads.pop(msg_id, None)
        self._ttls.pop(msg_id, None)
        timer = self._timers.pop(msg_id, None)
        if timer is not None:
            timer.cancel()

    # ---------------------------------------------------------------- receive

    def _on_data(self, node: NetNode, packet: Packet, from_id: int) -> None:
        msg_id = packet.headers.get("rmsg")
        if msg_id is None or packet.dst != node.id:
            return
        seen = self._seen.setdefault(node.id, set())
        if msg_id in seen:
            self.sim.metrics.incr("transport.reliable.dup_suppressed")
        else:
            seen.add(msg_id)
            for handler in self._user_handlers.get(node.id, ()):
                handler(packet)
        # Every copy is (re-)acked: the earlier ACK may have been lost.
        ack = Packet(
            src=node.id,
            dst=packet.src,
            kind=PacketKind.ACK,
            size_bits=self.ack_size_bits,
            ttl=self._ttls.get(msg_id, 32),
            headers={"rmsg": msg_id},
        )
        tracer = self.sim.packet_tracer
        if tracer is not None:
            tracer.inherit(packet, ack)  # the ACK is spawned by the DATA rx
        self.sim.metrics.incr("transport.reliable.ack_tx")
        self.router.send(node.id, ack)

    def _on_ack(self, node: NetNode, packet: Packet, from_id: int) -> None:
        msg_id = packet.headers.get("rmsg")
        fate = self.fates.get(msg_id)
        if fate is None or node.id != fate.src:
            return
        if fate.delivered_at is not None:
            return
        # An ACK that outruns a concurrent give-up still proves delivery.
        fate.gave_up_at = None
        fate.delivered_at = self.sim.now
        self._forget(msg_id)
        self.sim.metrics.incr("transport.reliable.delivered")

    # ------------------------------------------------------------- statistics

    def delivery_ratio(self) -> float:
        if not self.fates:
            return float("nan")
        done = sum(1 for f in self.fates.values() if f.delivered)
        return done / len(self.fates)

    def fate_counts(self) -> Dict[str, int]:
        counts = {"delivered": 0, "gave_up": 0, "in_flight": 0}
        for fate in self.fates.values():
            counts[fate.state] += 1
        return counts

    def retransmit_rate(self) -> float:
        """Fraction of transport sends that were retransmissions."""
        attempts = sum(f.attempts for f in self.fates.values())
        if attempts == 0:
            return float("nan")
        return sum(f.retransmits for f in self.fates.values()) / attempts

    def transmissions_per_delivery(self) -> float:
        delivered = sum(1 for f in self.fates.values() if f.delivered)
        if delivered == 0:
            return float("nan")
        return self.sim.metrics.counter("net.tx_attempts") / delivered


# Registry hookup: transports addressable by name in stack compositions
# (StackSpec.transport="basic" / "reliable").
from repro.net.registry import register  # noqa: E402  (registration epilogue)

MessageService.name = "basic"
ReliableMessageService.name = "reliable"
register("transport", MessageService.name, MessageService)
register("transport", ReliableMessageService.name, ReliableMessageService)
