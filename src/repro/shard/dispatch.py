"""The shard-aware hot path: ownership-filtered tracing and keyed dispatch.

The sharded engine replicates the whole world in every worker and
partitions *action*: a node's transmissions originate only in the shard
that owns it.  Two pieces make the hot path partition-invariant:

* :class:`ShardTraceLog` keeps each record in exactly one shard — the one
  owning the node the record is about — so the union of the per-shard
  streams is the serial stream with no duplicates.  Replicated processes
  (faults, mobility) emit identically everywhere; the filter picks one
  copy.
* :class:`ShardDispatcher` mirrors
  :class:`~repro.net.stack.FastPathDispatcher` branch for branch but (a)
  draws backoff and delivery Bernoullis from a :class:`.rng.KeyedHopRng`
  keyed on ``(sender, tx-seq[, receiver])`` so outcomes do not depend on
  draw order, (b) reads MAC load from the sender's own ``busy_tx`` rather
  than its neighbors' (neighbor state is only *acted on* in other shards,
  so reading it would couple outcomes to the partition), and (c) ships
  successful deliveries to non-owned receivers into an outbox that the
  engine forwards across the window barrier.

Verdicts for remote receivers are computed sender-side against the
replica (same liveness, same positions, same channel), so the sending
shard's failure accounting and the receiving shard's delivery agree
without a reverse ack: conservative lookahead guarantees the handoff
arrives before the receiver's clock reaches ``deliver_time``.

Tracer hooks (:class:`~repro.obs.tracing.PacketTracer`) and gremlins are
deliberately absent: both are sequential-RNG consumers that the spec layer
rejects for sharded runs.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.net.packet import Packet
from repro.net.stack import FastPathDispatcher, NetworkStack, SendResult
from repro.shard.rng import KeyedHopRng
from repro.sim.trace import TraceLog

__all__ = ["ShardTraceLog", "ShardDispatcher", "Handoff"]

#: One cross-shard delivery: (deliver_time, kind "u"/"b", src, dst,
#: dst_shard, packet).  Pickled at the window barrier.
Handoff = Tuple[float, str, int, int, int, Packet]

#: Trace fields identifying the node a record is "about", in precedence
#: order.  ``node`` covers lifecycle/fault/app records, ``a`` covers
#: link-pair records (net.link_down, fault.link_cut) — keyed by the
#: lexically-first endpoint, which both shards compute identically.
_OWNER_FIELDS = ("node", "a")


class ShardTraceLog(TraceLog):
    """A TraceLog that keeps only the records this shard owns.

    Until :meth:`set_ownership` is called (i.e. during the world build),
    and for records naming no node at all (fault launch/cease, partition
    toggles), shard 0 is the designated keeper — every shard sees the
    same replicated emission, so electing a fixed keeper deduplicates
    without coordination.  A 1-shard run owns everything, which is what
    makes the serial reference stream directly comparable.
    """

    def __init__(self, sim: "Simulator", shard_index: int = 0):  # noqa: F821
        super().__init__(sim)
        self.shard_index = shard_index
        self._owned: Optional[FrozenSet[int]] = None

    def set_ownership(self, owned: FrozenSet[int]) -> None:
        self._owned = owned

    def emit(self, category: str, **fields: Any) -> None:
        if not self.enabled:
            return
        if self._owned is None:
            if self.shard_index != 0:
                return
        else:
            owner: Any = None
            for key in _OWNER_FIELDS:
                if key in fields:
                    owner = fields[key]
                    break
            if isinstance(owner, int):
                if owner not in self._owned:
                    return
            elif self.shard_index != 0:
                return
        super().emit(category, **fields)


class ShardDispatcher(FastPathDispatcher):
    """Keyed-RNG, ownership-aware reimplementation of the fast path."""

    def __init__(
        self,
        stack: NetworkStack,
        *,
        owned: FrozenSet[int],
        shard_index: int,
        assignments: Mapping[int, int],
        hoprng: KeyedHopRng,
        outbox: List[Handoff],
    ):
        super().__init__(
            stack.ctx, stack.phy, stack.mac, stack.queue, stack.faults, stack.app
        )
        self.owned = owned
        self.shard_index = shard_index
        self.assignments = assignments
        self.hoprng = hoprng
        self.outbox = outbox
        self._tx_seq: Dict[int, int] = {}
        # The keyed source *is* the stack RNG: MacLayer.grant draws its
        # backoff through ctx.rng, which rekey() has already addressed.
        stack.ctx.rng = hoprng

    def _next_seq(self, sender_id: int) -> int:
        seq = self._tx_seq.get(sender_id, 0)
        self._tx_seq[sender_id] = seq + 1
        return seq

    # -------------------------------------------------------------- unicast

    def unicast(
        self,
        sender: "NetNode",  # noqa: F821
        receiver: "NetNode",  # noqa: F821
        packet: Packet,
        on_result: Optional[SendResult] = None,
    ) -> None:
        ctx = self.ctx
        if not sender.up:
            if on_result:
                on_result(False)
            return
        sender_id = sender.id
        receiver_id = receiver.id
        seq = self._next_seq(sender_id)
        rng = self.hoprng
        # Sender-local MAC load: busy_tx of remote nodes is only
        # maintained in their own shards, so the serial busy_neighbors
        # sum would make outcomes partition-dependent.
        busy = 1 if sender.busy_tx else 0
        rng.rekey("hop", sender_id, seq)
        backoff, survival = self.mac.grant(busy)
        airtime = packet.airtime_s(sender.bitrate_bps)
        prop = self.phy.propagation_s(sender, receiver)
        delay = backoff + airtime + prop
        p_ok = self.phy.delivery_probability(sender, receiver) * survival
        if not receiver.up:
            success = False
        else:
            rng.rekey("rx", sender_id, seq, receiver_id)
            success = rng.random() < p_ok
        # The serial hop's fault gate: ask only while a link is cut or a
        # partition stands.
        faults = self.faults
        if (
            success
            and (faults.blocked_links or faults.partitions)
            and faults.link_blocked(sender_id, receiver_id)
        ):
            success = False
            ctx.incr("net.link_blocked")
        self._charge_tx(sender, packet)

        remote = receiver_id not in self.owned
        if success and remote:
            self.outbox.append(
                (
                    ctx.sim.now + delay,
                    "u",
                    sender_id,
                    receiver_id,
                    self.assignments[receiver_id],
                    packet,
                )
            )

        def complete() -> None:
            self.queue.end_tx(sender)
            if success and receiver.up:
                if not remote:
                    self._deliver_up(receiver, packet, sender_id, False)
                # Remote delivery happens in the owner shard; the replica
                # liveness check above already matches its verdict.
                if on_result:
                    on_result(True)
            else:
                ctx.sim.metrics.incr("net.tx_failed")
                ctx.c_dropped.value += 1.0
                if on_result:
                    on_result(False)

        ctx.sim.call_in_fast(delay, complete)

    # ------------------------------------------------------------ broadcast

    def broadcast(
        self,
        sender: "NetNode",  # noqa: F821
        neighbor_ids,
        packet: Packet,
    ) -> int:
        ctx = self.ctx
        if not sender.up:
            return 0
        sender_id = sender.id
        seq = self._next_seq(sender_id)
        rng = self.hoprng
        busy = 1 if sender.busy_tx else 0
        rng.rekey("hop", sender_id, seq)
        backoff, survival = self.mac.grant(busy)
        base_delay = backoff + packet.airtime_s(sender.bitrate_bps)
        self._charge_tx(sender, packet)
        nodes = ctx.network.nodes
        c_dropped = ctx.c_dropped
        owned = self.owned
        deliver_time = ctx.sim.now + base_delay
        # Addressed draws are pure per-hop functions, so batching them
        # cannot reorder outcomes.
        _, survivors = self._survivors(
            sender,
            neighbor_ids,
            rng.uniforms_at(("rx", sender_id, seq), neighbor_ids),
            survival,
        )
        faults = self.faults
        link_blocked = (
            faults.link_blocked if faults.blocked_links or faults.partitions else None
        )
        local: List[int] = []
        for nid in survivors:
            if link_blocked is not None and link_blocked(sender_id, nid):
                ctx.incr("net.link_blocked")
                c_dropped.inc()
                continue
            if nid in owned:
                local.append(nid)
            else:
                self.outbox.append(
                    (deliver_time, "b", sender_id, nid, self.assignments[nid], packet)
                )

        def complete() -> None:
            self.queue.end_tx(sender)
            for nid in local:
                receiver = nodes.get(nid)
                if receiver is None or not receiver.up:
                    c_dropped.inc()
                    continue
                self._deliver_up(receiver, packet, sender_id, False)

        ctx.sim.call_in_fast(base_delay, complete)
        return len(neighbor_ids)

    # -------------------------------------------------------------- handoff

    def apply_remote(self, kind: str, src_id: int, dst_id: int, packet: Packet) -> None:
        """Deliver a handoff shipped by another shard, at its deliver time.

        The liveness re-check matches both the serial path (a broadcast
        reception that finds its receiver gone is a ``net.dropped``; a
        unicast failure was already accounted sender-side) and the sending
        shard's replica verdict.
        """
        receiver = self.ctx.network.nodes.get(dst_id)
        if receiver is None or not receiver.up:
            if kind == "b":
                self.ctx.c_dropped.inc()
            return
        self._deliver_up(receiver, packet, src_id, False)
