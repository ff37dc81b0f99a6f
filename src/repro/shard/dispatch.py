"""The shard-aware hot path: ownership-filtered tracing and the shard hop.

The sharded engine replicates the whole world in every worker and
partitions *action*: a node's transmissions originate only in the shard
that owns it.  Two pieces make the hot path partition-invariant:

* :class:`ShardTraceLog` keeps each record in exactly one shard — the one
  owning the node the record is about — so the union of the per-shard
  streams is the serial stream with no duplicates.  Replicated processes
  (faults, mobility) emit identically everywhere; the filter picks one
  copy.
* :class:`ShardHops` is what :class:`~repro.net.stack.FastPathDispatcher`
  is handed as ``shard=`` in a sharded run.  The dispatcher then (a)
  draws backoff and delivery Bernoullis from the record's
  :class:`.rng.KeyedHopRng`, addressed by ``(sender, tx-seq[,
  receiver])`` so outcomes do not depend on draw order, (b) reads MAC load
  from the sender's own ``busy_tx`` rather than its neighbors' (neighbor
  state is only *acted on* in other shards, so reading it would couple
  outcomes to the partition), and (c) hands successful deliveries to
  receivers it does not own to the record's outbox, which the engine
  forwards across the window barrier.

Verdicts for remote receivers are computed sender-side against the
replica (same liveness, same positions, same channel), so the sending
shard's failure accounting and the receiving shard's delivery agree
without a reverse ack: conservative lookahead guarantees the handoff
arrives before the receiver's clock reaches ``deliver_time``.

Tracer hooks (:class:`~repro.obs.tracing.PacketTracer`) and gremlins never
reach a sharded hop: both are sequential-RNG consumers that the spec layer
rejects for sharded runs.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.net.packet import Packet
from repro.shard.rng import KeyedHopRng
from repro.sim.trace import TraceLog

__all__ = ["ShardTraceLog", "ShardHops", "Handoff"]

#: One cross-shard delivery: (deliver_time, kind "u"/"b", src, dst,
#: dst_shard, packet).  Pickled at the window barrier.
Handoff = Tuple[float, str, int, int, int, Packet]

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
        # The node a record is about: ``node`` on lifecycle, fault and app
        # records, else ``a``, the lexically-first endpoint of a link-pair
        # record (net.link_down, fault.link_cut), which both shards compute
        # identically.
        owner = None if self._owned is None else fields.get("node", fields.get("a"))
        if isinstance(owner, int):
            if owner not in self._owned:
                return
        elif self.shard_index != 0:
            return
        self.stage((self._sim.now, category, fields))


class ShardHops:
    """One shard's hop state: keyed draws, ownership, and the outbox."""

    __slots__ = ("rng", "owned", "assignments", "outbox", "rx_head", "_tx_seq")

    def __init__(self, seed: int, owned: FrozenSet[int], assignments: Mapping[int, int]):
        self.rng = KeyedHopRng(seed)
        self.owned = owned
        self.assignments = assignments
        self.outbox: List[Handoff] = []
        #: The last hop's receiver head: ``rng.uniform_at(rx_head, r)`` is
        #: ``rng.uniforms_at(("rx", sender, seq), (r,))[0]``.
        self.rx_head = ""
        self._tx_seq: Dict[int, int] = {}

    def hop(self, sender_id: int) -> int:
        """Number the sender's next transmission and address its draws."""
        seq = self._tx_seq.get(sender_id, 0)
        self._tx_seq[sender_id] = seq + 1
        rng = self.rng
        rng.rekey("hop", sender_id, seq)
        self.rx_head = f"{rng.seed_head}('rx', {sender_id!r}, {seq!r}, "
        return seq

    def hand_off(self, when: float, kind: str, src: int, dst: int, packet: Packet) -> None:
        """Ship one delivery to the shard owning ``dst``."""
        self.outbox.append((when, kind, src, dst, self.assignments[dst], packet))
