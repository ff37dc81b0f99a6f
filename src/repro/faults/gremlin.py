"""Packet-level gremlins: drop, duplicate, reorder, delay, corrupt.

A :class:`PacketGremlin` is a fault that installs itself as a wrapper on the
network's transmit path.  For every hop that the channel model *would* have
delivered, the gremlin renders a verdict — drop the frame, duplicate it,
corrupt it (discarded at the receiver as a checksum failure), or add latency
(``delay`` draws an exponential holding time; ``reorder`` adds uniform
jitter large enough that later frames can overtake).  All draws come from
the named ``faults.gremlin`` RNG stream, so gremlin runs are reproducible
from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.faults.faults import Fault
from repro.net.node import Network
from repro.net.packet import Packet, PacketKind

__all__ = ["GremlinVerdict", "PacketGremlin"]


@dataclass
class GremlinVerdict:
    """What one gremlin decided for one hop of one packet."""

    drop: bool = False
    duplicate: bool = False
    corrupt: bool = False
    extra_delay_s: float = 0.0


@dataclass
class _GremlinCounts:
    """Per-mischief tallies, for degradation reporting."""

    judged: int = 0
    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    delayed: int = 0
    reordered: int = 0


class PacketGremlin(Fault):
    """Probabilistic per-hop packet mischief, scoped by kind and link.

    Parameters are per-hop probabilities in ``[0, 1]``.  ``kinds`` restricts
    mischief to particular :class:`~repro.net.packet.PacketKind` values
    (``None`` targets all traffic, an empty list none); ``links`` restricts
    it to particular node pairs, likewise.
    """

    name = "gremlin"

    def __init__(
        self,
        network: Network,
        *,
        drop_p: float = 0.0,
        duplicate_p: float = 0.0,
        corrupt_p: float = 0.0,
        delay_p: float = 0.0,
        delay_mean_s: float = 0.05,
        reorder_p: float = 0.0,
        reorder_jitter_s: float = 0.25,
        kinds: Optional[Sequence[PacketKind]] = None,
        links: Optional[Sequence[Tuple[int, int]]] = None,
    ):
        super().__init__(network)
        for label, p in (
            ("drop_p", drop_p),
            ("duplicate_p", duplicate_p),
            ("corrupt_p", corrupt_p),
            ("delay_p", delay_p),
            ("reorder_p", reorder_p),
        ):
            if not (0.0 <= p <= 1.0):
                raise ConfigurationError(f"{label} must be in [0, 1], got {p}")
        if delay_mean_s < 0 or reorder_jitter_s < 0:
            raise ConfigurationError("delay/jitter magnitudes must be >= 0")
        self.drop_p = drop_p
        self.duplicate_p = duplicate_p
        self.corrupt_p = corrupt_p
        self.delay_p = delay_p
        self.delay_mean_s = delay_mean_s
        self.reorder_p = reorder_p
        self.reorder_jitter_s = reorder_jitter_s
        # Only ``None`` is unscoped: an empty scope targets nothing.
        self.kinds: Optional[Set[PacketKind]] = set(kinds) if kinds is not None else None
        self.links: Optional[Set[Tuple[int, int]]] = (
            {Network._link_key(a, b) for a, b in links} if links is not None else None
        )
        self.counts = _GremlinCounts()
        self._rng = self.sim.rng.get("faults.gremlin")

    def _apply(self) -> None:
        self.network.add_gremlin(self)

    def _revert(self) -> None:
        self.network.remove_gremlin(self)

    # --------------------------------------------------------------- verdicts

    def judge(
        self, sender_id: int, receiver_id: int, packet: Packet
    ) -> Optional[GremlinVerdict]:
        """Verdict for one hop, or ``None`` when out of scope / no mischief."""
        if not self.active:
            return None
        if self.kinds is not None and packet.kind not in self.kinds:
            return None
        if (
            self.links is not None
            and Network._link_key(sender_id, receiver_id) not in self.links
        ):
            return None
        counts, rng, metrics = self.counts, self._rng, self.sim.metrics
        counts.judged += 1
        if self.drop_p and rng.random() < self.drop_p:
            counts.dropped += 1
            metrics.incr("faults.gremlin.dropped")
            return GremlinVerdict(drop=True)  # dropped frames need no further mischief
        duplicate = corrupt = False
        extra_delay_s = 0.0
        if self.duplicate_p and rng.random() < self.duplicate_p:
            duplicate = True
            counts.duplicated += 1
            metrics.incr("faults.gremlin.duplicated")
        if self.corrupt_p and rng.random() < self.corrupt_p:
            corrupt = True
            counts.corrupted += 1
            metrics.incr("faults.gremlin.corrupted")
        if self.delay_p and rng.random() < self.delay_p:
            extra_delay_s += float(rng.exponential(self.delay_mean_s))
            counts.delayed += 1
            metrics.incr("faults.gremlin.delayed")
        if self.reorder_p and rng.random() < self.reorder_p:
            extra_delay_s += float(rng.uniform(0.0, self.reorder_jitter_s))
            counts.reordered += 1
            metrics.incr("faults.gremlin.reordered")
        if not (duplicate or corrupt or extra_delay_s > 0.0):
            return None
        return GremlinVerdict(False, duplicate, corrupt, extra_delay_s)

    def judge_fanout(
        self, sender_id: int, receiver_ids: Sequence[int], packet: Packet
    ) -> Optional[List[int]]:
        """The receivers of one fan-out this gremlin drops, judged at once.

        Only a drop-only gremlin can: it draws one ``Generator.random(k)``
        slab over the ``k`` receivers in scope, the same doubles in the same
        order as ``k`` calls of :meth:`judge`, and counts the batch in whole
        numbers.  Any other knob draws a varying number of times per
        receiver, so this returns ``None`` and the caller asks :meth:`judge`
        per receiver instead.
        """
        if self.duplicate_p or self.corrupt_p or self.delay_p or self.reorder_p:
            return None
        if not self.active or (self.kinds is not None and packet.kind not in self.kinds):
            return []
        links = self.links
        if links is not None:
            link_key = Network._link_key
            receiver_ids = [r for r in receiver_ids if link_key(sender_id, r) in links]
        if not receiver_ids:
            return []
        self.counts.judged += len(receiver_ids)
        drop_p = self.drop_p
        if not drop_p:
            return []
        draws = self._rng.random(len(receiver_ids)).tolist()
        dropped = [r for r, draw in zip(receiver_ids, draws) if draw < drop_p]
        if dropped:
            self.counts.dropped += len(dropped)
            self.sim.metrics.incr("faults.gremlin.dropped", len(dropped))
        return dropped
