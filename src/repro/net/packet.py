"""Packet model.

Packets carry an application payload plus the headers the routing layer
needs.  Sizes are in bits so transmission delay follows directly from the
radio bitrate.

:class:`Packet` is a hand-written ``__slots__`` class rather than a
dataclass: forwarding-heavy workloads allocate one copy per node per flood,
and the slotted layout drops the per-instance ``__dict__`` while
:meth:`Packet.copy_for_forwarding` skips ``__init__`` entirely.  The
dataclass surface is preserved — same constructor signature and defaults,
field-wise ``==``, unhashable (router state keys off ``uid``, never off
packet objects) — so callers cannot tell the difference.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Any, Dict, List, Optional

__all__ = ["PacketKind", "Packet"]

_packet_ids = itertools.count(1)


class PacketKind(Enum):
    """Coarse traffic classes; fingerprinting keys off these.

    ``value`` stays the wire-stable string (trace records and fingerprints
    embed it); ``code`` is a small dense int for array packing and fast
    dispatch tables.  Members are singletons, so the hot path compares
    kinds with ``is``.
    """

    def __new__(cls, value: str, code: int) -> "PacketKind":
        member = object.__new__(cls)
        member._value_ = value
        member.code = code
        return member

    DATA = ("data", 0)
    ACK = ("ack", 1)
    BEACON = ("beacon", 2)
    PROBE = ("probe", 3)
    PROBE_REPLY = ("probe_reply", 4)
    CONTROL = ("control", 5)
    RREQ = ("rreq", 6)
    RREP = ("rrep", 7)
    DTN_SUMMARY = ("dtn_summary", 8)
    MODEL_UPDATE = ("model_update", 9)


class Packet:
    """A network packet.

    ``dst`` of ``None`` means link-local broadcast.  ``path`` accumulates the
    node ids the packet visited (used for tomography and metrics).
    """

    __slots__ = (
        "src",
        "dst",
        "kind",
        "payload",
        "size_bits",
        "ttl",
        "created_at",
        "uid",
        "flow_id",
        "path",
        "headers",
    )

    # Field-wise equality without hashability, as the old dataclass had:
    # uid is the identity routers key on; packet objects never go in sets.
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        src: int,
        dst: Optional[int],
        kind: PacketKind = PacketKind.DATA,
        payload: Any = None,
        size_bits: int = 1024,
        ttl: int = 32,
        created_at: float = 0.0,
        uid: Optional[int] = None,
        flow_id: Optional[int] = None,
        path: Optional[List[int]] = None,
        headers: Optional[Dict[str, Any]] = None,
    ):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bits = size_bits
        self.ttl = ttl
        self.created_at = created_at
        self.uid = next(_packet_ids) if uid is None else uid
        self.flow_id = flow_id
        self.path = [] if path is None else path
        self.headers = {} if headers is None else headers

    def copy_for_forwarding(self) -> "Packet":
        """A forwarding copy sharing uid/payload but with its own path list.

        Headers are copied one container level deep: a ``dict``/``list``/
        ``set`` header value gets its own copy, so routers mutating a
        header on a forwarded copy (geographic detour counters, trace
        state) can never alias the copy the previous hop still holds.
        The contract for header values is therefore: immutable scalars,
        tuples, or *flat* mutable containers — values nested deeper than
        one level are shared and must be treated as read-only.
        """
        clone = Packet.__new__(Packet)
        clone.src = self.src
        clone.dst = self.dst
        clone.kind = self.kind
        clone.payload = self.payload
        clone.size_bits = self.size_bits
        clone.ttl = self.ttl - 1
        clone.created_at = self.created_at
        clone.uid = self.uid
        clone.flow_id = self.flow_id
        clone.path = list(self.path)
        headers = self.headers
        clone.headers = (
            {
                k: (v.copy() if isinstance(v, (dict, list, set)) else v)
                for k, v in headers.items()
            }
            if headers
            else {}
        )
        return clone

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Packet:
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.kind == other.kind
            and self.payload == other.payload
            and self.size_bits == other.size_bits
            and self.ttl == other.ttl
            and self.created_at == other.created_at
            and self.uid == other.uid
            and self.flow_id == other.flow_id
            and self.path == other.path
            and self.headers == other.headers
        )

    @property
    def size_bytes(self) -> float:
        """Size in octets, derived from the canonical :attr:`size_bits`.

        ``size_bits`` is the single source of truth for packet size:
        airtime (:meth:`airtime_s`), energy charges
        (:attr:`NetNode.energy_hook`), and control-overhead accounting all
        read it, so the bits-vs-bytes unit can never diverge between the
        channel, MAC, and transport layers.
        """
        return self.size_bits / 8.0

    def airtime_s(self, bitrate_bps: float) -> float:
        """Serialization delay of this packet at ``bitrate_bps``.

        The one place bits are converted to seconds; the PHY layer and any
        energy model must use this so airtime and energy charges agree.
        """
        return self.size_bits / max(bitrate_bps, 1.0)

    @property
    def hops(self) -> int:
        """Number of transmissions so far (path entries minus origin)."""
        return max(0, len(self.path) - 1)

    def __repr__(self) -> str:
        return (
            f"Packet(uid={self.uid}, {self.kind.value}, "
            f"{self.src}->{self.dst}, ttl={self.ttl})"
        )
