"""Causal (Dapper-style) packet tracing.

Node-local spans (:mod:`repro.obs.spans`) tell you what one node spent its
time on; they cannot tell you where a *packet's* end-to-end delay went as
it crossed MAC backoff, retransmissions, DTN custody, and routing detours.
:class:`PacketTracer` closes that gap: every originated packet gets a
``(trace_id, parent_span, hop)`` tuple in ``Packet.headers`` under
:data:`TRACE_HEADER`, and every hop emits causally-linked events into the
ordinary trace/sink pipeline:

========================  ====================================================
category                  meaning
========================  ====================================================
``pkt.send``              packet originated at its source router
``pkt.spawn``             packet caused by another packet (ACK, RREP)
``pkt.enqueue``           one radio transmission handed to the MAC; carries
                          the per-hop delay components (backoff, airtime,
                          propagation, fault-injected extra)
``pkt.rx``                the transmission reached a receiver (new hop span
                          becomes the receiver's parent context)
``pkt.drop``              the transmission failed toward a receiver, with a
                          reason (``loss`` / ``link_blocked`` / ``gremlin`` /
                          ``corrupt`` / ``receiver_down`` / ``sender_down``)
``pkt.retx``              a link-layer (ARQ) or transport-layer retransmission
``pkt.custody``           a DTN store accepted custody of a bundle
``pkt.route_drop``        the routing layer abandoned the packet (TTL expiry,
                          geographic void, failed discovery, eviction, ...)
``pkt.deliver``           the packet reached an application handler
========================  ====================================================

Because every event is emitted at a virtual time the simulation was already
visiting (inside existing callbacks — the tracer never schedules events and
never draws randomness), enabling tracing perturbs neither event order nor
any RNG stream: the non-``pkt.*`` trace fingerprint of a traced run is
bit-identical to an untraced one.  ``repro.obs.analyze`` reconstructs the
happens-before graph from these events offline (``python -m repro.obs
trace``).

Enable per simulator (or via ``REPRO_OBS_TRACE=1`` through
:func:`repro.obs.wire_from_env`); tracing is off exactly when
``sim.packet_tracer is None``::

    sim = Simulator(seed=7)
    tracer = sim.enable_packet_tracing()
    ... build network, run ...
    analysis = analyze_trace(sim.trace.iter_dicts())
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

from repro.obs.telemetry import RecordSchema

__all__ = ["PacketTracer", "TRACE_HEADER", "TRACE_CATEGORIES"]

#: Header key carrying the (trace_id, parent_span, hop) tuple.  The value is
#: an immutable tuple, so forwarding copies can never alias each other's
#: causal state even through a shallow header copy.  ``trace_id`` names the
#: logical packet (stable across forwarding copies and DTN replicas,
#: distinct per transport retransmission); ``parent_span`` is the
#: transmission that last delivered it (0 at the origin); ``hop`` counts
#: successful radio receptions so far.
TRACE_HEADER = "_trace"

#: Every category the tracer can emit (fingerprint filters use this).
TRACE_CATEGORIES = (
    "pkt.send",
    "pkt.spawn",
    "pkt.enqueue",
    "pkt.rx",
    "pkt.drop",
    "pkt.retx",
    "pkt.custody",
    "pkt.route_drop",
    "pkt.deliver",
)

# Pre-sorted field schemas, one per category, named by their int id: the
# tracer knows its field sets statically, so every hop event stages one
# flat tuple of atomic values (no kwargs dict, no per-record key sort, and
# nothing CPython's GC keeps rescanning mid-run).
_SEND = RecordSchema(
    "pkt.send",
    ("dst", "flow", "kind", "rmsg", "size_bits", "src", "tid", "uid"),
).sid
_SPAWN = RecordSchema("pkt.spawn", ("parent_span", "parent_tid", "reason", "tid")).sid
_ENQUEUE = RecordSchema(
    "pkt.enqueue",
    (
        "airtime_s", "backoff_s", "dst", "extra_s", "hop", "kind",
        "parent", "prop_s", "span", "src", "tid", "uid",
    ),
).sid
_RX = RecordSchema("pkt.rx", ("dst", "extra_s", "hop", "span", "src", "tid")).sid
_DROP = RecordSchema("pkt.drop", ("dst", "reason", "span", "src", "tid")).sid
_RETX = RecordSchema("pkt.retx", ("attempt", "layer", "msg", "src", "tid")).sid
_CUSTODY = RecordSchema("pkt.custody", ("copies", "node", "tid", "uid")).sid
_ROUTE_DROP = RecordSchema("pkt.route_drop", ("node", "reason", "tid", "uid")).sid
_DELIVER = RecordSchema(
    "pkt.deliver", ("hops", "latency_s", "node", "span", "tid", "uid")
).sid


class PacketTracer:
    """Propagates trace contexts and emits per-hop causal events.

    One tracer serves one :class:`~repro.sim.kernel.Simulator`; networks
    read it from ``sim.packet_tracer`` on each transmit.  All ids come from
    tracer-local counters, so identically-seeded runs in fresh processes
    produce identical trace-id/span-id sequences.

    The contract every router must uphold (see DESIGN.md §3.4):

    1. originate packets through ``Router._stamp_origin`` (which stamps the
       root context);
    2. never copy a trace context between packets by hand — forwarding
       copies inherit it via ``Packet.copy_for_forwarding``; response
       packets (ACKs, RREPs) are linked with :meth:`inherit`;
    3. treat the ``_trace`` header as opaque and immutable.
    """

    def __init__(self, sim: "Simulator"):  # noqa: F821
        self.sim = sim
        # Bound once: the tracer is created after any TraceLog replacement
        # (ShardRuntime swaps sim.trace at construction and never enables
        # a tracer), so the bound method saves two lookups per hop event.
        self._record = sim.trace.stage
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        # Packet.uid is a process-global counter, so raw uids differ when
        # the same scenario reruns in one process.  Records carry a
        # tracer-local renumbering instead (copies of one packet still
        # share one id), keeping traced fingerprints run-reproducible.
        self._uid_map: dict = {}

    def _uid(self, packet: "Packet") -> int:  # noqa: F821
        m = self._uid_map
        uid = m.get(packet.uid)
        if uid is None:
            uid = m[packet.uid] = len(m) + 1
        return uid

    # -------------------------------------------------------------- contexts

    def stamp_origin(self, packet: "Packet") -> Optional[int]:  # noqa: F821
        """Assign a root context to a freshly-originated packet.

        Idempotent: a packet already carrying a context (a transport retry
        re-entering ``Router.send``) keeps it.  Returns the trace id.
        """
        existing = packet.headers.get(TRACE_HEADER)
        if existing is not None:
            return existing[0]
        tid = next(self._trace_ids)
        headers = packet.headers
        headers[TRACE_HEADER] = (tid, 0, 0)
        parent = headers.pop("_trace_from", None)
        kind = packet.kind._value_
        # The uid renumbering is inlined here and in on_enqueue, the two
        # emitters that run once per packet or per transmission.
        uid_map = self._uid_map
        uid = uid_map.get(packet.uid)
        if uid is None:
            uid = uid_map[packet.uid] = len(uid_map) + 1
        now = self.sim.now
        # Field order matches the schema's sorted keys, here and below.
        self._record((
            now, _SEND,
            packet.dst, packet.flow_id, kind, headers.get("rmsg"),
            packet.size_bits, packet.src, tid, uid,
        ))
        if parent is not None:
            parent_tid, parent_span, _hop = parent
            self._record((now, _SPAWN, parent_span, parent_tid, kind, tid))
        return tid

    def inherit(
        self, parent: "Packet", child: "Packet"  # noqa: F821
    ) -> None:
        """Mark ``child`` as causally spawned by ``parent`` (ACK by DATA,
        RREP by RREQ).  The link is recorded when the child is originated
        through ``Router._stamp_origin``."""
        ctx = parent.headers.get(TRACE_HEADER)
        if ctx is not None and TRACE_HEADER not in child.headers:
            child.headers["_trace_from"] = ctx

    # ------------------------------------------------------------ radio hops

    def on_enqueue(
        self,
        sender_id: int,
        receiver_id: Optional[int],
        packet: "Packet",  # noqa: F821
        backoff_s: float = 0.0,
        airtime_s: float = 0.0,
        prop_s: float = 0.0,
        extra_s: float = 0.0,
    ) -> Optional[Tuple[int, int, int]]:
        """One transmission handed to the MAC; allocates its hop span.

        Returns an opaque token (trace id, span id, hop index) the network
        passes back to :meth:`on_rx` / :meth:`on_drop`, or ``None`` when
        the packet carries no context (originated before tracing was on).
        ``receiver_id`` is ``None`` for link-local broadcast.  The delay
        components are positional so the dispatcher hot path skips the
        kwargs dict.
        """
        ctx = packet.headers.get(TRACE_HEADER)
        if ctx is None:
            return None
        tid, parent, hop = ctx
        span = next(self._span_ids)
        dst = -1 if receiver_id is None else receiver_id
        # ._value_ skips Enum's DynamicClassAttribute descriptor (~4x
        # cheaper; this and on_rx run once per radio transmission).
        kind = packet.kind._value_
        uid_map = self._uid_map
        uid = uid_map.get(packet.uid)
        if uid is None:
            uid = uid_map[packet.uid] = len(uid_map) + 1
        self._record((
            self.sim.now, _ENQUEUE,
            airtime_s, backoff_s, dst, extra_s, hop, kind,
            parent, prop_s, span, sender_id, tid, uid,
        ))
        return (tid, span, hop)

    def on_rx(
        self,
        token: Tuple[int, int, int],
        packet: "Packet",  # noqa: F821
        sender_id: int,
        receiver_id: int,
        extra_s: float = 0.0,
    ) -> None:
        """The transmission reached ``receiver_id``.

        Rebinds the packet's context so everything the receiver does next
        (forwarding copies, local delivery) is parented to this hop span.
        Call immediately before handing the packet to the receiver.
        """
        tid, span, hop = token
        hop += 1
        packet.headers[TRACE_HEADER] = (tid, span, hop)
        self._record((self.sim.now, _RX, receiver_id, extra_s, hop, span, sender_id, tid))

    def on_drop(
        self,
        token: Tuple[int, int, int],
        sender_id: int,
        receiver_id: Optional[int],
        reason: str,
    ) -> None:
        """The transmission failed toward ``receiver_id`` (``reason`` from
        the module docstring's table)."""
        tid, span, _hop = token
        dst = -1 if receiver_id is None else receiver_id
        self._record((self.sim.now, _DROP, dst, reason, span, sender_id, tid))

    def on_drops(
        self,
        token: Tuple[int, int, int],
        sender_id: int,
        drops: "list[Tuple[int, str]]",
    ) -> None:
        """Batched :meth:`on_drop`: ordered ``(receiver_id, reason)`` pairs
        sharing one hop span — a broadcast's failed receptions, which are
        all decided inside one event.  Emits records identical (content and
        order) to per-pair ``on_drop`` calls while paying the token unpack
        and the lookups once per batch."""
        tid, span, _hop = token
        record = self._record
        now = self.sim.now
        for dst, reason in drops:
            record((now, _DROP, dst, reason, span, sender_id, tid))

    def drop_unsent(
        self, packet: "Packet", sender_id: int, reason: str  # noqa: F821
    ) -> None:
        """A transmission that never reached the MAC (sender already down)."""
        ctx = packet.headers.get(TRACE_HEADER)
        if ctx is None:
            return
        dst = packet.dst if packet.dst is not None else -1
        self._record((self.sim.now, _DROP, dst, reason, 0, sender_id, ctx[0]))

    # ----------------------------------------------------- protocol layers

    def on_retransmit(
        self,
        packet: "Packet",  # noqa: F821
        sender_id: int,
        *,
        attempt: int,
        layer: str,
        msg_id: Optional[int] = None,
    ) -> None:
        """A retry: ``layer`` is ``"link"`` (ARQ inside ``send_reliable``)
        or ``"transport"`` (a fresh end-to-end attempt)."""
        ctx = packet.headers.get(TRACE_HEADER)
        tid = ctx[0] if ctx is not None else None
        self._record((self.sim.now, _RETX, attempt, layer, msg_id, sender_id, tid))

    def on_custody(
        self,
        node_id: int,
        packet: "Packet",  # noqa: F821
        *,
        copies: int,
    ) -> None:
        """A DTN store accepted custody of a bundle replica."""
        ctx = packet.headers.get(TRACE_HEADER)
        if ctx is None:
            return
        self._record(
            (self.sim.now, _CUSTODY, copies, node_id, ctx[0], self._uid(packet))
        )

    def on_route_drop(
        self, node_id: int, packet: "Packet", reason: str  # noqa: F821
    ) -> None:
        """The routing layer gave up on this copy (not a radio failure)."""
        ctx = packet.headers.get(TRACE_HEADER)
        if ctx is None:
            return
        self._record(
            (self.sim.now, _ROUTE_DROP, node_id, reason, ctx[0], self._uid(packet))
        )

    def on_deliver(self, node_id: int, packet: "Packet") -> None:  # noqa: F821
        """The packet reached an application handler at ``node_id``."""
        ctx = packet.headers.get(TRACE_HEADER)
        if ctx is None:
            return
        tid, parent_span, hop = ctx
        now = self.sim.now
        self._record((
            now, _DELIVER,
            hop, now - packet.created_at, node_id, parent_span, tid, self._uid(packet),
        ))
