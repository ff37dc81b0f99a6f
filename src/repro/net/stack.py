"""The layered per-node network stack.

The paper's Fig. 2 synthesis argument needs heterogeneous communication
stacks assembled on demand; Farooq & Zhu's multi-layer IoBT network design
(arXiv:1801.09986) models exactly that per-layer composability.  This module
makes the stack explicit: an ordered pipeline

    PHY/channel -> MAC -> queue -> routing -> transport -> app

whose bottom five stages are concrete layer objects (:class:`PhyLayer`,
:class:`MacLayer`, :class:`QueueLayer`, :class:`FaultLayer`,
:class:`AppLayer`) the dispatcher calls by name; routers and transports
plug in per node through :class:`RouterPort` / :class:`TransportPort`.  A
:class:`StackContext` owns the simulator handle, the RNG stream, and the
emit hooks, so tracing (:mod:`repro.obs.tracing`), fault callbacks
(:mod:`repro.faults`), and metrics (:mod:`repro.obs.registry`) plug in at
layer boundaries exactly once instead of being re-implemented per router.

The per-packet hot path is :class:`FastPathDispatcher`: one batched dispatch
loop over the layers that :class:`~repro.net.node.Network` delegates to.  It
is **bit-identical** to the pre-refactor hand-inlined transmit path for the
default composition — same RNG draw order, same scheduled delays, same
trace records — which ``tests/net/test_stack_fingerprint.py`` pins with
golden fingerprints recorded before the refactor.

Import discipline: this module must not import :mod:`repro.net.node` at
runtime (node imports the stack); layers receive ``NetNode`` instances
through the context and type them via ``TYPE_CHECKING`` only.
"""

from __future__ import annotations

from itertools import compress
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.net.channel import _NP_VERDICT_MIN
from repro.net.mac import ContentionMac, MacAccess
from repro.net.packet import Packet, PacketKind
from repro.util.geometry import distance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.channel import Channel
    from repro.net.node import NetNode, Network
    from repro.sim.kernel import Simulator

__all__ = [
    "RouterPort",
    "TransportPort",
    "LayerBase",
    "StackContext",
    "PhyLayer",
    "MacLayer",
    "QueueLayer",
    "FaultLayer",
    "AppLayer",
    "NetworkStack",
    "FastPathDispatcher",
    "SPEED_OF_LIGHT_M_S",
]

SPEED_OF_LIGHT_M_S = 3.0e8

SendResult = Callable[[bool], None]
Sniffer = Callable[[Packet, int, int], None]


# --------------------------------------------------------------- protocols


@runtime_checkable
class RouterPort(Protocol):
    """What the network requires of anything plugged in as a node's router.

    This is the typed replacement for the old ``NetNode.router:
    Optional[Any]`` — mypy/pyright can now check the routing slot of the
    stack.  All of :mod:`repro.net.routing` satisfies it structurally.
    """

    name: str

    def send(self, src_id: int, packet: Packet) -> None: ...

    def on_receive(self, node: "NetNode", packet: Packet, from_id: int) -> None: ...

    def attach_all(self, node_ids: Iterable[int]) -> None: ...


@runtime_checkable
class TransportPort(Protocol):
    """What the stack requires of a transport service (see
    :mod:`repro.net.transport`): originate application messages and expose
    per-node subscription."""

    def send(self, src: int, dst: Optional[int], payload: Any = None) -> Any: ...

    def on_message(self, node_id: int, handler: Callable[[Packet], None]) -> None: ...

    def attach(self, node_id: int) -> None: ...


class LayerBase:
    """What every stack layer shares: a name and the stack's context."""

    name = "layer"

    def __init__(self) -> None:
        self.ctx: Optional[StackContext] = None

    def attach(self, ctx: "StackContext") -> None:
        self.ctx = ctx

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------- context


class _FanoutRow(list):
    """One sender's fan-out: its live neighbours' ``NetNode``s, in
    ``Network.neighbors`` order, with the delivery probability toward each.

    The node list holds for a ``(topology_version, liveness_version)`` era —
    :meth:`StackContext.fanout_row` hands out no row from another one — and
    ``probs`` for the ``jam_sig`` it was filled under, which
    :meth:`PhyLayer.delivery_probability_batch` checks on every read.
    ``probs`` is a float64 array from ``_NP_VERDICT_MIN`` neighbours up (the
    width at which ``Channel.delivery_verdicts`` compares through numpy) and
    the plain list below it, so a narrow fan-out never pays for an array.
    """

    __slots__ = ("probs", "jam_sig")

    def __init__(self, nodes: Iterable["NetNode"]):
        super().__init__(nodes)
        self.probs: Optional[Sequence[float]] = None
        self.jam_sig: Optional[Tuple] = None


class StackContext:
    """Shared state every layer sees: simulator, RNG stream, emit hooks.

    The context is the single place where cross-cutting concerns plug into
    the stack.  Tracing hooks come from :attr:`tracer` (``None`` while
    disabled, so the hot path stays branch-cheap), metric instruments are
    created once here and cached, and fault verdicts are reached through
    the stack's :class:`FaultLayer`.
    """

    def __init__(self, sim: "Simulator", network: "Network", rng: "np.random.Generator"):
        self.sim = sim
        self.network = network
        #: The stack's RNG stream (the historical ``net`` stream).
        self.rng = rng
        # Registry instruments, cached so the transmit path pays one
        # attribute update per event (see repro.obs.registry).
        registry = sim.registry
        self.c_tx = registry.counter("net.tx")
        self.c_rx = registry.counter("net.rx")
        self.c_dropped = registry.counter("net.dropped")
        self.h_backoff = registry.histogram("net.mac_backoff_s")
        # (control_tx counter, control_bits counter) per router name.
        self._control_counters: Dict[str, Tuple[Any, Any]] = {}
        # (tx counter, delivered counter) per router name — the pair the
        # live SLO snapshot derives per-router delivery ratios from.
        self._route_counters: Dict[str, Tuple[Any, Any]] = {}
        # sender id -> its fan-out row, for the era in _rows_era only.
        self._rows: Dict[int, _FanoutRow] = {}
        self._rows_era: Tuple[int, int] = (-1, -1)

    # --------------------------------------------------------------- fan-out

    def fanout_row(self, sender: "NetNode") -> _FanoutRow:
        """The sender's fan-out row for the current topology/liveness era.

        The one per-sender neighbour memo of the transmit path: the queue
        layer sums load over it, the PHY keeps the probability vector on
        it, and both dispatchers pair it with ``Network.neighbors``' ids.
        Any membership, position or up/down change drops every row.
        """
        network = self.network
        era = (network.topology_version, network.liveness_version)
        if era != self._rows_era:
            self._rows.clear()
            self._rows_era = era
        row = self._rows.get(sender.id)
        if row is None:
            nodes = network.nodes
            row = self._rows[sender.id] = _FanoutRow(
                [nodes[nid] for nid in network.neighbors(sender.id)]
            )
        return row

    # ----------------------------------------------------------- emit hooks

    @property
    def tracer(self):
        """The active packet tracer, or ``None`` when tracing is off."""
        tracer = self.sim.packet_tracer
        if tracer is not None and not tracer.enabled:
            return None
        return tracer

    def emit(self, category: str, **fields: Any) -> None:
        self.sim.trace.emit(category, **fields)

    def incr(self, name: str, amount: float = 1.0) -> None:
        self.sim.metrics.incr(name, amount)

    def route_counters(self, node: "NetNode") -> Tuple[Any, Any]:
        """The ``(route.<name>.tx, route.<name>.delivered)`` counter pair
        for a node's router, cached per router name (one dict hit per
        transmission on the hot path, instrument creation only once)."""
        name = node.router.name if node.router is not None else "none"
        pair = self._route_counters.get(name)
        if pair is None:
            registry = self.sim.registry
            pair = (
                registry.counter(f"route.{name}.tx"),
                registry.counter(f"route.{name}.delivered"),
            )
            self._route_counters[name] = pair
        return pair

    def count_control(self, sender: "NetNode", packet: Packet) -> None:
        """Charge a non-DATA transmission to its router's control budget."""
        if packet.kind is PacketKind.DATA:
            return
        name = sender.router.name if sender.router is not None else "none"
        pair = self._control_counters.get(name)
        if pair is None:
            registry = self.sim.registry
            pair = (
                registry.counter(f"route.{name}.control_tx"),
                registry.counter(f"route.{name}.control_bits"),
            )
            self._control_counters[name] = pair
        pair[0].inc()
        pair[1].inc(packet.size_bits)


# ------------------------------------------------------------------- layers


#: Cap on the PHY pair-probability cache; mobile worlds churn positions
#: (a key component), so the cache resets rather than grows past this.
_PAIR_CACHE_MAX = 1 << 17


class PhyLayer(LayerBase):
    """PHY/channel layer: propagation and delivery probability.

    Wraps a :class:`~repro.net.channel.Channel`; the dispatchers read a
    frame's airtime from :meth:`Packet.airtime_s`, so bits-vs-seconds
    conversion lives in exactly one place.

    Delivery probability is deterministic per ``(pair, positions, tx
    power, jamming state)``, so the layer caches it — on static worlds
    every rebroadcast after the first is a dict hit instead of the full
    path-loss/shadowing/SINR chain.  Keys are bare ``(sender_id,
    receiver_id)`` pairs (cheap int hashing on the hot path); validity of
    the position and jamming inputs is carried by the cache signature
    instead — the network's ``topology_version`` (bumped on every
    membership/position change) plus the channel's
    :meth:`~repro.net.channel.Channel.jam_signature` (which covers
    add/clear and in-place ``Jammer.active`` flips).  Any signature change
    drops the whole cache.  While no jammer is installed the signature is
    ``(jam epoch, ())``, so the epoch alone stands for it and no signature
    tuple is built per lookup; an int never equals the full signature a
    jammer brings, so adding or removing one still drops the cache.
    """

    name = "phy"

    def __init__(self, channel: "Channel"):
        super().__init__()
        self.channel = channel
        self._pair_cache: Dict[Tuple, float] = {}
        self._pair_era: Optional[Tuple] = None
        # (sender_id, receiver_id) -> propagation seconds; purely position
        # dependent, so validity is the network's topology_version alone.
        self._prop_cache: Dict[Tuple[int, int], float] = {}
        self._prop_version = -1

    def propagation_s(self, sender: "NetNode", receiver: "NetNode") -> float:
        assert self.ctx is not None
        version = self.ctx.network.topology_version
        if version != self._prop_version:
            self._prop_cache.clear()
            self._prop_version = version
        key = (sender.id, receiver.id)
        prop = self._prop_cache.get(key)
        if prop is None:
            prop = distance(sender.position, receiver.position) / SPEED_OF_LIGHT_M_S
            if len(self._prop_cache) >= _PAIR_CACHE_MAX:
                self._prop_cache.clear()
            self._prop_cache[key] = prop
        return prop

    def _live_pair_cache(self) -> Dict[Tuple, float]:
        assert self.ctx is not None
        channel = self.channel
        era = (
            self.ctx.network.topology_version,
            channel.jam_signature() if channel.jammers else channel._jam_epoch,
        )
        if era != self._pair_era:
            self._pair_cache.clear()
            self._pair_era = era
        return self._pair_cache

    def delivery_probability(self, sender: "NetNode", receiver: "NetNode") -> float:
        cache = self._live_pair_cache()
        key = (sender.id, receiver.id)
        p = cache.get(key)
        if p is None:
            p = self.channel.delivery_probability(
                sender.tx_power_dbm,
                sender.position,
                receiver.position,
                sender.id,
                receiver.id,
            )
            if len(cache) >= _PAIR_CACHE_MAX:
                cache.clear()
            cache[key] = p
        return p

    def delivery_probability_batch(
        self, sender: "NetNode", receivers: Sequence["NetNode"]
    ) -> Sequence[float]:
        """Delivery probability for every receiver of one transmission.

        Bit-identical to calling :meth:`delivery_probability` per
        receiver; cache misses go through the channel's fused batch
        kernel in one call instead of re-entering the scalar chain.  When
        ``receivers`` is the sender's fan-out row the vector is kept on it:
        every broadcast of the row's era after the first reads it back
        whole (a jammer edit refills it), filled from the pair cache so a
        unicast and a broadcast over one pair agree on ``p``.
        """
        row = receivers if type(receivers) is _FanoutRow else None
        if row is not None:
            jam_sig = self.channel.jam_signature()
            if row.jam_sig == jam_sig:
                return row.probs
        cache = self._live_pair_cache()
        sid = sender.id
        spos = sender.position
        spow = sender.tx_power_dbm
        get = cache.get
        out: List[Any] = []
        miss_idx: List[int] = []
        miss_keys: List[Tuple] = []
        miss_pos: List[Any] = []
        miss_ids: List[int] = []
        for i, receiver in enumerate(receivers):
            key = (sid, receiver.id)
            p = get(key)
            out.append(p)
            if p is None:
                miss_idx.append(i)
                miss_keys.append(key)
                miss_pos.append(receiver.position)
                miss_ids.append(receiver.id)
        if miss_idx:
            probs = self.channel.delivery_probability_batch(
                spow, spos, miss_pos, miss_ids, sid
            )
            if len(cache) + len(probs) >= _PAIR_CACHE_MAX:
                cache.clear()
            for i, key, p in zip(miss_idx, miss_keys, probs):
                cache[key] = p
                out[i] = p
        if row is None:
            return out
        row.probs = np.asarray(out) if len(out) >= _NP_VERDICT_MIN else out
        row.jam_sig = jam_sig
        return row.probs


class MacLayer(LayerBase):
    """Medium-access layer: channel-access grants against local load.

    Wraps a :class:`~repro.net.mac.ContentionMac` (or any object with its
    ``access(busy, rng) -> MacAccess`` surface) and feeds the backoff
    histogram at the boundary — one draw per grant, observed exactly once.
    """

    name = "mac"

    def __init__(self, mac: ContentionMac):
        super().__init__()
        self.mac = mac

    def grant(self, busy_neighbors: int) -> MacAccess:
        assert self.ctx is not None
        access = self.mac.access(busy_neighbors, self.ctx.rng)
        self.ctx.h_backoff.observe(access.backoff_s)
        return access


class QueueLayer(LayerBase):
    """Transmit-queue layer: in-flight occupancy used for load estimates.

    ``busy_tx`` on each node counts concurrent in-flight transmissions (the
    dispatcher's ``_charge_tx`` raises it, :meth:`end_tx` lowers it at
    completion); neighbors' occupancy is what the mean-field MAC charges
    contention against.
    """

    name = "queue"

    def busy_neighbors(self, sender: "NetNode") -> int:
        assert self.ctx is not None
        return sum([n.busy_tx for n in self.ctx.fanout_row(sender)])

    def end_tx(self, sender: "NetNode") -> None:
        sender.busy_tx = max(0, sender.busy_tx - 1)


class FaultLayer(LayerBase):
    """Fault plug-in point: link cuts, partitions, and packet gremlins.

    This is where :mod:`repro.faults` hooks into the stack — exactly once,
    at the PHY/MAC boundary — instead of each transmit path re-implementing
    blocked-link and gremlin checks.  State lives here; the network exposes
    its historical ``block_link`` / ``add_gremlin`` API by delegation.
    """

    name = "faults"

    def __init__(self) -> None:
        super().__init__()
        self.blocked_links: set[Tuple[int, int]] = set()
        self.partitions: List[Dict[int, int]] = []
        self.gremlins: List[Any] = []

    @staticmethod
    def _link_key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def block_link(self, a: int, b: int) -> None:
        assert self.ctx is not None
        key = self._link_key(a, b)
        if key not in self.blocked_links:
            self.blocked_links.add(key)
            self.ctx.emit("net.link_down", a=key[0], b=key[1])

    def unblock_link(self, a: int, b: int) -> None:
        assert self.ctx is not None
        key = self._link_key(a, b)
        if key in self.blocked_links:
            self.blocked_links.discard(key)
            self.ctx.emit("net.link_up", a=key[0], b=key[1])

    def add_partition(self, groups: Dict[int, int]) -> None:
        assert self.ctx is not None
        self.partitions.append(groups)
        self.ctx.emit("net.partition_on", groups=len(set(groups.values())))

    def remove_partition(self, groups: Dict[int, int]) -> None:
        assert self.ctx is not None
        if groups in self.partitions:
            self.partitions.remove(groups)
            self.ctx.emit("net.partition_off")

    def link_blocked(self, a: int, b: int) -> bool:
        """True when a fault (link cut or partition) severs the pair."""
        if self.blocked_links and self._link_key(a, b) in self.blocked_links:
            return True
        for groups in self.partitions:
            ga = groups.get(a)
            gb = groups.get(b)
            if ga is not None and gb is not None and ga != gb:
                return True
        return False

    def add_gremlin(self, gremlin: Any) -> None:
        if gremlin not in self.gremlins:
            self.gremlins.append(gremlin)

    def remove_gremlin(self, gremlin: Any) -> None:
        if gremlin in self.gremlins:
            self.gremlins.remove(gremlin)

    def gremlin_verdict(
        self, sender_id: int, receiver_id: int, packet: Packet
    ) -> Optional[Tuple[bool, bool, bool, float]]:
        """Combined packet-gremlin verdict for one hop, or ``None``.

        Drop/corrupt/duplicate OR together across installed gremlins; extra
        delays add.  Returns ``(drop, duplicate, corrupt, extra_delay_s)``.
        """
        if not self.gremlins:
            return None
        drop = duplicate = corrupt = False
        extra_delay = 0.0
        for gremlin in self.gremlins:
            verdict = gremlin.judge(sender_id, receiver_id, packet)
            if verdict is None:
                continue
            drop = drop or verdict.drop
            duplicate = duplicate or verdict.duplicate
            corrupt = corrupt or verdict.corrupt
            extra_delay += verdict.extra_delay_s
        if not (drop or duplicate or corrupt or extra_delay > 0.0):
            return None
        return drop, duplicate, corrupt, extra_delay


class AppLayer(LayerBase):
    """Top of the stack: sniffer taps, router up-call, local handlers.

    A delivery climbs the stack here: energy is charged, promiscuous
    sniffers observe the frame, then the receiving node's router (or, for
    router-less nodes, the local handler table) takes over.
    """

    name = "app"

    def __init__(self) -> None:
        super().__init__()
        self.sniffers: List[Sniffer] = []

    def add_sniffer(self, fn: Sniffer) -> None:
        self.sniffers.append(fn)

    def deliver(self, receiver: "NetNode", packet: Packet, from_id: int) -> None:
        if receiver.energy_hook:
            receiver.energy_hook(0.0, packet.size_bits)
        for sniffer in self.sniffers:
            sniffer(packet, from_id, receiver.id)
        router = receiver.router
        if router is not None:
            router.on_receive(receiver, packet, from_id)
        else:
            receiver.deliver_local(packet, from_id)


# --------------------------------------------------------------- dispatcher


#: The gremlin verdict of a reception no gremlin touched:
#: ``(drop, duplicate, corrupt, extra_delay_s)``.
_UNTOUCHED = (False, False, False, 0.0)


class FastPathDispatcher:
    """The batched per-packet hot path over the stack's layers.

    One dispatch loop implements both transmit entry points: ``unicast``
    (link-layer-acked single receiver) and ``broadcast`` (a batch of
    independent receiver draws under one channel-access grant).  The layer
    hooks fire in fixed bottom-up/top-down order — queue -> MAC -> PHY ->
    faults on the way down, PHY -> app on the way up — with tracing and
    metrics at the boundaries.

    Every branch, RNG draw, and scheduled delay mirrors the pre-refactor
    ``Network.send`` / ``Network.broadcast`` exactly; the golden-fingerprint
    regression test holds this dispatcher to bit-identical traces.
    """

    def __init__(
        self,
        ctx: StackContext,
        phy: PhyLayer,
        mac: MacLayer,
        queue: QueueLayer,
        faults: FaultLayer,
        app: AppLayer,
    ):
        self.ctx = ctx
        self.phy = phy
        self.mac = mac
        self.queue = queue
        self.faults = faults
        self.app = app

    # ---------------------------------------------------------- shared core

    def _charge_tx(self, sender: "NetNode", packet: Packet) -> Any:
        """Per-transmission accounting at the queue/MAC boundary, in one frame.

        Counts the attempt (``net.tx_attempts``, ``net.tx``,
        ``route.<name>.tx``, and the control budget for a non-DATA packet),
        charges the sender's energy and raises its in-flight count.  Returns
        the ``route.<name>.delivered`` counter of the sender's router, which
        a fan-out's receptions are counted on by the batch.
        """
        ctx = self.ctx
        ctx.sim.metrics.incr("net.tx_attempts")
        ctx.c_tx.value += 1.0
        router = sender.router
        pair = ctx._route_counters.get(router.name if router is not None else "none")
        if pair is None:
            pair = ctx.route_counters(sender)
        pair[0].value += 1.0
        if packet.kind is not PacketKind.DATA:
            ctx.count_control(sender, packet)
        if sender.energy_hook:
            sender.energy_hook(packet.size_bits, 0.0)
        sender.busy_tx += 1
        return pair[1]

    def _survivors(
        self,
        sender: "NetNode",
        neighbor_ids: Sequence[int],
        draws: Sequence[float],
        survival: float,
    ) -> Tuple[List[bool], List[int]]:
        """One fan-out's per-neighbor verdicts and the ids that decoded.

        No Python loop touches a slot: the probabilities are the sender's
        fan-out row's vector, the verdicts one batched compare against
        ``draws`` (one uniform per neighbor, in neighbor order), the
        survivors one ``compress``; the lost are counted in one increment.
        """
        row = self.ctx.fanout_row(sender)
        probs = self.phy.delivery_probability_batch(sender, row)
        verdicts = self.phy.channel.delivery_verdicts(probs, draws, survival=survival)
        survivors = list(compress(neighbor_ids, verdicts))
        lost = len(verdicts) - len(survivors)
        if lost:
            self.ctx.c_dropped.inc(lost)
        return verdicts, survivors

    def _deliver_up(
        self,
        receiver: "NetNode",
        packet: Packet,
        sender_id: int,
        duplicate: bool,
    ) -> None:
        """Successful reception: PHY -> app climb, duplicate fan-in."""
        ctx = self.ctx
        ctx.incr("net.tx_success")
        ctx.c_rx.inc()
        ctx.route_counters(receiver)[1].inc()
        self.app.deliver(receiver, packet, sender_id)
        if duplicate:
            ctx.incr("net.rx_duplicated")
            if receiver.up:
                self.app.deliver(receiver, packet, sender_id)

    # -------------------------------------------------------------- unicast

    def unicast(
        self,
        sender: "NetNode",
        receiver: "NetNode",
        packet: Packet,
        on_result: Optional[SendResult] = None,
    ) -> None:
        """Acked single-receiver dispatch (the batch-of-one fast path).

        As in :meth:`broadcast`, the fault layer is asked only while it
        holds something to ask about: ``link_blocked`` while a link is cut
        or a partition stands, ``gremlin_verdict`` while a gremlin is
        installed.  Without one either answer is "untouched", and neither
        draws.
        """
        ctx = self.ctx
        tracer = ctx.tracer
        if not sender.up:
            if tracer is not None:
                tracer.drop_unsent(packet, sender.id, "sender_down")
            if on_result:
                on_result(False)
            return
        sender_id = sender.id
        receiver_id = receiver.id
        # Down the stack: queue load -> MAC grant -> PHY timing.
        backoff, survival = self.mac.grant(self.queue.busy_neighbors(sender))
        airtime = packet.airtime_s(sender.bitrate_bps)
        prop = self.phy.propagation_s(sender, receiver)
        delay = backoff + airtime + prop
        # Delivery draw + fault verdicts (order matches the legacy path:
        # the draw is skipped entirely when the receiver is already down).
        p_ok = self.phy.delivery_probability(sender, receiver) * survival
        drop_reason: Optional[str] = None
        if not receiver.up:
            success = False
            drop_reason = "receiver_down"
        elif ctx.rng.random() < p_ok:
            success = True
        else:
            success = False
            drop_reason = "loss"
        duplicate = corrupt = False
        extra_delay = 0.0
        if success:
            faults = self.faults
            if (faults.blocked_links or faults.partitions) and faults.link_blocked(
                sender_id, receiver_id
            ):
                success = False
                drop_reason = "link_blocked"
                ctx.incr("net.link_blocked")
            elif faults.gremlins:
                verdict = faults.gremlin_verdict(sender_id, receiver_id, packet)
                if verdict is not None:
                    drop, duplicate, corrupt, extra_delay = verdict
                    delay += extra_delay
                    if drop:
                        success = False
                        drop_reason = "gremlin"
        self._charge_tx(sender, packet)
        token = None
        if tracer is not None:
            token = tracer.on_enqueue(
                sender_id, receiver_id, packet, backoff, airtime, prop, extra_delay
            )

        def complete() -> None:
            self.queue.end_tx(sender)
            if success and receiver.up:
                if corrupt:
                    # Failed checksum: airtime was spent but the frame is
                    # discarded at the receiver, and the link-layer ack fails.
                    ctx.incr("net.rx_corrupt")
                    ctx.c_dropped.inc()
                    if token is not None:
                        tracer.on_drop(token, sender_id, receiver_id, "corrupt")
                    if on_result:
                        on_result(False)
                    return
                if token is not None:
                    tracer.on_rx(token, packet, sender_id, receiver_id, extra_delay)
                self._deliver_up(receiver, packet, sender_id, duplicate)
                if on_result:
                    on_result(True)
            else:
                ctx.sim.metrics.incr("net.tx_failed")
                ctx.c_dropped.value += 1.0
                if token is not None:
                    tracer.on_drop(
                        token,
                        sender_id,
                        receiver_id,
                        drop_reason or "receiver_down",
                    )
                if on_result:
                    on_result(False)

        # Looked up per call: a timing proxy may shadow it on the instance.
        ctx.sim.call_in_fast(delay, complete)

    # ------------------------------------------------------------ broadcast

    def broadcast(self, sender: "NetNode", neighbor_ids: Sequence[int], packet: Packet) -> int:
        """Batched fan-out under one channel-access grant (no acks).

        ``neighbor_ids`` is ``Network.neighbors(sender.id)``, which the
        sender's fan-out row parallels.  Each receiver's reception is drawn
        independently; the whole batch shares the sender's backoff and
        airtime.
        """
        ctx = self.ctx
        tracer = ctx.tracer
        if not sender.up:
            if tracer is not None:
                tracer.drop_unsent(packet, sender.id, "sender_down")
            return 0
        sender_id = sender.id
        backoff, survival = self.mac.grant(self.queue.busy_neighbors(sender))
        airtime = packet.airtime_s(sender.bitrate_bps)
        base_delay = backoff + airtime
        c_delivered = self._charge_tx(sender, packet)
        token = None
        if tracer is not None:
            # One hop span covers the whole broadcast; each receiver's
            # reception (or loss) is recorded against it individually.
            token = tracer.on_enqueue(sender_id, None, packet, backoff, airtime)
        # This is the dispatch hot path at scale: every flood rebroadcast
        # passes once per neighbor.  The delivery Bernoullis are one RNG
        # slab (``Generator.random(n)`` yields the same doubles as n
        # sequential ``random()`` calls, so each receiver still consumes
        # exactly one draw, in neighbor order).
        verdicts, survivors = self._survivors(
            sender,
            neighbor_ids,
            ctx.rng.random(len(neighbor_ids)),
            survival,
        )
        c_dropped = ctx.c_dropped
        # Faults judge survivors only, in neighbor order (a gremlin draws
        # per call), and only while one is installed.  ``cut`` names why a
        # survivor fell; ``touched`` keeps a gremlin's verdict on one that
        # stood: (drop, duplicate, corrupt, extra_delay_s).
        faults = self.faults
        link_blocked = (
            faults.link_blocked if faults.blocked_links or faults.partitions else None
        )
        gremlin_verdict = faults.gremlin_verdict if faults.gremlins else None
        cut: Dict[int, str] = {}
        touched: Dict[int, Tuple[bool, bool, bool, float]] = {}
        if link_blocked is not None or gremlin_verdict is not None:
            standing = []
            for nid in survivors:
                if link_blocked is not None and link_blocked(sender_id, nid):
                    ctx.incr("net.link_blocked")
                    cut[nid] = "link_blocked"
                    continue
                if gremlin_verdict is not None:
                    verdict = gremlin_verdict(sender_id, nid, packet)
                    if verdict is not None:
                        if verdict[0]:
                            cut[nid] = "gremlin"
                            continue
                        touched[nid] = verdict
                standing.append(nid)
            survivors = standing
            if cut:
                c_dropped.inc(len(cut))
        if token is not None:
            # Failed receptions are all decided inside this one event, with
            # no other trace emissions in between, so they reach the tracer
            # as one batch, in neighbor order.
            drops = [
                (nid, cut[nid] if delivered else "loss")
                for nid, delivered in zip(neighbor_ids, verdicts)
                if not delivered or nid in cut
            ]
            if drops:
                tracer.on_drops(token, sender_id, drops)
        nodes = ctx.network.nodes
        router = sender.router

        def receive(batch: Iterable[int]) -> None:
            """Walk receptions up the stack once; count them by the batch
            (whole numbers, so the totals equal one increment apiece)."""
            deliver = self.app.deliver
            received = own = 0
            try:
                for nid in batch:
                    receiver = nodes.get(nid)
                    if receiver is None or not receiver.up:
                        c_dropped.inc()
                        if token is not None:
                            tracer.on_drop(token, sender_id, nid, "receiver_down")
                        continue
                    _, duplicate, corrupt, extra_delay = (
                        touched.get(nid, _UNTOUCHED) if touched else _UNTOUCHED
                    )
                    if corrupt:
                        ctx.incr("net.rx_corrupt")
                        c_dropped.inc()
                        if token is not None:
                            tracer.on_drop(token, sender_id, nid, "corrupt")
                        continue
                    if token is not None:
                        tracer.on_rx(token, packet, sender_id, nid, extra_delay)
                    received += 1
                    if receiver.router is router:
                        own += 1
                    else:
                        ctx.route_counters(receiver)[1].inc()
                    deliver(receiver, packet, sender_id)
                    if duplicate:
                        ctx.incr("net.rx_duplicated")
                        if receiver.up:
                            deliver(receiver, packet, sender_id)
            finally:
                if received:
                    ctx.incr("net.tx_success", received)
                    ctx.c_rx.inc(received)
                    c_delivered.inc(own)

        def complete() -> None:
            self.queue.end_tx(sender)
            if not touched:
                receive(survivors)
                return
            # A gremlin holds some receptions back: each slot is walked, or
            # scheduled, on its own, still in neighbor order.
            for nid in survivors:
                extra_delay = touched.get(nid, _UNTOUCHED)[3]
                if extra_delay > 0.0:
                    ctx.sim.call_in_fast(extra_delay, lambda n=nid: receive((n,)))
                else:
                    receive((nid,))

        ctx.sim.call_in_fast(base_delay, complete)
        return len(neighbor_ids)


# -------------------------------------------------------------------- stack


class NetworkStack:
    """The assembled layered pipeline of one network.

    Owns the context, the five layers (PHY, MAC, queue, faults, app) and
    the fast-path dispatcher.  :class:`~repro.net.node.Network` builds a
    default stack at construction and delegates its transmit and fault
    APIs here.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        *,
        channel: "Channel",
        mac: ContentionMac,
        rng: "np.random.Generator",
    ):
        self.ctx = StackContext(sim, network, rng)
        self.phy = PhyLayer(channel)
        self.mac = MacLayer(mac)
        self.queue = QueueLayer()
        self.faults = FaultLayer()
        self.app = AppLayer()
        for layer in (self.phy, self.mac, self.queue, self.faults, self.app):
            layer.attach(self.ctx)
        self.dispatcher = FastPathDispatcher(
            self.ctx, self.phy, self.mac, self.queue, self.faults, self.app
        )
