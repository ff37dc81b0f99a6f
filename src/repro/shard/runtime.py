"""One shard's replica: world build, ownership, windows, handoffs.

A :class:`ShardRuntime` is what actually lives inside each worker process
(or side by side in inline mode): a full replica of the world built
deterministically from the spec's seed, specialized to one shard of the
partition.  Replication is the synchronization strategy — mobility sweeps
and fault processes run identically everywhere from their own named RNG
streams, so node liveness, positions, and blocked links never need to be
shipped; only *packet handoffs* and externally injected lifecycle events
cross the barrier.

What is partitioned, not replicated:

* **Origination** — the synthetic workload only schedules ticks for owned
  senders.
* **Routing reaction** — non-owned nodes are detached from the router, so
  deliveries (which only happen owner-side) never trigger replica
  forwarding.
* **Trace recording** — :class:`.dispatch.ShardTraceLog` keeps each
  record in exactly one shard.

The conservative lookahead is ``min packet airtime + min cross-shard
propagation delay``: every cross-shard delivery is scheduled at least one
airtime after its send, so a window of ``lookahead / 2`` guarantees all
handoffs land strictly inside the *next* window.  The propagation term
only contributes when no broadcast can occur (broadcast delay carries no
propagation component) and the world is static.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.net.packet as packet_module
from repro.faults.faults import LinkFlapFault, NodeChurnFault
from repro.net.channel import Channel
from repro.net.mac import ContentionMac
from repro.net.node import Network, _block_members, _cell_table, _cells
from repro.net.packet import Packet, PacketKind
from repro.net.registry import StackSpec, compose
from repro.net.stack import SPEED_OF_LIGHT_M_S, FastPathDispatcher
from repro.net.topology import GridPartition, min_cross_shard_distance_m, partition_network
from repro.obs import wire_from_env
from repro.scenarios.builder import ScenarioBuilder
from repro.shard.dispatch import Handoff, ShardHops, ShardTraceLog
from repro.shard.spec import ShardPlan, ShardScenarioSpec
from repro.sim.kernel import Simulator
from repro.util.geometry import Point
from repro.util.rng import derive_seed, derive_seeds

__all__ = ["ShardRuntime", "REPLICATED_METRIC_PREFIXES", "AODV_CONTROL_BITS"]

#: Metric counters incremented identically in every replica (fault
#: processes run everywhere); merged with ``max``, not ``sum``.
REPLICATED_METRIC_PREFIXES = ("faults.",)

#: AODV RREQ/RREP frames are 256 bits — the smallest packet a world with
#: AODV can put on the air, hence a lookahead bound.
AODV_CONTROL_BITS = 256

#: Per-shard packet-uid blocks: shard ``i`` allocates uids from
#: ``1 + i * 10**9``, so forwarded uids never collide across shards.
UID_BLOCK = 10**9


class ShardRuntime:
    """A full world replica acting for one shard of the partition."""

    def __init__(
        self,
        spec: ShardScenarioSpec,
        plan: ShardPlan,
        shard_index: int,
        *,
        collect_trace: bool = True,
    ):
        spec.validate()
        plan.validate()
        self.spec = spec
        self.plan = plan
        self.shard_index = shard_index
        # Own uid counter, installed as the packet module's allocator
        # whenever this runtime is active (activate() — critical in
        # inline mode where several runtimes share one process).
        self._uid_counter = itertools.count(1 + shard_index * UID_BLOCK)
        self.activate()

        self.sim = Simulator(seed=spec.seed)
        self.sim.trace = ShardTraceLog(self.sim, shard_index)
        self.sim.trace.enabled = collect_trace
        # Env-wired observability (REPRO_OBS_NDJSON_DIR / _RING_DIR /
        # _PROFILE): the shard index namespaces export filenames so
        # fork-mode siblings — which inherit the parent's pid-seq counter
        # state — can never clobber each other's parts.  REPRO_OBS_TRACE
        # is deliberately dropped: the causal packet tracer bypasses the
        # ownership filter (it stages schema entries directly), so enabling
        # it per-replica would duplicate pkt.* records across shards.
        wire_from_env(
            self.sim,
            {k: v for k, v in os.environ.items() if k != "REPRO_OBS_TRACE"},
            shard=shard_index,
        )

        # Provenance for RunManifests stamped next to this run's exports.
        # Only the 1-shard (serial reference) world embeds the replay
        # payload: a shard-local trace is a partial view, so replaying it
        # alone could never reproduce the merged fingerprint.
        from repro.obs.forensics import content_hash

        self.sim.provenance["content_hashes"] = {
            "scenario_spec": content_hash(spec),
            "shard_plan": content_hash(plan),
        }
        if plan.n_shards == 1:
            self.sim.provenance["scenario"] = {
                "kind": "shard-world",
                "spec": dataclasses.asdict(spec),
                "plan": dataclasses.asdict(plan),
                "until": None,
            }

        self.scenario = None
        self.network = self._build_urban() if spec.kind == "urban" else self._build_uniform()
        if spec.bitrate_cap_bps is not None:
            for node in self.network.nodes.values():
                node.bitrate_bps = min(node.bitrate_bps, spec.bitrate_cap_bps)

        self.partition: GridPartition = partition_network(
            self.network,
            plan.n_shards,
            cell_size_m=plan.cell_size_m,
            seed=plan.partition_seed,
        )
        self.owned = frozenset(self.partition.nodes_of(shard_index))
        self.sim.trace.set_ownership(self.owned)

        # Non-owned nodes keep their replica state but stop *reacting*:
        # deliveries only ever happen owner-side, and a detached node
        # cannot originate forwards.
        for nid in sorted(self.network.nodes):
            node = self.network.nodes[nid]
            if nid not in self.owned and node.router is not None:
                node.router.detach(nid)

        hops = ShardHops(
            derive_seed(spec.seed, "shard.hops"), self.owned, self.partition.assignments
        )
        self.outbox: List[Handoff] = hops.outbox
        stack = self.network.stack
        self.dispatcher = stack.dispatcher = FastPathDispatcher(
            stack.ctx, stack.phy, stack.mac, stack.queue, stack.faults, stack.app, shard=hops
        )

        self._install_handlers()
        self._install_workload()
        self._install_faults()
        if self.scenario is not None and spec.mobile_fraction > 0.0:
            self.scenario.mobility.start()
        self._install_chaos()

        self.lookahead_s = self._lookahead()

    # ------------------------------------------------------------ activation

    def activate(self) -> None:
        """Make this runtime's uid counter the packet allocator."""
        packet_module._packet_ids = self._uid_counter

    # ----------------------------------------------------------- world build

    def _build_urban(self) -> Network:
        spec = self.spec
        builder = (
            ScenarioBuilder(self.sim)
            .urban_grid(
                blocks=spec.blocks,
                block_size_m=spec.block_size_m,
                density=spec.density,
            )
            .population(n_blue=spec.n_blue, n_red=spec.n_red, n_gray=spec.n_gray)
            .mobility(
                spec.mobile_fraction,
                update_period_s=spec.mobility_period_s,
            )
        )
        if spec.router is not None:
            builder = builder.stack(
                router=spec.router,
                mac=spec.mac,
                router_params=spec.router_param_dict(),
                mac_params=spec.mac_param_dict(),
            )
        self.scenario = builder.build()
        return self.scenario.network

    def _build_uniform(self) -> Network:
        """A jittered grid of identical radios — the benchmark world.

        Built without the asset machinery (batteries, sensors): at 10k
        nodes the world must stay cheap to replicate, and uniform radios
        give the scale bench a controlled lookahead.
        """
        spec = self.spec
        channel = Channel(seed=derive_seed(spec.seed, "shard.channel"))
        network = Network(self.sim, channel=channel, mac=ContentionMac())
        rng = np.random.default_rng(derive_seed(spec.seed, "shard.uniform"))
        side = int(math.ceil(math.sqrt(spec.n_nodes)))
        # One bulk draw keeps the build fast and trivially replicated; read
        # as Python floats, so no numpy scalar reaches the hop's arithmetic.
        jitter = rng.uniform(-spec.jitter_m, spec.jitter_m, size=(spec.n_nodes, 2))
        for i, (jx, jy) in enumerate(zip(jitter[:, 0].tolist(), jitter[:, 1].tolist())):
            network.create_node(
                i,
                Point((i % side) * spec.spacing_m + jx, (i // side) * spec.spacing_m + jy),
                tx_power_dbm=spec.tx_power_dbm,
                bitrate_bps=spec.bitrate_bps,
            )
        if spec.router is not None:
            stack_spec = StackSpec(
                router=spec.router,
                mac=spec.mac,
                router_params=spec.router_param_dict(),
                mac_params=spec.mac_param_dict(),
            )
            compose(
                self.sim,
                stack_spec,
                network=network,
                attach=sorted(network.nodes),
            )
        return network

    # ------------------------------------------------------------- handlers

    def _install_handlers(self) -> None:
        trace = self.sim.trace

        def on_rx(node: Any, pkt: Packet, from_id: int) -> None:
            if not trace.enabled:
                return
            trace.emit(
                "app.rx",
                node=node.id,
                src=pkt.src,
                kind=pkt.kind.value,
                last_hop=from_id,
            )

        for node in self.network.nodes.values():
            node.default_handler = on_rx

    # ------------------------------------------------------------- workload

    def _sender_seeds(self, name: str, senders: Sequence[int]) -> List[int]:
        """``derive_seed(spec.seed, name, str(s))`` for each sender."""
        return derive_seeds(self.spec.seed, (name,), map(str, senders))

    def _nearest_partners(self, rows: List[int], ids: List[int]) -> List[int]:
        """The nearest other node to each sender ``ids[row]``, ties to the lowest id.

        Exactly what a ring scan of ``cell``-sized squares returns: ring
        ``r`` is the cells ``r`` steps from the sender's, and the scan stops
        at the first ``r`` whose best ``(p.x - q.x) ** 2 + (p.y - q.y) ** 2``
        over rings 0..r is below ``(r * cell) ** 2``.  numpy decides every
        sender at once over blocks of ``2k + 1`` by ``2k + 1`` cells, ``k``
        doubling for senders that have not stopped.  numpy squares by
        multiplying and Python by ``pow``, which may differ in the last bit,
        so a sender whose decision compares values within ``near`` of each
        other is decided again from the scan's own Python expression.
        """
        spec, nodes = self.spec, self.network.nodes
        cell = max(spec.spacing_m if spec.kind == "uniform" else self.network._max_range(), 1.0)
        xs, ys, cx, cy = _cells(self.network, ids, cell)
        gx, gy, width, height, table = _cell_table(cx, cy)
        near = 1e-12

        partner = np.empty(len(rows), dtype=np.int64)
        senders, pending, k = np.asarray(rows, dtype=np.int64), np.arange(len(rows)), 1
        while pending.size:
            s = senders[pending]
            row, cand = _block_members(s, k, gx, gy, width, height, table)
            ring = np.maximum(abs(gx[cand] - gx[s[row]]), abs(gy[cand] - gy[s[row]]))
            d = (xs[s[row]] - xs[cand]) ** 2 + (ys[s[row]] - ys[cand]) ** 2
            first = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])[: row.size]
            thresholds = np.array([(r * cell) ** 2 for r in range(k + 1)])

            def decide() -> Tuple[np.ndarray, ...]:
                best = np.full((len(s), k + 1), np.inf)
                for r in range(k + 1):
                    best[row[first], r] = np.minimum.reduceat(np.where(ring == r, d, np.inf), first)
                best = np.minimum.accumulate(best, axis=1)
                stop = thresholds > best
                last = stop.argmax(axis=1)
                return best, stop.any(axis=1), last, best[np.arange(len(s)), last]

            best, done, last, low = decide()
            tied = (d <= low[row] * (1.0 + near)) & (ring <= last[row])
            close = np.isfinite(best) & (abs(thresholds - best) <= near * best)
            close &= np.arange(k + 1) <= last[:, None]
            redo = done & ((np.bincount(row[tied], minlength=len(s)) > 1) | close.any(axis=1))
            if redo.any():
                for e in np.flatnonzero(redo[row]).tolist():
                    p, q = nodes[ids[s[row[e]]]].position, nodes[ids[cand[e]]].position
                    d[e] = (p.x - q.x) ** 2 + (p.y - q.y) ** 2
                best, done, last, low = decide()
            win = np.full(len(s), len(ids))
            hit = (d == low[row]) & (ring <= last[row])
            np.minimum.at(win, row[hit], cand[hit])
            partner[pending[done]] = win[done]
            pending, k = pending[~done], 2 * k
        return [ids[j] for j in partner.tolist()]

    def _install_workload(self) -> None:
        wl = self.spec.workload
        ids = sorted(self.network.nodes)
        if len(ids) < 2 and wl.kind != "beacons":
            return
        period = 1.0 / wl.rate_hz
        network = self.network
        rows = [i for i in range(0, len(ids), wl.sender_stride) if ids[i] in self.owned]
        senders = [ids[i] for i in rows]
        kind = PacketKind.BEACON if wl.kind == "beacons" else PacketKind.DATA
        partners: List[Optional[int]] = [None] * len(rows)
        if wl.kind == "unicast":
            # A seed-derived fixed partner among the n - 1 other ids,
            # indexed around the sender's own position.
            picks = [seed % (len(ids) - 1) for seed in self._sender_seeds("shard.partner", senders)]
            partners = [ids[pick if pick < i else pick + 1] for i, pick in zip(rows, picks)]
        elif wl.kind == "local":
            partners = list(self._nearest_partners(rows, ids))
        # Seed-derived phase spreads senders across the period so the
        # serial run and every shard layout see identical tick times.
        seeds = self._sender_seeds("shard.phase", senders)
        for sender, dst, seed in zip(senders, partners, seeds):
            start = wl.start_s + (seed % 10**6) / 10**6 * period

            def tick(s: int = sender, d: Optional[int] = dst, k: PacketKind = kind):
                node = network.nodes[s]
                pkt = Packet(
                    src=s,
                    dst=d,
                    kind=k,
                    size_bits=wl.size_bits,
                    ttl=wl.ttl,
                    created_at=self.sim.now,
                )
                if node.router is not None:
                    node.router.send(s, pkt)
                elif d is None:
                    network.broadcast(s, pkt)
                else:
                    network.send(s, d, pkt)

            self.sim.every(period, tick, start_delay=start)

    # --------------------------------------------------------------- faults

    def _install_faults(self) -> None:
        plan = self.spec.faults
        if plan is None:
            return
        # Each fault spec is its fault's keyword arguments plus its window.
        for fault, cls in ((plan.churn, NodeChurnFault), (plan.link_flap, LinkFlapFault)):
            if fault is not None:
                kwargs = dataclasses.asdict(fault)
                start_s, duration_s = kwargs.pop("start_s"), kwargs.pop("duration_s")
                cls(self.network, **kwargs).schedule(start_s, duration_s)

    # ---------------------------------------------------------------- chaos

    def _install_chaos(self) -> None:
        chaos = self.spec.chaos_crash
        if chaos is None or chaos[0] != self.shard_index:
            return
        _shard, when, sentinel = chaos

        def crash() -> None:
            if os.path.exists(sentinel):
                return  # already died once; behave this attempt
            with open(sentinel, "w", encoding="utf-8") as fh:
                fh.write("crashed\n")
            os._exit(11)

        self.sim.call_at(when, crash)

    # ------------------------------------------------------------- lookahead

    def _lookahead(self) -> float:
        if self.plan.n_shards <= 1:
            return math.inf
        min_bits = float(self.spec.workload.size_bits)
        if self.spec.router == "aodv":
            min_bits = min(min_bits, float(AODV_CONTROL_BITS))
        max_bitrate = max(
            node.bitrate_bps for node in self.network.nodes.values()
        )
        airtime = min_bits / max(max_bitrate, 1.0)
        # Broadcast delay carries no propagation term, so distance only
        # helps when nothing can broadcast and nobody moves.
        prop = 0.0
        broadcast_free = (
            self.spec.router is None and self.spec.workload.kind == "local"
        )
        if broadcast_free and self.spec.mobile_fraction == 0.0:
            dist = min_cross_shard_distance_m(self.network, self.partition)
            if math.isfinite(dist):
                prop = dist / SPEED_OF_LIGHT_M_S
        return airtime + prop

    # --------------------------------------------------------------- windows

    def run_window(self, t_end: float) -> List[Handoff]:
        """Advance to the barrier; return (and clear) the outbox."""
        self.activate()
        self.sim.run(until=t_end)
        out = list(self.outbox)
        self.outbox.clear()
        return out

    def apply_handoffs(self, handoffs: Sequence[Handoff]) -> None:
        """Schedule deliveries shipped by other shards.

        Lookahead guarantees every ``deliver_time`` lies at or beyond the
        barrier we just crossed, so ``call_at`` never schedules into the
        past.
        """
        self.activate()
        for deliver_time, kind, src, dst, _shard, pkt in handoffs:
            self.sim.call_at(
                deliver_time,
                lambda k=kind, s=src, d=dst, p=pkt: self.apply_remote(k, s, d, p),
            )

    def apply_remote(self, kind: str, src_id: int, dst_id: int, packet: Packet) -> None:
        """Deliver a handoff shipped by another shard, at its deliver time.

        The liveness re-check matches both the serial path (a broadcast
        reception that finds its receiver gone is a ``net.dropped``; a
        unicast failure was already accounted sender-side) and the sending
        shard's replica verdict.
        """
        receiver = self.network.nodes.get(dst_id)
        if receiver is None or not receiver.up:
            if kind == "b":
                self.network.stack.ctx.c_dropped.inc()
            return
        self.dispatcher._deliver_up(receiver, packet, src_id, False)

    def apply_lifecycle(self, events: Sequence[Tuple[float, int, bool]]) -> None:
        """Schedule coordinator-injected node up/down transitions."""
        self.activate()
        network = self.network
        for when, node_id, up in events:
            if node_id not in network.nodes:
                continue
            if up:
                self.sim.call_at(when, lambda n=node_id: network.restore_node(n))
            else:
                self.sim.call_at(when, lambda n=node_id: network.fail_node(n))

    # --------------------------------------------------------------- results

    def collect(self) -> Dict[str, Any]:
        """The shard's contribution to the merged result (picklable).

        The trace travels as one struct-packed binary payload
        (:meth:`~repro.sim.trace.TraceLog.packed_payload`) rather than a
        list of per-record dicts — orders of magnitude less pickle for
        the pipe; the coordinator decodes with
        :func:`repro.obs.merge.payload_to_records`.  ``metrics`` is the
        registry's raw mergeable state (:func:`repro.obs.merge.
        merge_metrics` unifies it across shards).
        """
        self.sim.export_obs()
        return {
            "shard": self.shard_index,
            "owned": len(self.owned),
            "trace": self.sim.trace.packed_payload(),
            "counters": dict(self.sim.metrics.counters()),
            "metrics": self.sim.registry.state(),
            "events_processed": self.sim.events_processed,
            "wall_elapsed": self.sim.wall_elapsed,
            "now": self.sim.now,
        }
