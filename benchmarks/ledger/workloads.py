"""The ledger's seven workloads.

Each workload derives its inputs from ``--seed`` (:meth:`Workload.inputs`,
plain data the program then receives) and runs them one *round* at a time
(:meth:`Workload.round`): build the world (``setup_s``), ``gc.collect()``,
run the timed region (``wall_s``), then read the exact simulated statistics
and check the outputs.  With a :class:`~benchmarks.ledger.spans.SpanRecorder`
a round is a *traced* round and also returns the per-layer metrics.

Sizes: ``FULL`` keeps every world the issue names (1k grid, 144 mobile
nodes, 5k field, 1k assets, 28-node line under its 900 s chaos schedule) and
shortens only the horizon: a round takes 1.3-2.5 s on a quiet host, so that
a warm-up and the three to six measured rounds of a 10 s run fit the
benchmark's run-time cap while each round is long enough for caches to fill
and steady state to dominate.  ``TINY`` shrinks worlds too; it exists for the
self-test only.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import math
import os
import pickle
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import ScenarioBuilder
from repro.campaign import CampaignRunner, ResultCache, SweepSpec
from repro.core.mission import MissionGoal, MissionType
from repro.core.synthesis.composer import GreedyComposer
from repro.faults import FaultInjector
from repro.net.channel import Channel
from repro.net.mobility import MobilityManager, RandomWaypoint
from repro.net.node import Network
from repro.net.routing import AodvRouter, FloodingRouter, GreedyGeoRouter
from repro.net.topology import build_topology
from repro.net.transport import MessageService, ReliableMessageService
from repro.service import SnapshotHub, SynthesisQuery, SynthesisService
from repro.shard import (
    ShardedSimulator,
    ShardPlan,
    ShardRuntime,
    ShardScenarioSpec,
    WorkloadSpec,
    run_serial,
)
from repro.sim import Simulator
from repro.things.capabilities import SensingModality
from repro.util.geometry import Point, Region

from benchmarks.ledger.layers import instrument, sim_layer_metrics
from benchmarks.ledger.spans import SpanRecorder

#: Scratch space for the campaign's ResultCache; inside the benchmark's own
#: directory because a run may write nowhere else.
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")


@dataclass
class Round:
    """What one round measured and checked."""

    setup_s: float
    wall_s: float
    #: Units of work the timed region completed (events, queries, tasks).
    work: float
    attempted: int
    failed: int
    #: Exact simulated statistics; every round of one seed must repeat them.
    stats: Dict[str, Any]
    #: Measured numbers beyond wall time (latencies, warm re-run, ...).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer metrics; filled by traced rounds only.
    layers: Dict[str, float] = field(default_factory=dict)


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Run ``fn`` as a timed region: collect garbage first, then clock it."""
    gc.collect()
    t0 = perf_counter()
    out = fn()
    return perf_counter() - t0, out


#: Times a round builds its world; it keeps the last one.
SETUPS = 3


def set_up(build: Callable[[], Any]) -> Tuple[float, Any]:
    """Build a round's world ``SETUPS`` times: the fastest time, the last world.

    Several set-ups are 0.2-3 ms of work, and the first one after a round
    and a ``gc.collect()`` runs on cold caches (0.33 ms against 0.11 ms on
    the campaign); repeating it gives ``setup_s`` enough samples in a run.
    """
    best = math.inf
    for _ in range(SETUPS):
        t0 = perf_counter()
        world = build()
        best = min(best, perf_counter() - t0)
    return best, world


def digest(value: Any) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=8).hexdigest()


class Workload:
    name = ""
    why = ""
    #: What ``work_per_s`` counts on this workload.
    work_unit = ""
    #: Whether a round runs on one CPU, with every process it forks.
    pinned = True
    FULL: Dict[str, Any] = {}
    TINY: Dict[str, Any] = {}

    def inputs(self, seed: int, tiny: bool = False) -> Dict[str, Any]:
        """Every generated input of a run, derived from ``seed`` alone."""
        raise NotImplementedError

    def round(self, inputs: Dict[str, Any], rec: Optional[SpanRecorder] = None) -> Round:
        raise NotImplementedError

    def precheck(self, inputs: Dict[str, Any]) -> Tuple[int, int]:
        """One-off output check before the rounds: ``(attempted, failed)``."""
        return 0, 0

    def sizes(self, tiny: bool) -> Dict[str, Any]:
        return dict(self.TINY if tiny else self.FULL)


# ------------------------------------------------------- simulator workloads


@dataclass
class SimWorld:
    sim: Simulator
    net: Network
    router: Any
    transport: Any
    horizon: float


def grid_network(sim: Simulator, side: int, spacing_m: float) -> Network:
    net = Network(sim, Channel(seed=sim.rng.seed))
    node_id = 1
    for row in range(side):
        for col in range(side):
            net.create_node(node_id, Point(col * spacing_m, row * spacing_m))
            node_id += 1
    return net


def inject_traffic(
    sim: Simulator, transport: Any, traffic: List[Tuple[float, int, Optional[int]]]
) -> None:
    """Schedule the generated ``(time, src, dst)`` messages on ``transport``.

    The callbacks are named after this function, which is how the traced
    pass tells the harness's own injection time from the program's.
    """
    for k, (when, src, dst) in enumerate(traffic):
        sim.call_at(
            when, lambda s=src, d=dst, k=k: transport.send(s, d, payload=("m", k))
        )


#: Above this many records a trace is fingerprinted in its packed form.
DECODE_FINGERPRINT_MAX = 20_000


def trace_fingerprint(trace: Any) -> str:
    """``TraceLog.fingerprint()``, or for a large trace a digest of its
    packed binary ring (prefixed ``ring:``).

    Decoding geo_unicast_1k_traced's 250k records to fingerprint them costs
    3.9 s and +175 MiB per round, twice the round itself; the ring holds the
    same records and packs and hashes in 1.0 s.  Only that workload is large
    enough to take this branch, so only its fingerprint depends on the ring
    encoding as well as on the records.
    """
    if len(trace) <= DECODE_FINGERPRINT_MAX:
        return trace.fingerprint()
    payload = trace.packed_payload()
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((payload["strings"], payload["objects"], payload["n"])).encode())
    h.update(payload["packed"])
    return "ring:" + h.hexdigest()


def sim_stats(world: SimWorld) -> Dict[str, Any]:
    sim = world.sim
    return {
        "fingerprint": trace_fingerprint(sim.trace),
        "events": sim.events_processed,
        "delivery_ratio": world.transport.delivery_ratio(),
        "tx_attempts": int(sim.metrics.counter("net.tx_attempts")),
        # The untraced trace holds few records (packet tracing is off), so
        # the counters stand in as a second exact signature of the run.
        "counters": digest(sorted(sim.metrics.counters().items())),
    }


class SimWorkload(Workload):
    work_unit = "events"
    packet_tracing = False

    def build(self, inputs: Dict[str, Any]) -> SimWorld:
        """The world, before any traffic is scheduled on it."""
        raise NotImplementedError

    def round(self, inputs: Dict[str, Any], rec: Optional[SpanRecorder] = None) -> Round:
        setup_s, world = set_up(lambda: self.build(inputs))
        # Scheduling the generated load is the harness's work, not the
        # program's set-up, and belongs to neither clock.
        inject_traffic(world.sim, world.transport, inputs["traffic"])
        if rec is not None:
            instrument(world, rec)
        try:
            wall_s, _ = timed(lambda: world.sim.run(until=world.horizon))
        finally:
            if rec is not None:
                rec.remove()
        layers = sim_layer_metrics(world, rec, wall_s) if rec is not None else {}
        return Round(
            setup_s=setup_s,
            wall_s=wall_s,
            work=world.sim.events_processed,
            attempted=1,
            failed=0,
            stats=sim_stats(world),
            layers=layers,
        )


class GeoUnicast(SimWorkload):
    name = "geo_unicast_1k"
    why = (
        "64 persistent greedy-geo streams on a static 32x32 grid: event queue, "
        "unicast dispatch and next-hop/pair memos do the work, the batch PHY none"
    )
    FULL = dict(side=32, spacing_m=60.0, pairs=64, messages=20000, interval_s=0.02)
    TINY = dict(side=8, spacing_m=60.0, pairs=8, messages=300, interval_s=0.02)

    def inputs(self, seed: int, tiny: bool = False) -> Dict[str, Any]:
        p = self.sizes(tiny)
        rng = np.random.default_rng([seed, 1])
        n = p["side"] ** 2
        pairs = [
            tuple(int(x) + 1 for x in rng.choice(n, size=2, replace=False))
            for _ in range(p["pairs"])
        ]
        p["seed"] = seed
        p["traffic"] = [
            (1.0 + i * p["interval_s"], *pairs[i % len(pairs)])
            for i in range(p["messages"])
        ]
        return p

    def build(self, inputs: Dict[str, Any]) -> SimWorld:
        sim = Simulator(seed=inputs["seed"])
        if self.packet_tracing:
            sim.enable_packet_tracing()
        net = grid_network(sim, inputs["side"], inputs["spacing_m"])
        router = GreedyGeoRouter(net)
        router.attach_all(sorted(net.nodes))
        transport = MessageService(router)
        return SimWorld(sim, net, router, transport, inputs["traffic"][-1][0] + 60.0)


class GeoUnicastTraced(GeoUnicast):
    name = "geo_unicast_1k_traced"
    why = (
        "geo_unicast_1k's inputs with Simulator.enable_packet_tracing(): the only "
        "workload where obs does real work; the pair gives the tracer tax"
    )
    packet_tracing = True

    def round(self, inputs: Dict[str, Any], rec: Optional[SpanRecorder] = None) -> Round:
        out = super().round(inputs, rec)
        if rec is not None:
            # The tracer tax: the same inputs with packet tracing off and on,
            # neither with proxies, back to back.
            off = GeoUnicast().round(inputs)
            on = super().round(inputs)
            out.layers["obs.tax_us_per_event"] = 1e6 * (
                on.wall_s / on.work - off.wall_s / off.work
            )
        return out


class FloodBroadcast(SimWorkload):
    name = "flood_broadcast_1k"
    why = (
        "network-wide floods on the same grid: wide delivery_probability_batch/"
        "delivery_verdicts batches and dedup caches dominate, unicast is bypassed"
    )
    FULL = dict(side=32, spacing_m=60.0, floods=24, interval_s=0.5)
    TINY = dict(side=8, spacing_m=60.0, floods=3, interval_s=0.5)

    def inputs(self, seed: int, tiny: bool = False) -> Dict[str, Any]:
        p = self.sizes(tiny)
        rng = np.random.default_rng([seed, 3])
        sources = rng.integers(1, p["side"] ** 2 + 1, size=p["floods"])
        p["seed"] = seed
        p["traffic"] = [
            (1.0 + i * p["interval_s"], int(src), None)
            for i, src in enumerate(sources)
        ]
        return p

    def build(self, inputs: Dict[str, Any]) -> SimWorld:
        sim = Simulator(seed=inputs["seed"])
        net = grid_network(sim, inputs["side"], inputs["spacing_m"])
        router = FloodingRouter(net)
        router.attach_all(sorted(net.nodes))
        transport = MessageService(router)
        return SimWorld(sim, net, router, transport, inputs["traffic"][-1][0] + 60.0)


class AodvMobileChurn(SimWorkload):
    name = "aodv_mobile_churn"
    why = (
        "144 random-waypoint nodes, churn + 5% drop gremlin, AODV + reliable "
        "transport: every topology/liveness-keyed memo is dropped each simulated "
        "second, so a caching gain that costs invalidation shows here"
    )
    FULL = dict(side=12, spacing_m=75.0, horizon_s=50.0, mean_iat_s=0.5)
    TINY = dict(side=5, spacing_m=75.0, horizon_s=12.0, mean_iat_s=0.5)

    def inputs(self, seed: int, tiny: bool = False) -> Dict[str, Any]:
        p = self.sizes(tiny)
        rng = np.random.default_rng([seed, 4])
        n = p["side"] ** 2
        traffic = []
        when = 1.0
        # Stop sending early so retransmissions settle inside the horizon.
        while when < p["horizon_s"] - 10.0:
            src, dst = (int(x) + 1 for x in rng.choice(n, size=2, replace=False))
            traffic.append((when, src, dst))
            when += float(rng.exponential(p["mean_iat_s"]))
        p["seed"] = seed
        p["traffic"] = traffic
        return p

    def build(self, inputs: Dict[str, Any]) -> SimWorld:
        sim = Simulator(seed=inputs["seed"])
        side, spacing = inputs["side"], inputs["spacing_m"]
        net = grid_network(sim, side, spacing)
        extent = (side - 1) * spacing
        region = Region(0.0, 0.0, extent, extent)
        mobility = MobilityManager(sim, net, update_period_s=1.0)
        for node_id in sorted(net.nodes):
            mobility.attach(
                node_id,
                RandomWaypoint(
                    net.node(node_id).position, region, speed_range=(0.5, 2.0)
                ),
            )
        injector = FaultInjector(net)
        injector.node_churn(mtbf_s=300.0, mean_downtime_s=60.0)
        injector.gremlin(drop_p=0.05)
        router = AodvRouter(net)
        router.attach_all(sorted(net.nodes))
        transport = ReliableMessageService(router)
        mobility.start()
        return SimWorld(sim, net, router, transport, inputs["horizon_s"])


# ------------------------------------------------------------ sharded world


class ShardLocal(Workload):
    name = "shard_local_5k_x2"
    why = (
        "5000-node uniform field, nearest-neighbour datagrams, ShardedSimulator "
        "with 2 fork-mode shards sharing one CPU: the only place barrier, IPC "
        "and replicated world-build cost is paid"
    )
    work_unit = "events"
    FULL = dict(n_nodes=5000, until_s=12.0, parity_until_s=0.4)
    TINY = dict(n_nodes=300, until_s=1.0, parity_until_s=0.4)

    def inputs(self, seed: int, tiny: bool = False) -> Dict[str, Any]:
        p = self.sizes(tiny)
        # bench_sharded_scale's world, re-declared: raw link-layer sends to
        # the nearest neighbour keep cross-shard traffic at the cut fronts.
        p["spec"] = ShardScenarioSpec(
            seed=seed,
            kind="uniform",
            n_nodes=p["n_nodes"],
            spacing_m=60.0,
            jitter_m=8.0,
            bitrate_bps=5e4,
            router=None,
            mac="csma",
            workload=WorkloadSpec(
                kind="local", rate_hz=1.0, size_bits=2048, ttl=1, sender_stride=1
            ),
        )
        p["plan"] = ShardPlan(n_shards=2, cell_size_m=120.0)
        return p

    def precheck(self, inputs: Dict[str, Any]) -> Tuple[int, int]:
        spec, plan, until = inputs["spec"], inputs["plan"], inputs["parity_until_s"]
        serial = run_serial(spec, until)
        sharded = ShardedSimulator(spec, plan, mode="fork").run(until)
        return 1, int(serial.fingerprint() != sharded.fingerprint())

    @staticmethod
    def _stats(events: int, counters: Dict[str, float], n_windows: int) -> Dict[str, Any]:
        return {
            "events": events,
            "tx_attempts": int(counters.get("net.tx_attempts", 0)),
            "counters": digest(sorted(counters.items())),
            "windows": n_windows,
        }

    def round(self, inputs: Dict[str, Any], rec: Optional[SpanRecorder] = None) -> Round:
        spec, plan, until = inputs["spec"], inputs["plan"], inputs["until_s"]
        # Set-up is one replica's world build; every fork-mode worker repeats
        # it inside the timed region, where ShardedSimulator.run() puts it.
        # The coordinator and both workers share the round's one CPU: every
        # window waits for the slower shard, so on two CPUs the rate followed
        # whichever the host disturbed (65-98k events/s over ten runs, against
        # 54-60k on one CPU).  What is timed is the work of the sharded run,
        # barriers, pipes and pickling included, not how much of it overlaps.
        setup_s, _ = set_up(lambda: ShardRuntime(spec, plan, 0, collect_trace=False))
        engine = ShardedSimulator(spec, plan, mode="fork", collect_trace=False)

        def run() -> Tuple[Any, float]:
            cpu0 = process_time()
            result = engine.run(until)
            return result, process_time() - cpu0

        wall_s, (result, coordinator_cpu_s) = timed(run)
        out = Round(
            setup_s=setup_s,
            wall_s=wall_s,
            work=result.events_processed,
            attempted=1,
            failed=result.retries,
            stats=self._stats(result.events_processed, result.counters, result.n_windows),
        )
        if rec is not None:
            out.layers, inline_stats = self._traced(inputs, rec, result, wall_s)
            # The coordinator's own CPU time in the fork run: window and
            # finish messages, unpickling outboxes, routing handoffs, merging.
            out.layers["shard.coord_overhead_s"] = coordinator_cpu_s
            out.attempted += 1
            out.failed += int(inline_stats != out.stats)
        return out

    def _traced(
        self, inputs: Dict[str, Any], rec: SpanRecorder, forked: Any, fork_wall_s: float
    ) -> Tuple[Dict[str, float], Dict[str, Any]]:
        """Drive the shards window by window in this process, as the inline
        engine does, with a span around each phase of each window.

        Returns the per-layer metrics and the inline run's exact statistics,
        which must equal the fork run's."""
        spec, plan, until = inputs["spec"], inputs["plan"], inputs["until_s"]
        k = plan.n_shards
        serial_wall_s, _ = timed(lambda: run_serial(spec, until, collect_trace=False))

        gc.collect()
        t_inline = perf_counter()
        runtimes = []
        for i in range(k):
            t0 = perf_counter()
            runtimes.append(ShardRuntime(spec, plan, i, collect_trace=False))
            rec.record(f"shard.build.{i}", t0, perf_counter())
        # The engine's rule for a plan without window_s: half the lookahead.
        window = min(rt.lookahead_s for rt in runtimes) / 2.0
        n_windows = int(math.ceil(until / window))
        inboxes: List[List[Any]] = [[] for _ in range(k)]
        critical_s = mean_s = 0.0
        for j in range(n_windows):
            t_end = min(until, (j + 1) * window)
            outboxes = []
            run_s = []
            for i, runtime in enumerate(runtimes):
                t0 = perf_counter()
                runtime.apply_handoffs(inboxes[i])
                t1 = perf_counter()
                out = runtime.run_window(t_end)
                t2 = perf_counter()
                blob = pickle.dumps(out)
                t3 = perf_counter()
                rec.record("shard.handoff_apply", t0, t1)
                rec.record("shard.window_run", t1, t2)
                rec.record("shard.handoff_pickle", t2, t3)
                rec.add_units("shard.handoff_pickle", len(blob))
                rec.add_units("shard.handoffs", len(out))
                run_s.append(t2 - t1)
                outboxes.append(out)
            critical_s += max(run_s)
            mean_s += sum(run_s) / k
            inboxes = [[] for _ in range(k)]
            for out in outboxes:
                for handoff in out:
                    inboxes[handoff[4]].append(handoff)
        payloads = [rt.collect() for rt in runtimes]
        inline_wall_s = perf_counter() - t_inline

        totals = rec.totals()
        build_s = max(totals[f"shard.build.{i}"][1] for i in range(k))
        apply_s = totals["shard.handoff_apply"][1]
        pickle_s = totals["shard.handoff_pickle"][1]
        counters: Dict[str, float] = {}
        for payload in payloads:
            for name, value in payload["counters"].items():
                counters[name] = counters.get(name, 0.0) + value
        events = sum(p["events_processed"] for p in payloads)
        spans_s = sum(row[1] for row in totals.values())
        layers = {
            "sim.events": events,
            "shard.build_s": build_s,
            "shard.windows": n_windows,
            "shard.window_run_s": critical_s,
            "shard.window_imbalance": 1.0 - mean_s / critical_s,
            "shard.lag_events": forked.metrics["shard.lag_events"]["value"],
            "shard.handoffs": rec.units.get("shard.handoffs", 0),
            "shard.handoff_apply_s": apply_s,
            "shard.handoff_pickle_s": pickle_s,
            "shard.handoff_pickle_bytes": rec.units.get("shard.handoff_pickle", 0),
            "shard.serial_wall_s": serial_wall_s,
            # On the round's one CPU: the serial run's work over the sharded
            # run's.  Two CPUs overlap the shards up to window_imbalance.
            "shard.speedup_vs_serial": serial_wall_s / fork_wall_s,
            "net.tx_attempts": counters.get("net.tx_attempts", 0.0),
            "net.tx_success_ratio": counters.get("net.tx_success", 0.0)
            / max(1.0, counters.get("net.tx_attempts", 0.0)),
            "trace.attributed_share": spans_s / inline_wall_s,
            "trace.overhead_ratio": inline_wall_s / fork_wall_s,
        }
        return layers, self._stats(events, counters, n_windows)


# -------------------------------------------------------- synthesis service


class _TimedBackend:
    """A composer passed in ``backends=`` that clocks every compose call.

    Composes run on the service's worker threads; ``list.append`` is atomic,
    and the spans go to the recorder from the main thread afterwards.
    """

    def __init__(self, inner: Any) -> None:
        self.inner = inner
        self.calls: List[Tuple[float, float]] = []

    def compose(self, requirements: Any, candidates: Any, topology: Any) -> Any:
        t0 = perf_counter()
        try:
            return self.inner.compose(requirements, candidates, topology)
        finally:
            self.calls.append((t0, perf_counter()))


#: Fixes the order of popularity ranks in ServiceChurn's query sequence.
RANK_ORDER_SEED = 20180702


class ServiceChurn(Workload):
    name = "service_churn_1k"
    why = (
        "SynthesisService over a 1k-asset SnapshotHub, 2 closed-loop clients, "
        "skewed goal popularity, node churn + hub.publish() on the clock: p50 is "
        "the cache-hit path, throughput is compose + publish"
    )
    work_unit = "queries"
    CLIENTS = 2
    FULL = dict(
        n_assets=1000, goals=6, goal_side=0.35, queries=1200, churn_every=600, churn_share=0.02
    )
    TINY = dict(
        n_assets=120, goals=3, goal_side=0.4, queries=60, churn_every=30, churn_share=0.02
    )

    def inputs(self, seed: int, tiny: bool = False) -> Dict[str, Any]:
        p = self.sizes(tiny)
        rng = np.random.default_rng([seed, 6])
        # Goal areas as fractions of the district: a fixed 3 x 2 tiling of
        # squares.  A compose costs by the candidates in its area, so areas
        # drawn from the seed made throughput follow the seed (46% spread
        # over ten seeds with drawn sizes, 25% with drawn places); the seed
        # still draws the inventory they are composed from.
        side = p["goal_side"]
        p["areas"] = [
            (x0, y0, side, side)
            for x0 in (0.0, (1.0 - side) / 2.0, 1.0 - side)
            for y0 in (0.0, 1.0 - side)
        ][: p["goals"]]
        # Popularity is Zipf-like: a few goals are almost always cached, and
        # every goal goes cold at every epoch.
        # The order in which popularity ranks are queried is the same for
        # every seed, like the 20 ms message clock of the unicast workloads;
        # the seed decides which goal holds which rank.  With two clients a
        # cold goal asked for twice at once is composed twice, so a drawn
        # order made the composes per round, and with them the throughput,
        # follow the seed (14-20 composes, 42% spread over ten seeds).
        weights = 1.0 / np.arange(1, p["goals"] + 1)
        ranks = np.random.default_rng(RANK_ORDER_SEED).choice(
            p["goals"], size=p["queries"], p=weights / weights.sum()
        )
        goal_of_rank = rng.permutation(p["goals"])
        p["sequence"] = [int(goal_of_rank[r]) for r in ranks]
        p["churn_seed"] = int(rng.integers(0, 2**31))
        p["seed"] = seed
        return p

    @staticmethod
    def _goals(region: Region, areas: List[Tuple[float, float, float, float]]) -> List[MissionGoal]:
        width = region.x_max - region.x_min
        height = region.y_max - region.y_min
        return [
            MissionGoal(
                MissionType.SURVEIL,
                Region(
                    region.x_min + x0 * width,
                    region.y_min + y0 * height,
                    region.x_min + (x0 + w) * width,
                    region.y_min + (y0 + h) * height,
                ),
                min_coverage=0.3,
                modalities=frozenset({SensingModality.SEISMIC, SensingModality.ACOUSTIC}),
            )
            for x0, y0, w, h in areas
        ]

    def round(self, inputs: Dict[str, Any], rec: Optional[SpanRecorder] = None) -> Round:
        backend = GreedyComposer() if rec is None else _TimedBackend(GreedyComposer())

        def build() -> Tuple[SnapshotHub, SynthesisService, List[MissionGoal]]:
            blocks = max(4, int(math.sqrt(inputs["n_assets"] / 2.0)))
            scenario = (
                ScenarioBuilder(Simulator(seed=inputs["seed"]))
                .urban_grid(blocks=blocks, block_size_m=100.0, density=0.4)
                .population(n_blue=inputs["n_assets"], n_red=0, n_gray=0)
                .build()
            )
            # min_refresh_s keeps lazy republishing out of the way: epochs
            # advance only at the churn steps below.
            hub = SnapshotHub(scenario.inventory, min_refresh_s=3600.0)
            hub.publish()
            service = SynthesisService(
                hub,
                backends={"greedy": backend},
                max_retries=0,
                max_concurrent=self.CLIENTS,
            )
            return hub, service, self._goals(scenario.region, inputs["areas"])

        setup_s, (hub, service, goals) = set_up(build)

        sequence = inputs["sequence"]
        network = hub.network
        churn_rng = np.random.default_rng(inputs["churn_seed"])
        latencies = [0.0] * len(sequence)
        outcomes: List[Any] = [None] * len(sequence)
        publishes: List[Tuple[float, float]] = []
        topology_builds: List[Tuple[float, float]] = []
        cursor = iter(range(len(sequence)))

        def churn_step() -> None:
            up = sorted(n.id for n in network.up_nodes())
            n_fail = max(1, int(len(up) * inputs["churn_share"]))
            for node_id in churn_rng.choice(up, size=n_fail, replace=False):
                network.fail_node(int(node_id))
            t0 = perf_counter()
            hub.publish()
            publishes.append((t0, perf_counter()))
            if rec is not None:
                # publish() calls build_topology through its own import, out
                # of a proxy's reach; the same build is clocked on its own.
                t0 = perf_counter()
                build_topology(network)
                topology_builds.append((t0, perf_counter()))

        async def client() -> None:
            for i in cursor:
                if i and i % inputs["churn_every"] == 0:
                    churn_step()
                query = SynthesisQuery(goal=goals[sequence[i]], deadline_s=60.0)
                t0 = perf_counter()
                outcomes[i] = await service.submit(query)
                latencies[i] = perf_counter() - t0

        async def drive() -> None:
            async with service:
                await asyncio.gather(*(client() for _ in range(self.CLIENTS)))

        wall_s, _ = timed(lambda: asyncio.run(drive()))

        answers = {
            (sequence[i], o.epoch): (o.answer["sink"], tuple(o.answer["sensors"]))
            for i, o in enumerate(outcomes)
            if o.answer is not None
        }
        status = [o.status.value for o in outcomes]
        hit_latencies = [latencies[i] for i, o in enumerate(outcomes) if o.cached]
        out = Round(
            setup_s=setup_s,
            wall_s=wall_s,
            work=len(sequence),
            attempted=len(sequence),
            failed=sum(1 for s in status if s != "ok"),
            stats={
                "answers": digest(sorted(answers.items())),
                "composed": len(answers),
                "epochs": hub.epoch,
            },
            extra={"latencies_s": latencies},
        )
        if rec is not None:
            for name, spans in (
                ("service.compose", backend.calls),
                ("service.publish", publishes),
                ("net.topology.build", topology_builds),
            ):
                for t0, t1 in spans:
                    rec.record(name, t0, t1)
            totals = rec.totals()
            compose_s = [t1 - t0 for t0, t1 in backend.calls]
            counters = service.stats()["counters"]
            out.layers = {
                "service.hit_ratio": len(hit_latencies) / len(sequence),
                "service.compose_calls": len(compose_s),
                "service.compose_s": sum(compose_s),
                "core.synthesis.compose_s_median": statistics.median(compose_s),
                "service.publish_calls": len(publishes),
                "service.publish_s": totals["service.publish"][1],
                "net.topology.build_s": totals["net.topology.build"][1],
                "service.hit_path_us": 1e6 * statistics.median(hit_latencies),
                "service.degraded": status.count("degraded"),
                "service.rejected": status.count("rejected"),
                "service.retries": counters.get("service.retries", 0.0),
                # Share of the clients' closed-loop time spent inside a
                # query or a publish; the rest is the load generator.
                "trace.attributed_share": (sum(latencies) + totals["service.publish"][1])
                / (self.CLIENTS * wall_s),
            }
        return out


# ----------------------------------------------------------------- campaign

CHAOS_NODES = 28


def chaos_task(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """bench_faults_reliability's task, re-declared: a multi-hop AODV line
    under churn, a 5% drop gremlin and one 60 s partition, one transport."""
    n, horizon = params["nodes"], params["horizon_s"]
    sim = Simulator(seed=seed)
    net = Network(sim, Channel(shadowing_sigma_db=0, fading_sigma_db=0, seed=seed))
    for i in range(1, n + 1):
        net.create_node(i, Point(i * 75.0, 0.0))
    injector = FaultInjector(net)
    injector.node_churn(mtbf_s=300.0, mean_downtime_s=60.0)
    injector.gremlin(drop_p=0.05)
    injector.partition_spatial(start_s=horizon / 3.0, duration_s=60.0)
    router = AodvRouter(net)
    router.attach_all(range(1, n + 1))
    if params["transport"] == "reliable":
        transport: Any = ReliableMessageService(router, base_rto_s=2.0, max_retries=7)
    else:
        transport = MessageService(router)
    rng = sim.rng.get("workload")
    send_until = horizon * 0.72  # leave the tail for retransmissions

    def tick() -> None:
        if sim.now > send_until:
            return
        a, b = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        transport.send(int(a), int(b))
        sim.call_in(float(rng.exponential(5.0)), tick)

    sim.call_in(float(rng.exponential(5.0)), tick)
    sim.run(until=horizon)
    return {
        "delivery_ratio": transport.delivery_ratio(),
        "events": sim.events_processed,
        "tx_attempts": sim.metrics.counter("net.tx_attempts"),
        "retransmits": sim.metrics.counter("transport.reliable.retransmit"),
        "injections": sim.registry.counter("faults.injections").value
        + sim.registry.counter("faults.crashes").value,
        "fingerprint": sim.trace.fingerprint(),
    }


class CampaignChaosSweep(Workload):
    name = "campaign_chaos_sweep"
    why = (
        "the faults-reliability sweep (28-node AODV line, 900 s chaos schedule, "
        "2 transports x seeds) through CampaignRunner(workers=2) with a "
        "ResultCache, cold then warm: what a user runs from EXPERIMENTS.md"
    )
    # Events, not tasks: what a task costs follows its chaos seed, what an
    # event costs does not.
    work_unit = "events"
    # Its tasks are independent, so two CPUs do twice the work of one (1.85x
    # measured) and a disturbed CPU slows only its own tasks; pinned, the
    # sweep spread no less (28% against 21% over ten seeds).
    pinned = False
    WORKERS = 2
    TRANSPORTS = ("fire_forget", "reliable")
    FULL = dict(nodes=CHAOS_NODES, horizon_s=900.0, seeds=5)
    TINY = dict(nodes=8, horizon_s=120.0, seeds=1)

    def inputs(self, seed: int, tiny: bool = False) -> Dict[str, Any]:
        p = self.sizes(tiny)
        rng = np.random.default_rng([seed, 7])
        p["task_seeds"] = tuple(int(s) for s in rng.integers(1, 2**31, p["seeds"]))
        return p

    def round(self, inputs: Dict[str, Any], rec: Optional[SpanRecorder] = None) -> Round:
        os.makedirs(WORK_DIR, exist_ok=True)
        cache_dir = tempfile.mkdtemp(dir=WORK_DIR)
        try:
            return self._round(inputs, cache_dir, rec is not None)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def _round(self, inputs: Dict[str, Any], cache_dir: str, traced: bool) -> Round:
        fixed = {"nodes": inputs["nodes"], "horizon_s": inputs["horizon_s"]}

        def build() -> Tuple[SweepSpec, CampaignRunner, Any]:
            spec = SweepSpec(
                name="ledger-chaos",
                grid={"transport": self.TRANSPORTS},
                fixed=fixed,
                seeds=inputs["task_seeds"],
            )
            runner = CampaignRunner(
                chaos_task,
                workers=self.WORKERS,
                cache=ResultCache(cache_dir),
                on_error="skip",
            )
            return spec, runner, spec.tasks()[0]

        setup_s, (spec, runner, first) = set_up(build)

        wall_s, cold = timed(lambda: runner.run(spec))
        warm_s, warm = timed(lambda: runner.run(spec))
        # The expected output of the sweep's first task, computed in this
        # process: a pool worker must return exactly the same dict.
        expected = chaos_task(first.config, first.seed)

        failed = cold.n_failed + cold.n_retried
        failed += sum(
            1
            for a, b in zip(cold.outcomes, warm.outcomes)
            if not b.cached or a.result != b.result
        )
        failed += int(cold.outcomes[0].result != expected)
        results = cold.results()
        out = Round(
            setup_s=setup_s,
            wall_s=wall_s,
            work=sum(r["events"] for r in results),
            attempted=2 * cold.n_tasks + 1,
            failed=failed,
            stats={
                "results": digest(results),
                "events": sum(r["events"] for r in results),
                "tx_attempts": int(sum(r["tx_attempts"] for r in results)),
                "delivery_ratio": statistics.fmean(r["delivery_ratio"] for r in results),
            },
            extra={"warm_rerun_s": warm_s, "tasks_per_s": cold.n_executed / wall_s},
        )
        if traced:
            tasks = cold.telemetry()["tasks"]
            worker_s = [t["worker_wall_s"] for t in tasks]
            out.layers = {
                "sim.events": out.stats["events"],
                "net.tx_attempts": out.stats["tx_attempts"],
                "net.transport.retransmits": sum(r["retransmits"] for r in results),
                "faults.injections": sum(r["injections"] for r in results),
                # Runner-side minus worker-side wall of the first task: the
                # pool forks its workers when that task is submitted.
                "campaign.pool_spinup_s": tasks[0]["wall_s"] - tasks[0]["worker_wall_s"],
                "campaign.task_wall_s_median": statistics.median(worker_s),
                "campaign.worker_busy_share": sum(worker_s) / (self.WORKERS * wall_s),
                "campaign.cache_hits": warm.n_cached,
                "campaign.retries": cold.n_retried,
                "trace.attributed_share": sum(worker_s) / (self.WORKERS * wall_s),
            }
        return out


WORKLOADS: Tuple[Workload, ...] = (
    GeoUnicast(),
    GeoUnicastTraced(),
    FloodBroadcast(),
    AodvMobileChurn(),
    ShardLocal(),
    ServiceChurn(),
    CampaignChaosSweep(),
)
