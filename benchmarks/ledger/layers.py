"""Where the proxies go on a simulator world, and what they add up to.

:func:`instrument` installs :class:`~benchmarks.ledger.spans.SpanRecorder`
proxies on the layer instances reachable through public attributes of one
world; :func:`sim_layer_metrics` turns the recorded spans, the kernel
profiler and the registry counters into the per-layer metrics named in
``BENCHMARK.json``.  Every ``*_s`` layer metric is a *self* time: a span's
duration minus its child spans, so the layers add up to (at most) the run.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from benchmarks.ledger.spans import SpanRecorder

#: Kernel-profiler label prefix -> the layer an event callback's own time
#: belongs to.  Labels are qualnames of the callbacks ``src/`` schedules;
#: anything unlisted is reported under ``other`` and lowers
#: ``trace.attributed_share`` instead of being guessed at.
EVENT_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("FastPathDispatcher.unicast", "net.dispatch.unicast"),
    ("FastPathDispatcher.broadcast", "net.dispatch.broadcast"),
    # MobilityManager.start() is the only Simulator.every() user in the
    # ledger's worlds, so the recurring tick is the mobility sweep.
    ("Simulator.every", "net.mobility.sweep"),
    ("NodeChurnFault", "faults.inject"),
    ("PartitionFault", "faults.inject"),
    ("PacketGremlin", "faults.inject"),
    ("Fault.", "faults.inject"),
    ("AodvRouter", "net.routing.timer"),
    ("GreedyGeoRouter", "net.routing.timer"),
    ("FloodingRouter", "net.routing.timer"),
    ("ReliableMessageService", "net.transport.timer"),
    ("inject_traffic", "harness.inject"),
)

#: Spans that are the harness's own work, not a layer of the program.
HARNESS_SPANS = ("harness.inject@event", "other@event")


def layer_of_label(label: str) -> str:
    for prefix, layer in EVENT_LAYERS:
        if label.startswith(prefix):
            return layer
    return "other"


def instrument(world: Any, rec: SpanRecorder) -> None:
    """Install the timing proxies on one simulator world's instances."""
    sim, net = world.sim, world.net
    stack = net.stack
    rec.hook_kernel(sim, layer_of_label)
    # call_in, call_at, timeout and every() reach the queue through
    # self.schedule, so these two proxies see each scheduled entry once.
    for attr in ("schedule", "call_in_fast"):
        rec.wrap(sim, attr, "sim.schedule")
    rec.wrap(
        stack.dispatcher,
        "unicast",
        "net.dispatch.unicast",
        callback=(3, "net.routing.on_result"),
    )
    rec.wrap(stack.dispatcher, "broadcast", "net.dispatch.broadcast")
    rec.wrap(stack.phy, "delivery_probability", "net.phy.prob", units_of=lambda a: 1)
    rec.wrap(
        stack.phy,
        "delivery_probability_batch",
        "net.phy.prob_batch",
        units_of=lambda a: len(a[1]),
    )
    channel = stack.phy.channel
    rec.wrap(channel, "delivery_probability", "net.phy.channel", units_of=lambda a: 1)
    rec.wrap(
        channel,
        "delivery_probability_batch",
        "net.phy.channel",
        units_of=lambda a: len(a[2]),
    )
    rec.wrap(channel, "delivery_verdicts", "net.phy.verdict")
    rec.wrap(stack.mac, "grant", "net.mac.grant")
    rec.wrap(stack.queue, "busy_neighbors", "net.queue.busy")
    rec.wrap(net, "neighbors", "net.topology.neighbors")
    rec.wrap(stack.faults, "link_blocked", "net.faults.verdict")
    rec.wrap(stack.faults, "gremlin_verdict", "net.faults.verdict")
    rec.wrap(world.router, "send", "net.routing.send")
    rec.wrap(world.router, "on_receive", "net.routing.on_receive")
    rec.wrap(world.transport, "send", "net.transport.send")
    rec.wrap(stack.app, "deliver", "net.app.deliver")
    tracer = sim.packet_tracer
    if tracer is not None:
        for attr in (
            "stamp_origin", "on_enqueue", "on_rx", "on_drop", "on_drops",
            "drop_unsent", "on_retransmit", "on_route_drop", "on_deliver",
        ):
            rec.wrap(tracer, attr, "obs.tracer")


def sim_layer_metrics(world: Any, rec: SpanRecorder, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced simulator run that took ``wall_s``."""
    sim = world.sim
    totals = rec.totals()

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0, 0.0))[2] for name in names)

    counter = sim.metrics.counter
    registry = sim.registry
    units = rec.units
    tx_attempts = counter("net.tx_attempts")
    router_name = world.router.name
    phy_pairs = units.get("net.phy.prob", 0) + units.get("net.phy.prob_batch", 0)
    batch_calls = calls("net.phy.prob_batch")
    # FloodingRouter keeps its PacketPool private; the pool's counters are
    # the public part (net/pool.py documents them for benchmarks).
    pool = getattr(world.router, "_pool", None)
    run_self_s = wall_s - sim.profiler.total_s - rec.hook_s
    layer_s = run_self_s + sum(
        row[2] for name, row in totals.items() if name not in HARNESS_SPANS
    )
    return {
        "sim.events": sim.events_processed,
        "sim.events_fast_share": sim.events_fast / max(1, sim.events_processed),
        "sim.queue_peak_len": rec.queue_peak,
        "sim.run_self_s": run_self_s,
        "sim.schedule_calls": calls("sim.schedule"),
        "sim.schedule_s": self_s("sim.schedule"),
        "net.dispatch.unicast_calls": calls("net.dispatch.unicast"),
        "net.dispatch.unicast_self_s": self_s(
            "net.dispatch.unicast", "net.dispatch.unicast@event"
        ),
        "net.dispatch.broadcast_calls": calls("net.dispatch.broadcast"),
        "net.dispatch.broadcast_self_s": self_s(
            "net.dispatch.broadcast", "net.dispatch.broadcast@event"
        ),
        "net.phy.prob_calls": calls("net.phy.prob") + batch_calls,
        "net.phy.prob_s": self_s("net.phy.prob", "net.phy.prob_batch"),
        "net.phy.batch_width_mean": units.get("net.phy.prob_batch", 0)
        / max(1, batch_calls),
        "net.phy.channel_calls": units.get("net.phy.channel", 0),
        "net.phy.pair_hit_ratio": 1.0
        - units.get("net.phy.channel", 0) / max(1, phy_pairs),
        "net.phy.channel_s": self_s("net.phy.channel"),
        "net.phy.verdict_s": self_s("net.phy.verdict"),
        "net.mac.grant_calls": calls("net.mac.grant"),
        "net.mac.grant_s": self_s("net.mac.grant"),
        "net.queue.busy_calls": calls("net.queue.busy"),
        "net.queue.busy_s": self_s("net.queue.busy"),
        "net.topology.neighbors_calls": calls("net.topology.neighbors"),
        "net.topology.neighbors_s": self_s("net.topology.neighbors"),
        "net.mobility.sweeps": calls("net.mobility.sweep@event"),
        "net.mobility.sweep_s": self_s("net.mobility.sweep@event"),
        "net.faults.verdict_s": self_s("net.faults.verdict"),
        "faults.injections": calls("faults.inject@event"),
        "faults.inject_s": self_s("faults.inject@event"),
        "net.routing.send_s": self_s(
            "net.routing.send", "net.routing.on_result", "net.routing.timer@event"
        ),
        "net.routing.on_receive_calls": calls("net.routing.on_receive"),
        "net.routing.on_receive_s": self_s("net.routing.on_receive"),
        "net.routing.control_share": registry.counter(
            f"route.{router_name}.control_tx"
        ).value
        / max(1.0, registry.counter("net.tx").value),
        "net.transport.send_s": self_s(
            "net.transport.send", "net.transport.timer@event"
        ),
        "net.transport.retransmits": counter("transport.reliable.retransmit"),
        "net.app.deliver_calls": calls("net.app.deliver"),
        "net.app.deliver_s": self_s("net.app.deliver"),
        "net.tx_attempts": tx_attempts,
        "net.tx_success_ratio": counter("net.tx_success") / max(1.0, tx_attempts),
        "net.pool.reuse_ratio": (
            pool.reused / max(1, pool.released) if pool is not None else 0.0
        ),
        "obs.tracer_calls": calls("obs.tracer"),
        "obs.tracer_s": self_s("obs.tracer"),
        "obs.records": len(sim.trace),
        "obs.dropped": sim.trace.dropped,
        "trace.attributed_share": layer_s / wall_s,
    }
