"""Reference scenarios used to pin the transmit-path trace fingerprints.

These scenarios were run against the pre-refactor ``Network.send`` /
``Network.broadcast`` implementation (the hand-inlined transmit path that
predates :mod:`repro.net.stack`) and their trace fingerprints recorded in
``test_stack_fingerprint.py``.  The refactored layered dispatcher must
reproduce those fingerprints bit-for-bit: every RNG draw, every scheduled
delay, and every trace record (packet tracing included) has to happen in
exactly the same order at exactly the same virtual time.

Only stable public APIs are used, so the scenarios themselves are valid on
both sides of the refactor.
"""

from __future__ import annotations

from repro.faults.gremlin import PacketGremlin
from repro.net.channel import Channel
from repro.net.mobility import MobilityManager, RandomWaypoint
from repro.net.node import Network
from repro.net.routing import (
    AodvRouter,
    EpidemicRouter,
    FloodingRouter,
    GreedyGeoRouter,
    SprayAndWaitRouter,
)
from repro.net.transport import MessageService, ReliableMessageService
from repro.sim import Simulator
from repro.util.geometry import Point, Region

__all__ = ["FINGERPRINT_SCENARIOS"]


def _grid_network(sim: Simulator, n_side: int = 5, spacing: float = 60.0) -> Network:
    """A deterministic n_side x n_side grid with the default channel model."""
    channel = Channel(seed=sim.rng.seed)
    net = Network(sim, channel)
    node_id = 1
    for row in range(n_side):
        for col in range(n_side):
            net.create_node(node_id, Point(col * spacing, row * spacing))
            node_id += 1
    return net


def _traffic(sim, svc, node_ids, n_messages=24, start=1.0, gap=0.8):
    for i in range(n_messages):
        src = node_ids[(3 * i) % len(node_ids)]
        dst = node_ids[(7 * i + 5) % len(node_ids)]
        if dst == src:
            dst = node_ids[(dst + 1) % len(node_ids)]
        sim.call_at(
            start + i * gap,
            lambda s=src, d=dst, k=i: svc.send(s, d, payload=("m", k)),
        )


def _inject_faults(sim, net, node_ids):
    """Node churn, a link cut, and a packet gremlin — the full fault menu."""
    victim = node_ids[len(node_ids) // 2]
    sim.call_at(6.0, lambda: net.fail_node(victim))
    sim.call_at(14.0, lambda: net.restore_node(victim))
    a, b = node_ids[1], node_ids[2]
    sim.call_at(4.0, lambda: net.block_link(a, b))
    sim.call_at(16.0, lambda: net.unblock_link(a, b))
    gremlin = PacketGremlin(
        net,
        drop_p=0.05,
        duplicate_p=0.04,
        corrupt_p=0.03,
        delay_p=0.10,
        delay_mean_s=0.02,
    )
    sim.call_at(2.0, gremlin.launch)
    sim.call_at(18.0, gremlin.cease)


def scenario_flooding(seed: int = 11) -> str:
    sim = Simulator(seed=seed)
    sim.enable_packet_tracing()
    net = _grid_network(sim)
    ids = sorted(net.nodes)
    router = FloodingRouter(net)
    router.attach_all(ids)
    svc = MessageService(router)
    _traffic(sim, svc, ids, n_messages=12, gap=1.3)
    # Broadcast traffic exercises the batched (fan-out) path.
    for i in range(4):
        sim.call_at(2.5 + i * 3.0, lambda s=ids[i], k=i: svc.send(s, None, payload=k))
    _inject_faults(sim, net, ids)
    sim.run(until=30.0)
    return sim.trace.fingerprint()


def scenario_geo(seed: int = 13) -> str:
    sim = Simulator(seed=seed)
    sim.enable_packet_tracing()
    net = _grid_network(sim)
    ids = sorted(net.nodes)
    router = GreedyGeoRouter(net)
    router.attach_all(ids)
    svc = MessageService(router)
    _traffic(sim, svc, ids, n_messages=20, gap=0.9)
    _inject_faults(sim, net, ids)
    sim.run(until=30.0)
    return sim.trace.fingerprint()


def scenario_aodv_reliable(seed: int = 14) -> str:
    sim = Simulator(seed=seed)
    sim.enable_packet_tracing()
    net = _grid_network(sim)
    ids = sorted(net.nodes)
    router = AodvRouter(net)
    router.attach_all(ids)
    svc = ReliableMessageService(router, base_rto_s=2.0, max_retries=3)
    _traffic(sim, svc, ids, n_messages=18, gap=1.0)
    _inject_faults(sim, net, ids)
    sim.run(until=40.0)
    return sim.trace.fingerprint()


def scenario_epidemic_mobile(seed: int = 15) -> str:
    sim = Simulator(seed=seed)
    sim.enable_packet_tracing()
    net = _grid_network(sim, n_side=4, spacing=150.0)
    ids = sorted(net.nodes)
    router = EpidemicRouter(net, contact_period_s=2.0)
    router.attach_all(ids)
    mobility = MobilityManager(sim, net, update_period_s=1.0)
    region = Region(0.0, 0.0, 450.0, 450.0)
    for nid in ids:
        mobility.attach(nid, RandomWaypoint(net.node(nid).position, region,
                                            speed_range=(5.0, 15.0)))
    mobility.start()
    svc = MessageService(router)
    _traffic(sim, svc, ids, n_messages=10, gap=2.0)
    sim.run(until=40.0)
    return sim.trace.fingerprint()


def scenario_spray_wait_mobile(seed: int = 16) -> str:
    sim = Simulator(seed=seed)
    sim.enable_packet_tracing()
    net = _grid_network(sim, n_side=4, spacing=150.0)
    ids = sorted(net.nodes)
    router = SprayAndWaitRouter(net, copies=4, contact_period_s=2.0)
    router.attach_all(ids)
    mobility = MobilityManager(sim, net, update_period_s=1.0)
    region = Region(0.0, 0.0, 450.0, 450.0)
    for nid in ids:
        mobility.attach(nid, RandomWaypoint(net.node(nid).position, region,
                                            speed_range=(5.0, 15.0)))
    mobility.start()
    svc = MessageService(router)
    _traffic(sim, svc, ids, n_messages=10, gap=2.0)
    sim.run(until=40.0)
    return sim.trace.fingerprint()


#: name -> zero-arg callable returning the run's full trace fingerprint.
FINGERPRINT_SCENARIOS = {
    "flooding": scenario_flooding,
    "geo": scenario_geo,
    "aodv_reliable": scenario_aodv_reliable,
    "epidemic_mobile": scenario_epidemic_mobile,
    "spray_wait_mobile": scenario_spray_wait_mobile,
}


if __name__ == "__main__":
    for name, fn in FINGERPRINT_SCENARIOS.items():
        print(f'    "{name}": "{fn()}",')
