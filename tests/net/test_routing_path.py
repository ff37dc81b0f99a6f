"""Cross-router regression: self-delivery and path accounting consistency.

Every router must agree on two accounting contracts, because experiment
metrics (hop counts, path tomography) compare protocols against each other:

* a self-addressed packet is delivered locally with ``hops == 0`` and
  ``path == [src]`` — a router that broadcasts it instead leaves the
  sender never seeing its own message;
* a unicast across a quiet line network arrives with ``path`` listing every
  visited node in order (origin first, destination last) and ``hops ==
  len(path) - 1``.
"""

import pytest

from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.routing import (
    AodvRouter,
    EpidemicRouter,
    FloodingRouter,
    GreedyGeoRouter,
    SprayAndWaitRouter,
)
from repro.net.transport import MessageService
from repro.sim import Simulator
from repro.util.geometry import Point

ROUTERS = {
    "flooding": lambda net: FloodingRouter(net),
    "geo": lambda net: GreedyGeoRouter(net),
    "aodv": lambda net: AodvRouter(net),
    "epidemic": lambda net: EpidemicRouter(net, contact_period_s=1.0),
    "spray": lambda net: SprayAndWaitRouter(net, copies=8, contact_period_s=1.0),
}


def line_network(n, seed=1, spacing=100.0):
    """Comm range at default tx power is ~147 m, so spacing 100 puts only
    adjacent nodes in radio range: the 4-node line has exactly one route."""
    sim = Simulator(seed=seed)
    net = Network(
        sim, Channel(shadowing_sigma_db=0.0, fading_sigma_db=0.0, seed=seed)
    )
    for i in range(1, n + 1):
        net.create_node(i, Point(i * spacing, 0.0))
    return sim, net


@pytest.mark.parametrize("name", sorted(ROUTERS))
class TestSelfDelivery:
    def test_self_addressed_packet_is_delivered_locally(self, name):
        sim, net = line_network(4)
        router = ROUTERS[name](net)
        router.attach_all(range(1, 5))
        svc = MessageService(router)
        got = []
        svc.on_message(2, got.append)
        receipt = svc.send(2, 2, payload="note to self")
        sim.run(until=30.0)
        assert receipt.delivered, f"{name}: self-send must deliver"
        assert len(got) == 1, f"{name}: exactly one local delivery"
        pkt = got[0]
        assert pkt.hops == 0, f"{name}: self-delivery takes zero hops"
        assert pkt.path == [2], f"{name}: path is just the origin"
        assert receipt.latency_s == 0.0


@pytest.mark.parametrize("name", sorted(ROUTERS))
class TestPathAccounting:
    def test_unicast_path_is_ordered_and_consistent(self, name):
        sim, net = line_network(4)
        router = ROUTERS[name](net)
        router.attach_all(range(1, 5))
        svc = MessageService(router)
        got = []
        svc.on_message(4, got.append)
        receipt = svc.send(1, 4, payload="hi")
        sim.run(until=120.0)
        assert receipt.delivered, f"{name}: line unicast must deliver"
        pkt = got[0]
        # Path starts at the origin, ends at the destination, never
        # repeats a node on a quiet line, and hops matches its length.
        assert pkt.path[0] == 1, f"{name}: path starts at origin"
        assert pkt.path[-1] == 4, f"{name}: path ends at destination"
        assert len(set(pkt.path)) == len(pkt.path), f"{name}: no revisits"
        assert pkt.hops == len(pkt.path) - 1
        # On a 4-node line the only loop-free route is 1-2-3-4.
        assert pkt.path == [1, 2, 3, 4], f"{name}: shortest line route"
