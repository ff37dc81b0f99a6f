"""Tests for connectivity-driven transport switching."""

import pytest

from repro.core.adaptation.comms import TransportSwitcher
from repro.errors import AdaptationError
from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.routing import AodvRouter, SprayAndWaitRouter
from repro.sim import Simulator
from repro.util.geometry import Point


def connected_world(seed=1):
    """Six nodes in a well-connected line."""
    sim = Simulator(seed=seed)
    net = Network(sim, Channel(shadowing_sigma_db=0, fading_sigma_db=0, seed=seed))
    for i in range(1, 7):
        net.create_node(i, Point(i * 30.0, 0.0))
    return sim, net


def make_switcher(net, node_ids, **kw):
    routers = {
        "mesh": AodvRouter(net),
        "dtn": SprayAndWaitRouter(net, copies=4, contact_period_s=2.0),
    }
    return TransportSwitcher(net, node_ids, routers, **kw)


class TestConstruction:
    def test_router_keys_validated(self):
        sim, net = connected_world()
        with pytest.raises(AdaptationError):
            TransportSwitcher(net, [1, 2], {"mesh": AodvRouter(net)})

    def test_empty_nodes_rejected(self):
        sim, net = connected_world()
        with pytest.raises(AdaptationError):
            make_switcher(net, [])

    def test_starts_in_mesh(self):
        sim, net = connected_world()
        switcher = make_switcher(net, list(range(1, 7)))
        assert switcher.current == "mesh"
        for i in range(1, 7):
            assert net.node(i).router is switcher.routers["mesh"]


class TestSwitching:
    def test_connected_stays_mesh(self):
        sim, net = connected_world()
        switcher = make_switcher(net, list(range(1, 7)))
        assert switcher.connectivity() == pytest.approx(1.0)
        switcher.check()
        assert switcher.current == "mesh"
        assert switcher.switches == 0

    def test_partition_triggers_dtn(self):
        sim, net = connected_world()
        switcher = make_switcher(net, list(range(1, 7)))
        # Break the middle: 1-3 | 4-6.
        net.set_position(4, Point(5000, 0))
        net.set_position(5, Point(5030, 0))
        net.set_position(6, Point(5060, 0))
        switcher.check()
        assert switcher.current == "dtn"
        assert switcher.switches == 1
        for i in range(1, 7):
            assert net.node(i).router is switcher.routers["dtn"]

    def test_healing_switches_back_with_hysteresis(self):
        sim, net = connected_world()
        switcher = make_switcher(net, list(range(1, 7)))
        net.set_position(6, Point(5000, 0))  # 5/6 connected = 0.833 < 0.9
        switcher.check()
        assert switcher.current == "dtn"
        net.set_position(6, Point(180, 0))   # healed
        switcher.check()
        assert switcher.current == "mesh"
        assert switcher.switches == 2

    def test_borderline_does_not_flap_back(self):
        sim, net = connected_world()
        switcher = make_switcher(
            net, list(range(1, 7)), partition_threshold=0.9, hysteresis=0.2
        )
        net.set_position(6, Point(5000, 0))
        switcher.check()
        assert switcher.current == "dtn"
        # Connectivity back to 5/6 = 0.833: below 0.9 + 0.2, stays DTN...
        # bring back node 6 => 1.0 which is < 1.1, ALSO stays DTN.
        net.set_position(6, Point(180, 0))
        switcher.check()
        assert switcher.current == "dtn"  # hysteresis holds it


class TestEndToEnd:
    def test_delivers_in_mesh_regime(self):
        sim, net = connected_world()
        switcher = make_switcher(net, list(range(1, 7)))
        receipt = switcher.send(1, 6)
        sim.run(until=60.0)
        assert receipt.delivered
        assert switcher.delivery_ratio() == 1.0

    def test_dtn_regime_delivers_across_partition_via_ferry(self):
        sim, net = connected_world(seed=3)
        # Partition with a ferry (node 3) shuttling between islands.
        net.set_position(4, Point(5000, 0))
        net.set_position(5, Point(5030, 0))
        net.set_position(6, Point(5060, 0))
        switcher = make_switcher(net, list(range(1, 7)))
        switcher.check()
        assert switcher.current == "dtn"

        def shuttle():
            pos = net.node(3).position
            net.set_position(3, Point(5000.0 - pos.x + 60.0, 0.0))

        sim.every(15.0, shuttle)
        receipt = switcher.send(1, 6)
        sim.run(until=300.0)
        assert receipt.delivered

    def test_handlers_survive_switch(self):
        sim, net = connected_world()
        switcher = make_switcher(net, list(range(1, 7)))
        got = []
        switcher.on_message(6, lambda p: got.append(p.payload))
        net.set_position(6, Point(5000, 0))
        switcher.check()  # -> dtn
        net.set_position(6, Point(180, 0))
        switcher.check()  # -> mesh again
        switcher.send(1, 6, payload="post-switch")
        sim.run(until=60.0)
        assert got == ["post-switch"]

    def test_periodic_monitoring(self):
        sim, net = connected_world()
        switcher = make_switcher(net, list(range(1, 7)), check_period_s=5.0)
        switcher.start()
        sim.call_at(12.0, lambda: net.set_position(6, Point(5000, 0)))
        sim.run(until=30.0)
        assert switcher.current == "dtn"
        assert sim.metrics.series("comms.connectivity").values
