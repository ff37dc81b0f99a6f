"""Unit tests for the layered stack and the component registry."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net import registry
from repro.net.channel import Channel
from repro.net.mac import ContentionMac, IdealMac, MacAccess
from repro.net.node import NetNode, Network
from repro.net.packet import Packet
from repro.net.registry import ComponentRegistry, StackSpec, compose
from repro.net.routing import (
    AodvRouter,
    EpidemicRouter,
    FloodingRouter,
    GossipRouter,
    GreedyGeoRouter,
    SprayAndWaitRouter,
)
from repro.net.stack import NetworkStack, RouterPort, TransportPort
from repro.net.transport import MessageService, ReliableMessageService
from repro.sim import Simulator
from repro.util.geometry import Point


def _line_network(sim, n=4, spacing=60.0):
    net = Network(sim, Channel(seed=sim.rng.seed))
    for i in range(n):
        net.create_node(i + 1, Point(i * spacing, 0.0))
    return net


class _CountingRng:
    """A generator stand-in that counts the draws made through it."""

    def __init__(self, rng):
        self.rng = rng
        self.draws = 0

    def exponential(self, scale):
        self.draws += 1
        return self.rng.exponential(scale)

    def random(self, *args):
        self.draws += 1
        return self.rng.random(*args)


class TestLayerProtocol:
    def test_mac_backends_satisfy_protocol(self):
        # What MacLayer.grant needs of a backend: access(busy, rng) -> MacAccess.
        for mac, draws in ((ContentionMac(), True), (IdealMac(), False)):
            rng = np.random.default_rng(3)
            before = rng.bit_generator.state
            access = mac.access(2, rng)
            assert isinstance(access, MacAccess)
            assert access.backoff_s >= 0.0 and 0.0 < access.collision_survival <= 1.0
            assert (rng.bit_generator.state != before) is draws
            with pytest.raises(AttributeError):
                access.backoff_s = 1.0
        # ContentionMac.access computes its pair in its own frame; the oracle
        # is the two public halves, called on a twin generator seeded alike.
        mac = ContentionMac()
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        counted = _CountingRng(rng)
        for k in (-3, 0, 1, 5, 20):
            backoff, survival = mac.access(k, counted)
            assert type(backoff) is float
            assert (backoff, survival) == (mac.access_delay(k, twin), mac.collision_survival(k))
            assert rng.bit_generator.state == twin.bit_generator.state
        assert counted.draws == 5
        ideal = _CountingRng(np.random.default_rng(8))
        IdealMac().access(5, ideal)
        assert ideal.draws == 0

    def test_routers_satisfy_router_port(self):
        sim = Simulator(seed=1)
        net = _line_network(sim)
        for cls in (
            FloodingRouter,
            GossipRouter,
            GreedyGeoRouter,
            AodvRouter,
            EpidemicRouter,
            SprayAndWaitRouter,
        ):
            router = cls(net)
            assert isinstance(router, RouterPort), cls.__name__

    def test_transports_satisfy_transport_port(self):
        sim = Simulator(seed=1)
        net = _line_network(sim)
        router = FloodingRouter(net)
        router.attach_all(sorted(net.nodes))
        assert isinstance(MessageService(router), TransportPort)
        assert isinstance(ReliableMessageService(router), TransportPort)

    def test_router_slot_is_typed(self):
        node = NetNode(1, Point(0, 0))
        assert node.router is None  # RouterPort slot starts empty


class TestNetworkStack:
    def test_network_builds_stack(self):
        sim = Simulator(seed=2)
        net = _line_network(sim)
        stack = net.stack
        assert isinstance(stack, NetworkStack)
        # The five layers the dispatcher calls, bottom-up.
        layers = (stack.phy, stack.mac, stack.queue, stack.faults, stack.app)
        assert [layer.name for layer in layers] == [
            "phy",
            "mac",
            "queue",
            "faults",
            "app",
        ]

    def test_every_layer_attached_once(self):
        sim = Simulator(seed=2)
        net = _line_network(sim)
        stack = net.stack
        for layer in (stack.phy, stack.mac, stack.queue, stack.faults, stack.app):
            assert layer.ctx is stack.ctx

    def test_fault_state_lives_in_fault_layer(self):
        sim = Simulator(seed=2)
        net = _line_network(sim)
        net.block_link(1, 2)
        assert net.stack.faults.link_blocked(1, 2)
        assert net.link_blocked(2, 1)  # unordered, via delegation
        net.unblock_link(1, 2)
        assert not net.link_blocked(1, 2)

    def test_unicast_delivers_between_neighbors(self):
        sim = Simulator(seed=3)
        net = _line_network(sim)
        router = FloodingRouter(net)
        router.attach_all(sorted(net.nodes))
        svc = MessageService(router)
        receipt = svc.send(1, 2, payload="x")
        sim.run(until=10.0)
        assert receipt.delivered


class TestRegistry:
    def test_default_components_registered(self):
        assert registry.names("router") == [
            "aodv",
            "epidemic",
            "flooding",
            "geo",
            "gossip",
            "spray_wait",
        ]
        assert registry.names("mac") == ["csma", "ideal"]
        assert registry.names("channel") == ["log_distance"]
        assert registry.names("transport") == ["basic", "reliable"]
        assert registry.names("mobility") == [
            "group",
            "manhattan",
            "random_waypoint",
            "static",
        ]

    def test_create_router_by_name(self):
        sim = Simulator(seed=4)
        net = _line_network(sim)
        router = registry.create("router", "gossip", net, forward_probability=0.6)
        assert isinstance(router, GossipRouter)
        assert router.forward_probability == 0.6

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ConfigurationError, match="flooding"):
            registry.create("router", "warp_drive")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            registry.create("antigravity", "x")

    def test_names_are_snake_case(self):
        reg = ComponentRegistry()
        with pytest.raises(ConfigurationError):
            reg.register("mac", "Fancy-MAC", IdealMac)

    def test_duplicate_name_rejected(self):
        reg = ComponentRegistry()
        reg.register("mac", "m", IdealMac)
        reg.register("mac", "m", IdealMac)  # same factory: idempotent
        with pytest.raises(ConfigurationError):
            reg.register("mac", "m", ContentionMac)


class TestStackSpec:
    def test_round_trips_through_config(self):
        spec = StackSpec(
            router="aodv",
            mac="ideal",
            transport="reliable",
            router_params={"max_discovery_retries": 2},
        )
        assert StackSpec.from_config(spec.as_config()) == spec

    def test_params_must_be_dicts(self):
        with pytest.raises(ConfigurationError):
            StackSpec(router="aodv", router_params=[1, 2])

    def test_compose_standalone(self):
        sim = Simulator(seed=5)
        spec = StackSpec(
            router="flooding", mac="ideal", channel="log_distance", transport="basic"
        )
        composed = compose(sim, spec)
        net = composed.network
        for i in range(3):
            net.create_node(i + 1, Point(i * 50.0, 0.0))
        composed.attach_all(sorted(net.nodes))
        assert isinstance(net.mac, IdealMac)
        assert composed.router.name == "flooding"
        for i in sorted(net.nodes):
            assert net.node(i).router is composed.router
        receipt = composed.transport.send(1, 2, payload="x")
        sim.run(until=10.0)
        assert receipt.delivered

    def test_compose_attaches_before_transport(self):
        # Transports install handlers on already-attached nodes at
        # construction; compose(attach=...) must order that correctly.
        sim = Simulator(seed=6)
        net = _line_network(sim)
        spec = StackSpec(router="flooding", transport="basic")
        composed = compose(sim, spec, network=net, attach=sorted(net.nodes))
        receipt = composed.transport.send(1, 2, payload="y")
        sim.run(until=10.0)
        assert receipt.delivered

    def test_attach_all_after_compose_delivers(self):
        # The README flow: compose first, create nodes after, then attach
        # through the composition — which must install transport handlers
        # (attaching on the router alone would leave the transport deaf).
        sim = Simulator(seed=7)
        spec = StackSpec(
            router="flooding", mac="csma", channel="log_distance", transport="basic"
        )
        composed = compose(sim, spec)
        net = composed.network
        for i in range(4):
            net.create_node(i + 1, Point(i * 50.0, 0.0))
        composed.attach_all(sorted(net.nodes))
        receipt = composed.transport.send(1, 4, payload="hi")
        sim.run(until=20.0)
        assert receipt.delivered

    def test_swapping_mac_changes_behavior_not_topology(self):
        def run(mac_name):
            sim = Simulator(seed=7)
            sim.enable_packet_tracing()
            net = _line_network(sim)
            spec = StackSpec(router="flooding", transport="basic")
            composed = compose(sim, spec, network=net, attach=sorted(net.nodes))
            # Replace the MAC grant backend via the layer slot.
            net.stack.mac.mac = registry.create("mac", mac_name)
            composed.transport.send(1, 4, payload="z")
            sim.run(until=15.0)
            return sim.trace.fingerprint()

        assert run("csma") != run("ideal")  # ideal consumes no backoff draws


class TestPacketAirtime:
    def test_transmission_delay_uses_packet_airtime(self):
        sim = Simulator(seed=8)
        net = _line_network(sim)
        node = net.node(1)
        pkt = Packet(src=1, dst=2, size_bits=4096)
        assert net.transmission_delay_s(node, pkt) == pkt.airtime_s(node.bitrate_bps)
