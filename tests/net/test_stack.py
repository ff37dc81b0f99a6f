"""Unit tests for the layered stack and the component registry."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net import registry
from repro.net.channel import Channel
from repro.net.mac import ContentionMac, MacAccess
from repro.net.node import NetNode, Network
from repro.net.registry import StackSpec, compose
from repro.net.routing import (
    AodvRouter,
    EpidemicRouter,
    FloodingRouter,
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
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        access = ContentionMac().access(2, rng)
        assert isinstance(access, MacAccess)
        assert access.backoff_s >= 0.0 and 0.0 < access.collision_survival <= 1.0
        assert rng.bit_generator.state != before
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

    def test_routers_satisfy_router_port(self):
        sim = Simulator(seed=1)
        net = _line_network(sim)
        for cls in (
            FloodingRouter,
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
        registry.factory("router", "flooding")  # loads the built-in modules
        assert {kind: sorted(table) for kind, table in registry._TABLES.items()} == {
            "channel": ["log_distance"],
            "mac": ["csma"],
            "router": ["aodv", "epidemic", "flooding", "geo", "spray_wait"],
            "transport": ["basic", "reliable"],
        }

    def test_create_router_by_name(self):
        sim = Simulator(seed=4)
        net = _line_network(sim)
        router = registry.create("router", "aodv", net, max_discovery_retries=5)
        assert isinstance(router, AodvRouter)
        assert router.max_discovery_retries == 5

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ConfigurationError, match="flooding"):
            registry.create("router", "warp_drive")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            registry.create("antigravity", "x")

    def test_names_are_snake_case(self):
        with pytest.raises(ConfigurationError):
            registry.register("mac", "Fancy-MAC", ContentionMac)

    def test_duplicate_name_rejected(self):
        registry.register("mac", "csma", ContentionMac)  # same factory: idempotent
        with pytest.raises(ConfigurationError):
            registry.register("mac", "csma", MacAccess)


class TestStackSpec:
    def test_params_must_be_dicts(self):
        with pytest.raises(ConfigurationError):
            StackSpec(router="aodv", router_params=[1, 2])

    def test_compose_standalone(self):
        sim = Simulator(seed=5)
        spec = StackSpec(
            router="flooding",
            mac="csma",
            channel="log_distance",
            transport="basic",
            mac_params={"collision_rho": 0.1},
        )
        composed = compose(sim, spec)
        net = composed.network
        for i in range(3):
            net.create_node(i + 1, Point(i * 50.0, 0.0))
            composed.transport.attach(i + 1)
        assert net.mac == ContentionMac(collision_rho=0.1)
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
        # through the transport — which installs its handlers and attaches
        # the router (attaching on the router alone would leave the
        # transport deaf).
        sim = Simulator(seed=7)
        spec = StackSpec(
            router="flooding", mac="csma", channel="log_distance", transport="basic"
        )
        composed = compose(sim, spec)
        net = composed.network
        for i in range(4):
            net.create_node(i + 1, Point(i * 50.0, 0.0))
            composed.transport.attach(i + 1)
        receipt = composed.transport.send(1, 4, payload="hi")
        sim.run(until=20.0)
        assert receipt.delivered

    def test_swapping_mac_changes_behavior_not_topology(self):
        def run(mac_params):
            sim = Simulator(seed=7)
            sim.enable_packet_tracing()
            net = _line_network(sim)
            spec = StackSpec(router="flooding", transport="basic")
            composed = compose(sim, spec, network=net, attach=sorted(net.nodes))
            # Replace the MAC grant backend via the layer slot.
            net.stack.mac.mac = registry.create("mac", "csma", **mac_params)
            composed.transport.send(1, 4, payload="z")
            sim.run(until=15.0)
            return sim.trace.fingerprint()

        assert run({}) != run({"mean_backoff_slots": 1.0})  # shorter backoffs

