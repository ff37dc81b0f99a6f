"""Crash-recovery lifecycle: a node that goes down and comes back must be
routable again, and routers must invalidate the state the crash made stale.
"""

import pytest

from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.routing import (
    AodvRouter,
    EpidemicRouter,
    FloodingRouter,
)
from repro.net.transport import MessageService
from repro.sim import Simulator
from repro.util.geometry import Point


def line_network(n, spacing=30.0, seed=1):
    sim = Simulator(seed=seed)
    channel = Channel(shadowing_sigma_db=0.0, fading_sigma_db=0.0, seed=seed)
    net = Network(sim, channel)
    for i in range(1, n + 1):
        net.create_node(i, Point(i * spacing, 0.0))
    return sim, net


class TestNodeStateListeners:
    def test_listener_sees_transitions(self):
        sim, net = line_network(3)
        seen = []
        net.on_node_state(lambda nid, up: seen.append((nid, up)))
        net.fail_node(2)
        net.restore_node(2)
        assert seen == [(2, False), (2, True)]

    def test_fail_and_restore_are_idempotent(self):
        sim, net = line_network(2)
        seen = []
        net.on_node_state(lambda nid, up: seen.append((nid, up)))
        net.fail_node(2)
        net.fail_node(2)  # re-failing a dead node must not double-fire
        net.restore_node(2)
        net.restore_node(2)
        assert seen == [(2, False), (2, True)]
        assert [r.category for r in net.sim.trace.records].count("net.node_down") == 1
        assert [r.category for r in net.sim.trace.records].count("net.node_up") == 1


@pytest.mark.parametrize("router_cls", [FloodingRouter, AodvRouter])
class TestFailRestoreRoundTrip:
    def test_restored_node_is_routable_again(self, router_cls):
        # 1 -- 2 -- 3: the middle relay dies, the far node is unreachable;
        # after restoration, traffic flows end-to-end again.
        sim, net = line_network(3, spacing=100.0)
        router = router_cls(net)
        router.attach_all(range(1, 4))
        svc = MessageService(router)

        net.fail_node(2)
        during = svc.send(1, 3)
        sim.run(until=30.0)
        assert not during.delivered

        net.restore_node(2)
        after = svc.send(1, 3)
        sim.run(until=90.0)
        assert after.delivered

    def test_restored_destination_receives(self, router_cls):
        sim, net = line_network(3, spacing=100.0)
        router = router_cls(net)
        router.attach_all(range(1, 4))
        svc = MessageService(router)

        net.fail_node(3)
        net.restore_node(3)
        receipt = svc.send(1, 3)
        sim.run(until=60.0)
        assert receipt.delivered


class TestAodvStateInvalidation:
    def test_routes_through_dead_node_are_purged(self):
        sim, net = line_network(4, spacing=100.0)
        router = AodvRouter(net)
        router.attach_all(range(1, 5))
        svc = MessageService(router)
        svc.send(1, 4)
        sim.run(until=30.0)
        # Discovery populated tables with routes through relays 2 and 3.
        assert any(
            entry.next_hop == 2
            for table in router._tables.values()
            for entry in table.values()
        )
        net.fail_node(2)
        for node_id, table in router._tables.items():
            for dst, entry in table.items():
                assert entry.next_hop != 2, (node_id, dst)
                assert dst != 2
        # The dead node's own RAM state is gone too.
        assert 2 not in router._tables
        assert 2 not in router._seen_rreq

    def test_rerouted_after_crash_and_restore(self):
        sim, net = line_network(5, spacing=100.0)
        router = AodvRouter(net)
        router.attach_all(range(1, 6))
        svc = MessageService(router)
        svc.send(1, 5)
        sim.run(until=30.0)
        net.fail_node(3)
        # Restore while route rediscovery is still retrying: the retry that
        # fires after the relay is back must find the path again.
        sim.call_at(33.0, lambda: net.restore_node(3))
        receipt = svc.send(1, 5)
        sim.run(until=120.0)
        assert receipt.delivered


class TestVolatileCacheLoss:
    def test_flooding_seen_cache_cleared_on_crash(self):
        sim, net = line_network(3)
        router = FloodingRouter(net)
        router.attach_all(range(1, 4))
        svc = MessageService(router)
        svc.send(1, 3)
        sim.run(until=30.0)
        assert router._seen.get(2)
        net.fail_node(2)
        assert 2 not in router._seen

    def test_dtn_store_lost_on_crash(self):
        sim, net = line_network(3, spacing=100.0)
        router = EpidemicRouter(net, contact_period_s=5.0)
        router.attach_all(range(1, 4))
        svc = MessageService(router)
        svc.send(1, 3)
        sim.run(until=12.0)  # a couple of sweeps: node 2 now carries a copy
        assert router._stores.get(2)
        net.fail_node(2)
        assert 2 not in router._stores
        assert sim.metrics.counter("route.epidemic.custody_lost") >= 1
