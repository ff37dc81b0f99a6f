"""Fault injection: churn, link flaps, partitions, schedule composition."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FaultInjector,
    LinkFlapFault,
    NodeChurnFault,
    PacketGremlin,
    PartitionFault,
    fault_windows,
)
from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.packet import Packet, PacketKind
from repro.net.routing import FloodingRouter
from repro.net.transport import MessageService
from repro.sim import Simulator
from repro.util.geometry import Point


def line_network(n, spacing=100.0, seed=1):
    sim = Simulator(seed=seed)
    channel = Channel(shadowing_sigma_db=0.0, fading_sigma_db=0.0, seed=seed)
    net = Network(sim, channel)
    for i in range(1, n + 1):
        net.create_node(i, Point(i * spacing, 0.0))
    return sim, net


class TestNodeChurn:
    def test_churn_crashes_and_restarts(self):
        sim, net = line_network(10)
        fault = NodeChurnFault(net, mtbf_s=20.0, mean_downtime_s=5.0)
        fault.schedule(0.0, duration_s=300.0)
        sim.run(until=400.0)
        assert fault.crashes > 0
        assert fault.restarts > 0
        assert [r.category for r in sim.trace.records].count("fault.crash") == fault.crashes
        # Ceasing the window restored everything it took down.
        assert all(node.up for node in net.nodes.values())

    def test_cease_restores_downed_nodes(self):
        sim, net = line_network(6)
        fault = NodeChurnFault(net, mtbf_s=5.0, mean_downtime_s=1e6)
        fault.schedule(0.0, duration_s=60.0)
        sim.run(until=59.0)
        assert any(not node.up for node in net.nodes.values())
        sim.run(until=70.0)
        assert all(node.up for node in net.nodes.values())

    def test_down_time_parameters_validated(self):
        sim, net = line_network(2)
        with pytest.raises(ConfigurationError):
            NodeChurnFault(net, mtbf_s=0.0)

    def test_churn_respects_target_set(self):
        sim, net = line_network(6)
        fault = NodeChurnFault(net, [1, 2], mtbf_s=2.0, mean_downtime_s=1e6)
        fault.schedule(0.0)
        sim.run(until=100.0)
        for node_id, node in net.nodes.items():
            if node_id not in (1, 2):
                assert node.up


class TestLinkFlap:
    def test_explicit_link_flaps_block_traffic(self):
        sim, net = line_network(3)
        fault = LinkFlapFault(net, [(1, 2)], mtbf_s=0.5, mean_downtime_s=1e6)
        fault.schedule(0.0)
        router = FloodingRouter(net)
        router.attach_all(range(1, 4))
        svc = MessageService(router)
        sim.run(until=30.0)  # let the flap fire first
        assert net.link_blocked(1, 2)
        receipt = svc.send(1, 3)
        sim.run(until=60.0)
        assert not receipt.delivered

    def test_heal_restores_link(self):
        sim, net = line_network(3)
        fault = LinkFlapFault(net, [(1, 2)], mtbf_s=1.0, mean_downtime_s=1e6)
        fault.schedule(0.0, duration_s=30.0)
        sim.run(until=60.0)
        assert not net.link_blocked(1, 2)
        assert fault.flaps >= 1

    def test_sampled_links_come_from_topology(self):
        sim, net = line_network(5)
        fault = LinkFlapFault(net, n_links=3, mtbf_s=10.0, mean_downtime_s=5.0)
        fault.schedule(0.0)
        sim.run(until=1.0)
        for a, b in fault._targets:
            assert b in net.neighbors(a, include_down=True) or a == b


class TestPartition:
    def test_partition_blocks_cross_groups_only(self):
        sim, net = line_network(4)
        fault = PartitionFault(net, [[1, 2], [3, 4]])
        fault.launch()
        assert net.link_blocked(2, 3)
        assert not net.link_blocked(1, 2)
        assert not net.link_blocked(3, 4)
        fault.cease()
        assert not net.link_blocked(2, 3)

    def test_partition_stops_delivery_then_heals(self):
        sim, net = line_network(4)
        PartitionFault(net, [[1, 2], [3, 4]]).schedule(0.0, duration_s=50.0)
        router = FloodingRouter(net)
        router.attach_all(range(1, 5))
        svc = MessageService(router)
        blocked = svc.send(1, 4)
        sim.run(until=40.0)
        assert not blocked.delivered
        sim.run(until=60.0)
        after = svc.send(1, 4)
        sim.run(until=120.0)
        assert after.delivered

    def test_spatial_split_covers_population(self):
        sim, net = line_network(6)
        fault = PartitionFault.split_spatial(net)
        assert sorted(fault.mapping) == sorted(net.nodes)
        assert set(fault.mapping.values()) == {0, 1}

    def test_single_group_rejected(self):
        sim, net = line_network(3)
        with pytest.raises(ConfigurationError):
            PartitionFault(net, [[1, 2, 3]])
        with pytest.raises(ConfigurationError):
            PartitionFault(net, [[1, 2], [2, 3]])  # overlapping groups


class TestScheduleAndInjector:
    def test_injector_facade_builds_chaos(self):
        sim, net = line_network(8)
        injector = FaultInjector(net)
        churn = injector.node_churn(mtbf_s=20.0, mean_downtime_s=5.0)
        injector.partition_spatial(start_s=30.0, duration_s=20.0)
        injector.gremlin(drop_p=0.5)
        sim.run(until=200.0)
        assert churn.crashes > 0
        assert len(injector.schedule.entries) == 3
        windows = fault_windows(sim.trace, until=sim.now)
        assert set(windows) == {"node_churn", "partition", "gremlin"}
        start, end = windows["partition"][0]
        assert (start, end) == (30.0, 50.0)

    def test_injector_recovery_metrics(self):
        sim, net = line_network(10)
        injector = FaultInjector(net)
        injector.node_churn(mtbf_s=20.0, mean_downtime_s=5.0)
        sim.run(until=300.0)
        assert injector.mttr() > 0.0
        availability = injector.availability()
        assert 0.0 < availability < 1.0


class TestGremlinScope:
    @staticmethod
    def deliveries(**knobs):
        """Every reception of a few unicasts and broadcasts on a line, with
        a ``drop_p=1`` gremlin scoped by ``knobs`` (none: no gremlin)."""
        sim, net = line_network(4, spacing=60.0)
        gremlin = PacketGremlin(net, drop_p=1.0, **knobs) if knobs else None
        if gremlin is not None:
            gremlin.launch()
        seen = []
        net.add_sniffer(lambda packet, a, b: seen.append((a, b)))
        for i in range(1, 4):
            net.send(i, i + 1, Packet(src=i, dst=i + 1, kind=PacketKind.DATA))
            net.broadcast(i + 1, Packet(src=i + 1, dst=None, kind=PacketKind.DATA))
        sim.run(until=5.0)
        return seen, gremlin

    @pytest.mark.parametrize("scope", ["kinds", "links"])
    def test_an_empty_scope_targets_no_traffic(self, scope):
        baseline, _ = self.deliveries()
        assert len(baseline) >= 6
        everything, _ = self.deliveries(**{scope: None})
        assert everything == []
        scoped, gremlin = self.deliveries(**{scope: []})
        assert scoped == baseline
        assert gremlin.counts.judged == 0
