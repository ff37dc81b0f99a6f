"""Tests for topology snapshots."""

import math

import pytest

from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.topology import build_topology
from repro.sim import Simulator
from repro.util.geometry import Point


def make_net(positions, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, Channel(shadowing_sigma_db=0, fading_sigma_db=0, seed=seed))
    for i, pos in enumerate(positions, start=1):
        net.create_node(i, Point(*pos))
    return sim, net


class TestBuildTopology:
    def test_line_is_connected(self):
        sim, net = make_net([(i * 30, 0) for i in range(5)])
        topo = build_topology(net)
        assert topo.is_connected()
        assert topo.node_count == 5

    def test_islands_disconnect(self):
        sim, net = make_net([(0, 0), (30, 0), (5000, 0), (5030, 0)])
        topo = build_topology(net)
        assert not topo.is_connected()
        comps = topo.components()
        assert sorted(len(c) for c in comps) == [2, 2]
        assert topo.giant_component_fraction() == pytest.approx(0.5)

    def test_down_nodes_excluded(self):
        # 100 m spacing: endpoints are out of direct range, so losing the
        # middle node disconnects the line.
        sim, net = make_net([(0, 0), (100, 0), (200, 0)])
        net.fail_node(2)
        topo = build_topology(net)
        assert topo.node_count == 2
        assert not topo.is_connected()

    def test_edges_have_p_and_etx(self):
        sim, net = make_net([(0, 0), (25, 0)])
        topo = build_topology(net)
        data = topo.graph.edges[1, 2]
        assert 0 < data["p"] <= 1
        assert data["etx"] == pytest.approx(1.0 / data["p"])

    def test_min_probability_filters_weak_links(self):
        sim, net = make_net([(0, 0), (30, 0)])
        strict = build_topology(net, min_delivery_probability=0.999999)
        assert strict.edge_count == 0

    def test_shortest_path_prefers_quality(self):
        sim, net = make_net([(0, 0), (30, 0), (60, 0)])
        topo = build_topology(net)
        path = topo.shortest_path(1, 3)
        assert path is not None
        assert path[0] == 1 and path[-1] == 3
        assert topo.path_etx(path) >= 1.0

    def test_shortest_path_none_when_disconnected(self):
        sim, net = make_net([(0, 0), (5000, 0)])
        topo = build_topology(net)
        assert topo.shortest_path(1, 2) is None

    def test_empty_network(self):
        sim = Simulator()
        net = Network(sim, Channel(seed=0))
        topo = build_topology(net)
        assert topo.node_count == 0
        assert not topo.is_connected()
        assert topo.giant_component_fraction() == 0.0

    def test_degree_stats(self):
        sim, net = make_net([(0, 0), (30, 0), (60, 0)])
        stats = build_topology(net).degree_stats()
        assert stats["max"] >= stats["mean"] >= stats["min"]


class TestCandidateRule:
    """An edge needs ``p >= min_delivery_probability`` and a pair inside the
    lower id's margin-extended range; the higher id's range never counts."""

    @staticmethod
    def limit(net, power):
        return net.channel.comm_range_m(power, margin_db=-net.neighbor_margin_db)

    def test_p_exactly_at_the_threshold_is_an_edge(self):
        sim, net = make_net([(0, 0), (60, 0)])
        table = {}
        p = build_topology(net, link_p=table).graph.edges[1, 2]["p"]
        assert table == {1: {2: p}, 2: {}}
        assert build_topology(net, min_delivery_probability=p).graph.has_edge(1, 2)
        above = math.nextafter(p, 1.0)
        assert not build_topology(net, min_delivery_probability=above).graph.has_edge(1, 2)

    def test_a_pair_just_beyond_range_stays_unlinked_though_it_decodes(self):
        # At the margin-extended range mean SINR is 3 dB under the threshold,
        # so p = 1 / (1 + e**2) ~ 0.119 there: a hair further on p still
        # clears 0.1, but the pair is no candidate.
        sim, net = make_net([(0, 0), (0, 0)])
        reach = self.limit(net, 20.0)
        net.set_position(2, Point(reach * 1.001, 0.0))
        a, b = net.nodes[1], net.nodes[2]
        p = net.channel.delivery_probability(20.0, a.position, b.position, 1, 2)
        assert 0.1 <= p < 0.119
        table = {}
        topo = build_topology(net, link_p=table)
        assert topo.edge_count == 0 and table == {1: {}, 2: {}}
        assert net.neighbors(1) == [] and net.neighbors(2) == []

    @pytest.mark.parametrize("weak_id, strong_id, linked", [(1, 2, False), (2, 1, True)])
    def test_the_lower_id_range_decides_a_mixed_power_pair(self, weak_id, strong_id, linked):
        sim = Simulator(seed=1)
        net = Network(sim, Channel(shadowing_sigma_db=0, fading_sigma_db=0, seed=1))
        reach = self.limit(net, 10.0) * 1.001  # just beyond the weak node's range
        assert reach < self.limit(net, 20.0)
        net.create_node(weak_id, Point(0.0, 0.0), tx_power_dbm=10.0)
        net.create_node(strong_id, Point(reach, 0.0), tx_power_dbm=20.0)
        table = {}
        topo = build_topology(net, link_p=table)
        assert topo.graph.has_edge(1, 2) is linked
        if linked:
            # The weak end's transmission sets p, a hair under 0.119.
            assert 0.1 <= table[1][2] < 0.119
        else:
            assert table == {1: {}, 2: {}}
        assert net.neighbors(strong_id) == [weak_id] and net.neighbors(weak_id) == []
