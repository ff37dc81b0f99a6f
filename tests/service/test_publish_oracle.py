"""SnapshotHub.publish against a from-scratch topology build, frozen here.

The hub carries neighbour-pair delivery probabilities from epoch to epoch
and drops them when ``(topology_version, jam_signature())`` changes.
``reference_build_topology`` is ``build_topology`` as it stood before the
table, the cell-row neighbour scan and the batched channel passes existed:
all-pairs geometry, and both directions of every neighbour pair computed on
every call from a generator constructed for that link (``frozen_oracles``:
it shares neither ``network.neighbors`` nor any channel memo with the code
it checks).  The state machine drives every mutator that can change a link
or its ends in random order and, after every publish, requires the hub's
graph to equal the reference's — node order, adjacency order, edge order
and every attribute.
"""

import networkx as nx
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.net.channel import Jammer
from repro.net.node import Network
from repro.net.topology import build_topology
from repro.service import SnapshotHub
from repro.sim import Simulator
from repro.things.asset import AssetInventory
from repro.util.geometry import Point
from tests.net.frozen_oracles import frozen_delivery_probability, frozen_neighbors

coords = st.floats(0.0, 400.0, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)
jammer_powers = st.sampled_from([-10.0, 10.0, 30.0])


def reference_build_topology(network, *, min_delivery_probability=0.1):
    graph = nx.Graph()
    nodes = network.up_nodes()
    for node in nodes:
        graph.add_node(node.id, pos=(node.position.x, node.position.y))
    channel = network.channel
    for node in nodes:
        for other_id in frozen_neighbors(network, node.id, include_down=False):
            if other_id <= node.id or other_id not in graph:
                continue
            other = network.node(other_id)
            p_fwd = frozen_delivery_probability(
                channel, node.tx_power_dbm, node.position, other.position, node.id, other.id
            )
            p_rev = frozen_delivery_probability(
                channel, other.tx_power_dbm, other.position, node.position, other.id, node.id
            )
            p = min(p_fwd, p_rev)
            if p >= min_delivery_probability:
                graph.add_edge(node.id, other_id, p=p, etx=1.0 / p)
    return graph


def layout(graph):
    """Everything about a graph that iteration can observe, order included."""
    return (
        list(graph.nodes(data=True)),
        {n: list(graph.adj[n]) for n in graph},
        list(graph.edges(data=True)),
    )


class PublishMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.network = Network(Simulator(seed=5))
        self.hub = SnapshotHub(AssetInventory(self.network), min_refresh_s=0.0)
        self.next_id = 0
        # A connected-ish start, so the first publishes already carry edges.
        for x in (0.0, 60.0, 120.0, 180.0):
            self._create(Point(x, 40.0))

    def _create(self, position):
        self.network.create_node(self.next_id, position)
        self.next_id += 1

    def _some_node(self, data):
        return data.draw(st.sampled_from(sorted(self.network.nodes)), label="node")

    def _some_jammer(self, data):
        jammers = self.network.channel.jammers
        return jammers[data.draw(st.integers(0, len(jammers) - 1), label="jammer")]

    @rule(position=points)
    def create_node(self, position):
        self._create(position)

    @precondition(lambda self: self.network.nodes)
    @rule(data=st.data())
    def remove_node(self, data):
        self.network.remove_node(self._some_node(data))

    @precondition(lambda self: self.network.nodes)
    @rule(data=st.data(), position=points)
    def set_position(self, data, position):
        self.network.set_position(self._some_node(data), position)

    @precondition(lambda self: self.network.nodes)
    @rule(data=st.data())
    def fail_node(self, data):
        self.network.fail_node(self._some_node(data))

    @precondition(lambda self: self.network.nodes)
    @rule(data=st.data())
    def restore_node(self, data):
        self.network.restore_node(self._some_node(data))

    @rule(position=points, power_dbm=jammer_powers)
    def add_jammer(self, position, power_dbm):
        self.network.channel.add_jammer(Jammer(position, power_dbm=power_dbm))

    @precondition(lambda self: self.network.channel.jammers)
    @rule(data=st.data())
    def flip_jammer_in_place(self, data):
        jammer = self._some_jammer(data)
        jammer.active = not jammer.active

    @precondition(lambda self: self.network.channel.jammers)
    @rule(data=st.data(), power_dbm=jammer_powers)
    def retune_jammer_in_place(self, data, power_dbm):
        self._some_jammer(data).power_dbm = power_dbm

    @rule()
    def clear_jammers(self):
        self.network.channel.clear_jammers()

    @precondition(lambda self: self.network.nodes)
    @rule(data=st.data())
    def churn_step(self, data):
        # What a churning world does between epochs: liveness flips only.
        flipped = data.draw(
            st.sets(st.sampled_from(sorted(self.network.nodes)), min_size=1, max_size=3),
            label="flipped",
        )
        for node_id in sorted(flipped):
            if self.network.node(node_id).up:
                self.network.fail_node(node_id)
            else:
                self.network.restore_node(node_id)
        self.publish()

    @rule()
    def publish(self):
        published = self.hub.publish().topology.graph
        assert layout(published) == layout(reference_build_topology(self.network))


PublishMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestPublishOracle = PublishMachine.TestCase


def test_build_without_a_table_is_the_reference_build():
    network = Network(Simulator(seed=9))
    for i in range(30):
        network.create_node(i, Point(37.0 * (i % 6), 41.0 * (i // 6)))
    network.fail_node(7)
    network.channel.add_jammer(Jammer(Point(90.0, 80.0), power_dbm=10.0))
    assert layout(build_topology(network).graph) == layout(
        reference_build_topology(network)
    )


def test_a_kept_table_answers_for_links_whose_ends_come_back():
    network = Network(Simulator(seed=9))
    for i in range(12):
        network.create_node(i, Point(45.0 * i, 0.0))
    table = {}
    network.fail_node(5)
    build_topology(network, link_p=table)
    assert 5 not in table[4]  # down at the time: never measured
    network.restore_node(5)
    network.fail_node(2)
    rebuilt = build_topology(network, link_p=table).graph
    assert layout(rebuilt) == layout(reference_build_topology(network))
    assert table[4][5] == rebuilt.edges[4, 5]["p"]
