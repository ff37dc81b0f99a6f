"""Network.neighbors under random interleavings of topology and liveness changes.

The neighbour lists are cached in two tiers: geometric lists (everything in
range, up or down) that live until the next topology change, and up-only
lists filtered from them that a liveness flip drops.  The state machine
below drives every mutator in random order and, after each step, compares
both views against ``frozen_neighbors``: a scan over all nodes that uses
neither the cache nor the spatial grid.  Random floats never land a node
exactly on a cell border or exactly at another node's range limit, so two
rules place them there.  Mutations of ``Network`` this was shown to catch:
``<`` for ``<=`` in the scan, one of the nine cells dropped, and
``set_position`` leaving the old cell rows in place.

The transmit path keeps one more memo on top of those lists: the per-sender
fan-out row (``StackContext.fanout_row``: the live neighbours' nodes, plus
the delivery-probability vector ``PhyLayer.delivery_probability_batch``
leaves on it).  The same machine, with jammer rules added (roster edits and
the in-place ``active`` / ``power_dbm`` writes attack scenarios make), holds
every sender's row to ``frozen_neighbors``, to the frozen scalar chain
(``frozen_delivery_probability``) of each pair, bit for bit, and
``busy_neighbors`` to a direct sum.  Mutations of the row this was shown to
catch: the era keyed on ``topology_version`` alone (a liveness flip keeps
the row) and the vector read back without comparing ``jam_signature()``.

Under the row sit the unicast hop's answers: ``PhyLayer.delivery_probability``
(the pair cache, one era per ``topology_version`` and jam signature),
``PhyLayer.propagation_s`` and ``Channel.comm_range_m``.  Each is held to a
cache-free answer for every live ordered pair or node, and the pair cache to
its size cap; ``TestCappedPairCacheFuzz`` reruns the machine with the cap
at 1-5 so resets happen mid-run.  Mutations of the pair cache this was
shown to catch: the era without the jam term, the era without
``topology_version``, and the cap's reset skipped.
"""

import math

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.net import stack as stack_mod
from repro.net.channel import Jammer
from repro.net.node import Network
from repro.net.stack import SPEED_OF_LIGHT_M_S
from repro.sim import Simulator
from repro.util.geometry import Point
from tests.net.frozen_oracles import (
    frozen_comm_range_m,
    frozen_delivery_probability,
    frozen_neighbors,
)

coords = st.floats(-200.0, 500.0, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)
tx_powers = st.sampled_from([10.0, 17.5, 20.0])


class NeighborCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.network = Network(Simulator(seed=11))
        self.next_id = 0
        self.topology_version = 0
        self.liveness_version = 0

    def _some_node(self, data):
        return data.draw(st.sampled_from(sorted(self.network.nodes)), label="node")

    def _range_m(self, tx_power_dbm):
        network = self.network
        return network.channel.comm_range_m(
            tx_power_dbm, margin_db=-network.neighbor_margin_db
        )

    def _create(self, position, tx_power_dbm):
        self.network.create_node(self.next_id, position, tx_power_dbm=tx_power_dbm)
        self.next_id += 1
        self.topology_version += 1

    @rule(position=points, tx_power_dbm=tx_powers)
    def create_node(self, position, tx_power_dbm):
        self._create(position, tx_power_dbm)

    @rule(kx=st.integers(-1, 2), ky=st.integers(-1, 2), tx_power_dbm=tx_powers)
    def create_node_on_a_cell_border(self, kx, ky, tx_power_dbm):
        # A border of the grid as it stands (it moves only if this node's
        # range is the widest yet); a small multiple of the edge is exact.
        network = self.network
        if network._grid_dirty:
            network._rebuild_grid()
        cell = network._cell_size
        assert network._cell_of(Point(kx * cell, ky * cell)) == (kx, ky)
        self._create(Point(kx * cell, ky * cell), tx_power_dbm)

    @rule(y=coords, tx_power_dbm=tx_powers, other_power_dbm=tx_powers, flip=st.booleans())
    def create_pair_exactly_at_limit(self, y, tx_power_dbm, other_power_dbm, flip):
        # hypot(0.0 - limit, 0.0) == limit to the bit: in range under <= only.
        limit = self._range_m(tx_power_dbm)
        self._create(Point(0.0, y), tx_power_dbm)
        self._create(Point(-limit if flip else limit, y), other_power_dbm)

    @precondition(lambda self: self.network.nodes)
    @rule(data=st.data())
    def remove_node(self, data):
        self.network.remove_node(self._some_node(data))
        self.topology_version += 1

    @precondition(lambda self: self.network.nodes)
    @rule(data=st.data(), position=points)
    def set_position(self, data, position):
        self.network.set_position(self._some_node(data), position)
        self.topology_version += 1

    @precondition(lambda self: self.network.nodes)
    @rule(data=st.data(), position=points)
    def bulk_move_then_invalidate(self, data, position):
        # What MobilityManager does: write positions, then invalidate once.
        self.network.node(self._some_node(data)).position = position
        self.network.invalidate_topology()
        self.topology_version += 1

    @rule()
    def invalidate_topology(self):
        self.network.invalidate_topology()
        self.topology_version += 1

    @precondition(lambda self: self.network.nodes)
    @rule(data=st.data())
    def fail_node(self, data):
        node = self.network.node(self._some_node(data))
        self.liveness_version += node.up  # re-failing a down node is a no-op
        self.network.fail_node(node.id)
        assert not node.up

    @precondition(lambda self: self.network.nodes)
    @rule(data=st.data())
    def restore_node(self, data):
        node = self.network.node(self._some_node(data))
        self.liveness_version += not node.up
        self.network.restore_node(node.id)
        assert node.up

    @precondition(lambda self: self.network.nodes)
    @rule(data=st.data())
    def query(self, data):
        # Fills the caches between mutations, in either order of the views.
        node_id = self._some_node(data)
        include_down = data.draw(st.booleans(), label="include_down")
        self.network.neighbors(node_id, include_down=include_down)

    @rule(position=points, power_dbm=st.sampled_from([10.0, 30.0]))
    def add_jammer(self, position, power_dbm):
        self.network.channel.add_jammer(Jammer(position, power_dbm=power_dbm))

    @rule()
    def clear_jammers(self):
        self.network.channel.clear_jammers()

    @precondition(lambda self: self.network.channel.jammers)
    @rule(data=st.data(), retune=st.booleans())
    def edit_jammer_in_place(self, data, retune):
        jammer = data.draw(st.sampled_from(self.network.channel.jammers), label="jammer")
        if retune:
            jammer.power_dbm = 40.0 - jammer.power_dbm
        else:
            jammer.active = not jammer.active

    @precondition(lambda self: self.network.nodes)
    @rule(data=st.data(), in_flight=st.integers(0, 3))
    def set_queue_load(self, data, in_flight):
        self.network.node(self._some_node(data)).busy_tx = in_flight

    def _frozen_p(self, sender, receiver):
        return frozen_delivery_probability(
            self.network.channel,
            sender.tx_power_dbm,
            sender.position,
            receiver.position,
            sender.id,
            receiver.id,
        ).hex()

    def _assert_pair_cache_capped(self):
        # A batch refills at most one sender's live neighbours after a reset.
        bound = max(stack_mod._PAIR_CACHE_MAX, len(self.network.nodes) - 1)
        assert len(self.network.stack.phy._pair_cache) <= bound

    @invariant()
    def fanout_rows_match_oracles_they_did_not_write(self):
        network = self.network
        stack = network.stack
        for node_id in sorted(network.nodes):
            sender = network.nodes[node_id]
            expected = [network.nodes[i] for i in frozen_neighbors(network, node_id, False)]
            row = stack.ctx.fanout_row(sender)
            assert list(row) == expected
            probs = stack.phy.delivery_probability_batch(sender, row)
            assert probs is row.probs
            assert [float(p).hex() for p in probs] == [self._frozen_p(sender, n) for n in expected]
            assert stack.queue.busy_neighbors(sender) == sum(n.busy_tx for n in expected)
        self._assert_pair_cache_capped()

    @invariant()
    def unicast_answers_match_a_cache_free_world(self):
        network = self.network
        phy, channel = network.stack.phy, network.channel
        live = [network.nodes[i] for i in sorted(network.nodes) if network.nodes[i].up]
        margin_db = -network.neighbor_margin_db
        for sender in live:
            assert channel.comm_range_m(sender.tx_power_dbm, margin_db) == frozen_comm_range_m(
                channel, sender.tx_power_dbm, margin_db
            )
            for receiver in live:
                if receiver is sender:
                    continue
                assert phy.delivery_probability(sender, receiver).hex() == self._frozen_p(
                    sender, receiver
                )
                a, b = sender.position, receiver.position
                assert phy.propagation_s(sender, receiver) == (
                    math.hypot(a.x - b.x, a.y - b.y) / SPEED_OF_LIGHT_M_S
                )
        self._assert_pair_cache_capped()

    @invariant()
    def views_match_a_cache_free_scan(self):
        for node_id in sorted(self.network.nodes):
            for include_down in (False, True):
                assert self.network.neighbors(
                    node_id, include_down=include_down
                ) == frozen_neighbors(self.network, node_id, include_down)

    @invariant()
    def versions_count_every_change(self):
        assert self.network.topology_version == self.topology_version
        assert self.network.liveness_version == self.liveness_version


NeighborCacheMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestNeighborCacheFuzz = NeighborCacheMachine.TestCase


class CappedPairCacheMachine(NeighborCacheMachine):
    """The same machine with ``_PAIR_CACHE_MAX`` at 1-5."""

    _saved_cap = None

    @initialize(cap=st.integers(1, 5))
    def cap_the_pair_cache(self, cap):
        self._saved_cap = stack_mod._PAIR_CACHE_MAX
        stack_mod._PAIR_CACHE_MAX = cap

    def teardown(self):
        if self._saved_cap is not None:
            stack_mod._PAIR_CACHE_MAX = self._saved_cap


CappedPairCacheMachine.TestCase.settings = NeighborCacheMachine.TestCase.settings
TestCappedPairCacheFuzz = CappedPairCacheMachine.TestCase


def line_network(n=5, spacing_m=40.0):
    network = Network(Simulator(seed=3))
    for node_id in range(n):
        network.create_node(node_id, Point(spacing_m * node_id, 0.0))
    return network


def test_fail_node_keeps_geometric_lists_and_drops_up_only_ones():
    network = line_network()
    geometric = network.neighbors(1, include_down=True)
    up_only = network.neighbors(1)
    assert up_only == geometric and 2 in geometric

    network.fail_node(2)
    assert network.neighbors(1, include_down=True) is geometric
    assert network.neighbors(1) == [n for n in geometric if n != 2]

    network.restore_node(2)
    assert network.neighbors(1, include_down=True) is geometric
    assert network.neighbors(1) == geometric

    network.set_position(2, Point(5000.0, 0.0))
    assert 2 not in network.neighbors(1, include_down=True)
    assert network.neighbors(1, include_down=True) is not geometric


def test_version_counters_bump_once_per_real_transition():
    network = line_network()
    topology, liveness = network.topology_version, network.liveness_version
    network.fail_node(2)
    network.fail_node(2)  # idempotent
    assert (network.topology_version, network.liveness_version) == (topology, liveness + 1)
    network.restore_node(2)
    network.restore_node(2)
    assert (network.topology_version, network.liveness_version) == (topology, liveness + 2)
    network.neighbors(0)
    network.neighbors(0, include_down=True)
    assert (network.topology_version, network.liveness_version) == (topology, liveness + 2)
    network.set_position(0, Point(1.0, 1.0))
    network.invalidate_topology()
    network.remove_node(4)
    assert (network.topology_version, network.liveness_version) == (topology + 3, liveness + 2)


def test_a_pair_at_its_limit_is_found_across_two_cell_borders():
    """Found by the state machine: with cells exactly one range wide, a node a
    denormal below y = 0 and one at y = range sit in cell rows -1 and 1, two
    apart, while their distance rounds to exactly the range."""
    network = Network(Simulator(seed=11))
    limit = network.channel.comm_range_m(10.0, margin_db=-network.neighbor_margin_db)
    network.create_node(0, Point(0.0, -1.0011225260755786e-36), tx_power_dbm=10.0)
    network.create_node(1, Point(0.0, limit), tx_power_dbm=10.0)
    assert frozen_neighbors(network, 0, True) == [1]
    assert network.neighbors(0, include_down=True) == [1]
    assert network.neighbors(1, include_down=True) == [0]
