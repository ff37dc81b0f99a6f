"""TopologySnapshot.paths_to: one min-ETX tree per destination, memoised;
and its connectivity queries against networkx on worlds built from scratch."""

import hashlib
import math
import sys
import threading

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import topology as topology_module
from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.topology import TopologySnapshot, build_topology
from repro.sim import Simulator
from repro.util.geometry import Point


def geometric_snapshot(seed, n_nodes, field_m):
    """A random geometric graph weighted by the default channel's ETX."""
    rng = np.random.default_rng(seed)
    network = Network(Simulator(seed=seed))
    for node_id in range(n_nodes):
        network.create_node(node_id, Point(*rng.uniform(0.0, field_m, 2)))
    return build_topology(network)


def lattice_snapshot(side=7):
    """A unit-weight grid: almost every pair has several equal-ETX paths."""
    grid = nx.convert_node_labels_to_integers(nx.grid_2d_graph(side, side))
    nx.set_edge_attributes(grid, 1.0, "etx")
    return TopologySnapshot(graph=grid, time=0.0)


def networkx_tree(snap, dst):
    """networkx's own min-ETX paths into ``dst``, each reversed to run source first."""
    rooted = nx.single_source_dijkstra_path(snap.graph, dst, weight="etx")
    return {src: path[::-1] for src, path in rooted.items()}


#: Every destination's tree on the unit lattices, as networkx 3.6 breaks ties:
#: blake2b-8 of ``repr([(dst, sorted(tree.items())) for dst in graph])``.
LATTICE_TREES = {7: "15cda539e60ddf1b", 9: "546b6903378e1bf1"}


@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(2, 40),
    field_m=st.sampled_from([300.0, 700.0, 1500.0]),  # dense to fragmented
)
@settings(max_examples=60, deadline=None)
def test_tree_agrees_with_pairwise_shortest_paths(seed, n_nodes, field_m):
    snap = geometric_snapshot(seed, n_nodes, field_m)
    dst = seed % n_nodes
    tree = snap.paths_to(dst)
    for src in snap.graph:
        # Continuous positions: no two paths tie, so the path itself matches.
        assert tree.get(src) == snap.shortest_path(src, dst)
    assert set(tree) == nx.node_connected_component(snap.graph, dst)
    assert tree[dst] == [dst]
    assert dict(tree.items()) == networkx_tree(snap, dst)


def test_unknown_destination_is_an_empty_tree():
    snap = geometric_snapshot(3, 10, 300.0)
    assert snap.paths_to(10_000) == {}
    assert snap.paths_to(10_000).get(0) is None


def test_down_destination_is_an_empty_tree():
    network = Network(Simulator(seed=4))
    for node_id in range(4):
        network.create_node(node_id, Point(40.0 * node_id, 0.0))
    network.fail_node(3)
    assert build_topology(network).paths_to(3) == {}


def test_ties_cost_the_same_and_repeat_across_runs():
    snap, again = lattice_snapshot(), lattice_snapshot()
    dst = 24  # the centre of the 7 x 7 grid
    tree = snap.paths_to(dst)
    assert len(tree) == snap.node_count
    for src, path in tree.items():
        assert path[0] == src and path[-1] == dst
        assert snap.path_etx(path) == snap.path_etx(snap.shortest_path(src, dst))
    assert again.paths_to(dst) == tree


@pytest.mark.parametrize("side", sorted(LATTICE_TREES))
def test_ties_go_the_way_networkx_breaks_them(side):
    # Relays sit on these paths, so which of several equal-ETX paths a
    # source gets is part of every composite: path for path, networkx's.
    snap = lattice_snapshot(side)
    trees = []
    for dst in snap.graph:
        tree = snap.paths_to(dst)
        assert dict(tree.items()) == networkx_tree(snap, dst)
        trees.append((dst, sorted(tree.items())))
    # A literal, so a networkx upgrade that re-breaks ties fails here too.
    digest = hashlib.blake2b(repr(trees).encode(), digest_size=8).hexdigest()
    assert digest == LATTICE_TREES[side]


def test_repeat_calls_return_the_memoised_tree():
    snap = geometric_snapshot(5, 20, 300.0)
    assert snap.paths_to(1) is snap.paths_to(1)


def test_memo_is_bounded_and_keeps_the_latest():
    snap = lattice_snapshot()
    bound = topology_module._PATH_TREES_KEPT
    for dst in range(3 * bound):
        tree = snap.paths_to(dst)
        assert len(snap._path_trees) <= bound
        assert snap.paths_to(dst) is tree
    assert list(snap._path_trees) == list(range(2 * bound, 3 * bound))
    # An evicted destination is simply recomputed.
    assert snap.paths_to(0) == lattice_snapshot().paths_to(0)


def test_memo_is_not_a_constructor_argument():
    snap = lattice_snapshot(3)
    snap.paths_to(0)
    assert "_path_trees" not in repr(snap)
    with pytest.raises(TypeError):
        TopologySnapshot(graph=snap.graph, time=0.0, _path_trees={})


def test_threads_racing_on_one_snapshot_get_equal_trees():
    # More destinations than the memo keeps, so eviction races too.
    dsts = (0, 10, 20, 40, 60, 80)
    assert len(dsts) > topology_module._PATH_TREES_KEPT
    expected = {dst: lattice_snapshot(9).paths_to(dst) for dst in dsts}
    snap = lattice_snapshot(9)
    results, degrees, errors = [], [], []
    start = threading.Barrier(6)

    def worker(k):
        try:
            start.wait(timeout=30)
            for i in range(30):
                dst = dsts[(k + i) % len(dsts)]
                results.append((dst, snap.paths_to(dst)))
                degrees.append(snap.degrees())
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(results) == 6 * 30
    assert all(tree == expected[dst] for dst, tree in results)
    assert len(snap._path_trees) <= topology_module._PATH_TREES_KEPT
    assert all(table == dict(snap.graph.degree()) for table in degrees)


@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(1, 40),
    range_m=st.floats(40.0, 400.0),
    down_fraction=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
@settings(max_examples=80, deadline=None)
def test_connectivity_queries_match_networkx(seed, n_nodes, range_m, down_fraction):
    """``components``, ``is_connected`` and ``giant_component_fraction``
    against ``networkx.connected_components`` of a graph built pair by pair.

    A uniform world on a 1 km square, shadowing off, every radio at the
    power whose comm range is ``range_m``, and a drawn share of nodes
    down.  The reference links every pair of up nodes that are neighbours
    (within the comm range widened by the network's neighbour margin) and
    decode each other with probability at least 0.1 — ``build_topology``'s
    documented rule, with no spatial grid, memo or batch in between.
    """
    rng = np.random.default_rng(seed)
    channel = Channel(shadowing_sigma_db=0.0, seed=seed)
    power = (
        channel.noise_floor_dbm
        + channel.sinr_threshold_db
        + channel.reference_loss_db
        + 10.0 * channel.path_loss_exponent * math.log10(range_m / channel.reference_distance_m)
    )
    network = Network(Simulator(seed=seed), channel)
    for node_id in range(n_nodes):
        network.create_node(node_id, Point(*rng.uniform(0.0, 1000.0, 2)), tx_power_dbm=power)
    down = {int(i) for i in rng.permutation(n_nodes)[: round(down_fraction * n_nodes)]}
    for node_id in down:
        network.fail_node(node_id)
    snap = build_topology(network)

    up = [node_id for node_id in range(n_nodes) if node_id not in down]
    limit = channel.comm_range_m(power, margin_db=-network.neighbor_margin_db)
    reference = nx.Graph()
    reference.add_nodes_from(up)
    for i, a in enumerate(up):
        for b in up[i + 1 :]:
            pa, pb = network.nodes[a].position, network.nodes[b].position
            p = min(
                channel.delivery_probability(power, pa, pb, a, b),
                channel.delivery_probability(power, pb, pa, b, a),
            )
            if pa.distance_to(pb) <= limit and p >= 0.1:
                reference.add_edge(a, b)
    expected = sorted(sorted(c) for c in nx.connected_components(reference))

    assert sorted(sorted(c) for c in snap.components()) == expected
    assert snap.is_connected() == (len(expected) == 1)
    giant = max(map(len, expected)) / len(up) if up else 0.0
    assert snap.giant_component_fraction() == giant
