"""TopologySnapshot.paths_to: one min-ETX tree per destination, memoised."""

import sys
import threading

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import topology as topology_module
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
    results, errors = [], []
    start = threading.Barrier(6)

    def worker(k):
        try:
            start.wait(timeout=30)
            for i in range(30):
                dst = dsts[(k + i) % len(dsts)]
                results.append((dst, snap.paths_to(dst)))
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
