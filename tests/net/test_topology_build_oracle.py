"""``build_topology`` against the per-node build it replaced.

The whole-world build screens candidate pairs in numpy, seeds shadowing
in batches and evaluates both directions of a pair at once.  The per-node
build below is the code it replaced, kept verbatim as the oracle: one
``Network.neighbors`` scan per node and one channel batch per transmitter.
Both builds run on twin worlds, and everything the build leaves behind
must be equal: the graph's node, edge and adjacency order with every
attribute, and the shadowing memo's items in insertion order.  The
per-node build fills its table; the whole-world build keeps the table of
its last screen, which must hold the per-node build's values as
``float.hex`` for exactly the pairs that screen found, in screen order.

Seeded mutations of the build and its screen (``_candidate_pairs`` in
``src/repro/net/node.py``) that this property was shown to catch: screening
with the higher id's range instead of the lower id's, dropping the
``math.hypot`` recheck of pairs at a range limit, and priming shadowing in
pair order instead of first-sight order.  A failure names the first entry
that differs (:func:`assert_same`), so a red run stays as quick and small
as a green one.
"""

import math
import reprlib
from typing import Dict, List, Optional

import networkx as nx
from hypothesis import Phase, event, given, settings
from hypothesis import strategies as st

from repro.net.channel import Channel, Jammer
from repro.net.node import Network
from repro.net.topology import TopologySnapshot, build_topology
from repro.scenarios.builder import ScenarioBuilder
from repro.sim import Simulator
from repro.util.geometry import Point

#: The power levels of the asset catalogue (dBm).
POWERS = (0.0, 4.0, 10.0, 15.0, 17.0, 20.0, 27.0)


def per_node_build(
    network: Network,
    *,
    min_delivery_probability: float = 0.1,
    include_down: bool = False,
    link_p: Optional[Dict[int, Dict[int, float]]] = None,
) -> TopologySnapshot:
    """The per-node build, as it stood before the whole-world passes."""
    graph = nx.Graph()
    nodes = network.nodes.values() if include_down else network.up_nodes()
    for node in nodes:
        graph.add_node(node.id, pos=(node.position.x, node.position.y))
    if link_p is None:
        link_p = {}
    rows = []
    receivers: Dict[int, List[int]] = {}
    in_graph = set(graph)
    for node in nodes:
        node_id = node.id
        row = link_p.setdefault(node_id, {})
        near = network.neighbors(node_id, include_down=include_down)
        higher = [other_id for other_id in near if other_id > node_id and other_id in in_graph]
        rows.append((row, node_id, higher))
        for other_id in higher:
            if other_id not in row:
                receivers.setdefault(node_id, []).append(other_id)
                receivers.setdefault(other_id, []).append(node_id)
    channel, by_id = network.channel, network.nodes
    channel.prime_shadowing((a, b) for a, bs in receivers.items() for b in bs if a < b)
    directed: Dict[int, Dict[int, float]] = {}
    for tx_id, rx_ids in receivers.items():
        tx = by_id[tx_id]
        probs = channel.delivery_probability_batch(
            tx.tx_power_dbm, tx.position, [by_id[i].position for i in rx_ids], rx_ids, tx_id
        )
        directed[tx_id] = dict(zip(rx_ids, probs))
    for a, forward in directed.items():
        for b, p in forward.items():
            if a < b:
                link_p[a][b] = min(p, directed[b][a])
    for row, node_id, higher in rows:
        for other_id in higher:
            p = row[other_id]
            if p >= min_delivery_probability:
                graph.add_edge(node_id, other_id, p=p, etx=1.0 / p)
    return TopologySnapshot(graph=graph, time=network.sim.now)


def boundary_point(x: float, y: float, limit: float, angle: float) -> Point:
    """A point about ``limit`` from ``(x, y)`` toward ``angle``, nudged by a few
    ulps to where ``math.hypot`` and squared distances disagree on
    ``<= limit`` if any nudge gets there, else the unnudged point."""
    bx, by = x + limit * math.cos(angle), y + limit * math.sin(angle)
    for i in range(-4, 5):
        for j in range(-4, 5):
            px, py = bx + i * math.ulp(bx), by + j * math.ulp(by)
            dx, dy = x - px, y - py
            if (math.hypot(dx, dy) <= limit) != (dx * dx + dy * dy <= limit * limit):
                return Point(px, py)
    return Point(bx, by)


@st.composite
def worlds(draw):
    """A plain description of a world, built twice by :func:`make_world`."""
    kind = draw(st.sampled_from(["uniform", "urban"]))
    n = draw(st.integers(2, 36))
    spec = {
        "kind": kind,
        "seed": draw(st.integers(0, 2**16)),
        "n": n,
        "sigma": draw(st.sampled_from([0.0, 4.0])),
        # Ids in a shuffled order with gaps: node order is not id order.
        "ids": draw(st.permutations(list(range(0, 3 * n, 3)))),
        "xy": draw(st.lists(
            st.tuples(st.floats(0.0, 700.0), st.floats(0.0, 700.0)), min_size=n, max_size=n
        )),
        "powers": draw(st.lists(st.sampled_from(POWERS), min_size=n, max_size=n)),
        "boundary": draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.floats(0.0, 2 * math.pi), st.booleans()),
            max_size=4,
        )),
        "jammer": draw(st.one_of(st.none(), st.tuples(st.floats(0.0, 700.0),
                                                      st.floats(0.0, 700.0)))),
    }
    total = n + len(spec["boundary"])
    spec["down"] = draw(st.lists(st.integers(0, total - 1), max_size=total // 3))
    spec["cached"] = draw(st.lists(st.tuples(st.integers(0, total - 1),
                                             st.integers(0, total - 1)), max_size=6))
    return spec


def make_world(spec) -> Network:
    """The world ``spec`` describes, the same every time it is built.

    Uniform worlds place ``spec["ids"]`` at ``spec["xy"]`` with mixed powers;
    urban worlds are the scenario builder's district.  Each boundary entry
    adds a node about its anchor's range from the anchor, with an id above
    or below every other.
    """
    sim = Simulator(seed=spec["seed"])
    if spec["kind"] == "urban":
        net = (
            ScenarioBuilder(sim)
            .urban_grid(blocks=4, block_size_m=100.0, density=0.4)
            .population(n_blue=spec["n"], n_red=0, n_gray=0)
            .build()
            .network
        )
    else:
        channel = Channel(seed=spec["seed"], shadowing_sigma_db=spec["sigma"])
        net = Network(sim, channel)
        for node_id, (x, y), power in zip(spec["ids"], spec["xy"], spec["powers"]):
            net.create_node(node_id, Point(x, y), tx_power_dbm=power)
    order = list(net.nodes)
    top, bottom = max(order), min(order)
    for k, (anchor, angle, above) in enumerate(spec["boundary"]):
        node = net.nodes[order[anchor % len(order)]]
        limit = net.channel.comm_range_m(node.tx_power_dbm, margin_db=-net.neighbor_margin_db)
        node_id = top + 1 + k if above else bottom - 1 - k
        point = boundary_point(node.position.x, node.position.y, limit, angle)
        net.create_node(node_id, point, tx_power_dbm=node.tx_power_dbm)
    if spec["jammer"] is not None:
        net.channel.add_jammer(Jammer(Point(*spec["jammer"]), power_dbm=30.0))
    order = list(net.nodes)
    for index in spec["down"]:
        net.fail_node(order[index % len(order)])
    for a, b in spec["cached"]:  # a memo that already holds some links
        net.channel.shadowing_db(order[a % len(order)], order[b % len(order)])
    return net


def state(net: Network, topo: TopologySnapshot) -> tuple:
    graph = topo.graph
    return (
        topo.time,
        list(graph.nodes(data=True)),
        [(a, b, list(d), d["p"].hex(), d["etx"].hex()) for a, b, d in graph.edges(data=True)],
        [(u, list(nbrs)) for u, nbrs in graph.adjacency()],
        [(key, value.hex()) for key, value in net.channel._shadow_cache.items()],
    )


def assert_same(actual, expected, path: str = "value") -> None:
    """``assert actual == expected`` that names the first differing entry.

    A plain ``assert`` over a whole world's structures makes pytest diff
    every entry of both, which on a failure took minutes and gigabytes;
    this walks nested lists and tuples to the first entry that differs and
    reports that one, shortened.
    """
    if actual == expected:
        return
    if isinstance(actual, (list, tuple)) and isinstance(expected, (list, tuple)):
        for k, (a, e) in enumerate(zip(actual, expected)):
            if a != e:
                assert_same(a, e, f"{path}[{k}]")
        raise AssertionError(f"{path}: {len(actual)} entries, expected {len(expected)}")
    raise AssertionError(f"{path}: {reprlib.repr(actual)} != {reprlib.repr(expected)}")


def table_items(table) -> list:
    return [(a, [(b, p.hex()) for b, p in row.items()]) for a, row in table.items()]


def screen_table(net: Network, topo: TopologySnapshot, filled) -> list:
    """The table a screen of ``topo``'s nodes leaves, with the per-node
    build's values: a row per node in node order, holding each higher id
    that ``Network.neighbors`` of the node lists among those nodes,
    ascending."""
    graph = topo.graph
    return table_items({
        a: {b: filled[a][b] for b in sorted(net.neighbors(a, include_down=True))
            if b > a and b in graph}
        for a in graph
    })


# No explain phase: it traces every line of both builds through the whole
# shrink, which made a red run take minutes and most of a gigabyte.
@settings(max_examples=120, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(
    worlds(),
    st.booleans(),
    st.sampled_from([0.0, 0.1, 0.5, 0.999]),
    st.one_of(st.none(), st.lists(st.integers(0, 40), max_size=6)),
)
def test_the_whole_world_build_equals_the_per_node_build(spec, include_down, min_p, prefill):
    """The same graph and shadowing memo, bit for bit and in order, and the
    table of the last screen.

    ``prefill`` makes the table ``SnapshotHub`` carries across epochs: left
    by an earlier build of the same world with the nodes ``prefill`` names
    down.  When every node of the build under test was screened there, the
    whole-world build keeps that table and screens nothing; otherwise it
    screens, reads the pairs the table holds and computes the rest, as the
    per-node build does with its filled table.
    """
    tables = [{}, {}]
    new_kept = None
    if prefill is not None:
        earlier = {**spec, "down": prefill}
        earlier_net = make_world(earlier)
        earlier_topo = build_topology(earlier_net, link_p=tables[1])
        per_node_build(make_world(earlier), link_p=tables[0])
        assert_same(
            table_items(tables[1]), screen_table(earlier_net, earlier_topo, tables[0]), "table"
        )
        new_kept = table_items(tables[1])
    old_net, new_net = make_world(spec), make_world(spec)
    kwargs = dict(include_down=include_down, min_delivery_probability=min_p)
    old = per_node_build(old_net, link_p=tables[0], **kwargs)
    new = build_topology(new_net, link_p=tables[1], **kwargs)
    assert_same(state(new_net, new), state(old_net, old), "state")
    screened = new_kept is None or not set(new.graph) <= {a for a, _ in new_kept}
    event("screened" if screened else "kept the earlier screen")
    kept = screen_table(new_net, new, tables[0]) if screened else new_kept
    assert_same(table_items(tables[1]), kept, "table")


def test_boundary_points_reach_the_disagreeing_last_bit():
    """The world generator does place pairs where a squared-distance screen
    alone would decide the candidate rule differently from ``math.hypot``."""
    disagree = 0
    for k in range(64):
        x, y = 37.0 * k, 11.0 * k
        limit = 146.77992676220068
        p = boundary_point(x, y, limit, angle=0.1 * k)
        dx, dy = x - p.x, y - p.y
        disagree += (math.hypot(dx, dy) <= limit) != (dx * dx + dy * dy <= limit * limit)
    assert disagree >= 16
