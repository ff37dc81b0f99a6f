"""The replica build against the per-node code it replaced.

A shard replica's world is built in whole-world numpy passes: coordinates,
nearest-neighbour partners, seeds, partition buckets and the lookahead's
cross-shard distance.  Each pass must reproduce, bit for bit, what the
per-node code computed, so that code lives on here as the oracle: the ring
scan over a cell hash for ``local`` partners, the ``others`` list for
``unicast`` partners, ``derive_seed`` per sender for phases, and the
dict-bucket ``partition_network`` / ``min_cross_shard_distance_m``.
"""

from __future__ import annotations

import hashlib
import inspect
import math
from typing import Dict, List, Optional, Tuple
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.shard.runtime as runtime_module
from repro.net.node import Network
from repro.net.topology import GridPartition, min_cross_shard_distance_m, partition_network
from repro.shard import ShardPlan, ShardRuntime, ShardScenarioSpec, WorkloadSpec, run_serial
from repro.sim.kernel import Simulator
from repro.util.geometry import Point
from repro.util.rng import derive_seed

# ------------------------------------------------------------------ oracles


def ring_scan_partners(network: Network, senders: List[int], cell: float) -> Dict[int, int]:
    """Each sender's nearest other node by a ring scan over a cell hash:
    ties to the lowest id, scanning rings outward until the ring's nearest
    possible distance exceeds the best found."""
    nodes = network.nodes
    buckets: Dict[Tuple[int, int], List[int]] = {}
    for nid in sorted(nodes):
        p = nodes[nid].position
        buckets.setdefault((math.floor(p.x / cell), math.floor(p.y / cell)), []).append(nid)
    out = {}
    for sender in senders:
        p = nodes[sender].position
        cx, cy = math.floor(p.x / cell), math.floor(p.y / cell)
        best, best_d = sender, math.inf
        ring = 0
        while True:
            for dx in range(-ring, ring + 1):
                for dy in range(-ring, ring + 1):
                    if max(abs(dx), abs(dy)) != ring:
                        continue
                    for nid in buckets.get((cx + dx, cy + dy), ()):
                        if nid == sender:
                            continue
                        q = nodes[nid].position
                        d = (p.x - q.x) ** 2 + (p.y - q.y) ** 2
                        if d < best_d or (d == best_d and nid < best):
                            best, best_d = nid, d
            if best != sender and (ring * cell) ** 2 > best_d:
                break
            ring += 1
        out[sender] = best
    return out


def list_partner(seed: int, sender: int, ids: List[int]) -> int:
    others = [n for n in ids if n != sender]
    return others[derive_seed(seed, "shard.partner", str(sender)) % len(others)]


def _cell_of(x: float, y: float, cell_size: float) -> Tuple[int, int]:
    return (math.floor(x / cell_size), math.floor(y / cell_size))


def reference_partition_network(
    network: Network, n_shards: int, *, cell_size_m: Optional[float] = None, seed: int = 0
) -> GridPartition:
    if cell_size_m is None:
        cell_size_m = max(network._max_range(), 1.0)
    by_cell: Dict[Tuple[int, int], List[int]] = {}
    for nid in sorted(network.nodes):
        node = network.nodes[nid]
        by_cell.setdefault(_cell_of(node.position.x, node.position.y, cell_size_m), []).append(nid)
    total = sum(len(v) for v in by_cell.values())
    assignments: Dict[int, int] = {}
    cell_owner: Dict[Tuple[int, int], int] = {}
    axis = derive_seed(seed, "shard.partition.axis") % 2

    def sweep_key(cell: Tuple[int, int]) -> Tuple[int, int]:
        major, minor = (cell[0], cell[1]) if axis == 0 else (cell[1], cell[0])
        return (major, -minor if major % 2 else minor)

    shard = 0
    cum = 0
    for cell in sorted(by_cell, key=sweep_key):
        while shard < n_shards - 1 and cum * n_shards >= (shard + 1) * total:
            shard += 1
        cell_owner[cell] = shard
        for nid in by_cell[cell]:
            assignments[nid] = shard
        cum += len(by_cell[cell])
    return GridPartition(
        n_shards=n_shards,
        cell_size_m=cell_size_m,
        seed=seed,
        assignments=assignments,
        cells=cell_owner,
    )


def reference_min_cross_shard_distance_m(network: Network, partition: GridPartition) -> float:
    if partition.n_shards <= 1 or not partition.cells:
        return math.inf
    cell_size = partition.cell_size_m
    members: Dict[Tuple[int, int], List[int]] = {}
    for nid in partition.assignments:
        node = network.nodes[nid]
        members.setdefault(_cell_of(node.position.x, node.position.y, cell_size), []).append(nid)
    best = math.inf
    cells = partition.cells
    for (cx, cy), owner in cells.items():
        for dx, dy in ((1, -1), (1, 0), (1, 1), (0, 1)):
            other = (cx + dx, cy + dy)
            if other not in cells or cells[other] == owner:
                continue
            for a in members[(cx, cy)]:
                pa = network.nodes[a].position
                for b in members[other]:
                    pb = network.nodes[b].position
                    best = min(best, math.hypot(pa.x - pb.x, pa.y - pb.y))
    return min(best, cell_size)


# ------------------------------------------------------------------ helpers


def workload_ticks(runtime: ShardRuntime) -> Dict[int, Tuple[Optional[int], float]]:
    """``{sender: (partner, first tick time)}`` read off the built queue."""
    out = {}
    for when, _seq, payload in runtime.sim._queue:
        fn = inspect.getclosurevars(payload).nonlocals.get("fn")
        if fn is not None and fn.__defaults__ is not None and len(fn.__defaults__) == 3:
            sender, partner, _kind = fn.__defaults__
            out[sender] = (partner, when)
    return out


def partner_cell(runtime: ShardRuntime) -> float:
    spec = runtime.spec
    return max(spec.spacing_m if spec.kind == "uniform" else runtime.network._max_range(), 1.0)


def check_world(spec: ShardScenarioSpec, plan: ShardPlan) -> None:
    """Every shard's build against the oracles."""
    wl = spec.workload
    period = 1.0 / wl.rate_hz
    with mock.patch.multiple(
        runtime_module,
        partition_network=reference_partition_network,
        min_cross_shard_distance_m=reference_min_cross_shard_distance_m,
    ):
        references = [
            ShardRuntime(spec, plan, i, collect_trace=False) for i in range(plan.n_shards)
        ]
    for index, reference in enumerate(references):
        runtime = ShardRuntime(spec, plan, index, collect_trace=False)
        assert list(runtime.partition.assignments.items()) == list(
            reference.partition.assignments.items()
        )
        assert list(runtime.partition.cells.items()) == list(reference.partition.cells.items())
        assert runtime.lookahead_s.hex() == reference.lookahead_s.hex()

        ids = sorted(runtime.network.nodes)
        senders = [n for n in ids[:: wl.sender_stride] if n in runtime.owned]
        ticks = workload_ticks(runtime)
        assert sorted(ticks) == senders
        if wl.kind == "local":
            expected = ring_scan_partners(runtime.network, senders, partner_cell(runtime))
        else:
            expected = {s: list_partner(spec.seed, s, ids) for s in senders}
        assert {s: partner for s, (partner, _) in ticks.items()} == expected
        for sender, (_, when) in ticks.items():
            phase = (derive_seed(spec.seed, "shard.phase", str(sender)) % 10**6) / 10**6
            assert when.hex() == (wl.start_s + phase * period).hex()


# ------------------------------------------------------------------ properties


@st.composite
def uniform_worlds(draw) -> Tuple[ShardScenarioSpec, ShardPlan]:
    spacing = draw(st.sampled_from([1.0, 7.5, 60.0, 61.3]))
    # Up to a whole spacing of jitter, so some nearest neighbours sit
    # beyond the first ring; 0 makes every interior node a four-way tie.
    jitter = spacing * draw(st.sampled_from([0.0, 0.13, 0.5, 0.9, 1.0]))
    kind = draw(st.sampled_from(["local", "unicast"]))
    spec = ShardScenarioSpec(
        seed=draw(st.integers(0, 2**32)),
        kind="uniform",
        n_nodes=draw(st.integers(2, 400)),
        spacing_m=spacing,
        jitter_m=jitter,
        bitrate_bps=5e4,
        router=None if kind == "local" else "flooding",
        workload=WorkloadSpec(kind=kind, sender_stride=draw(st.integers(1, 4)), ttl=1),
    )
    plan = ShardPlan(
        n_shards=draw(st.integers(1, 4)),
        cell_size_m=draw(st.sampled_from([None, spacing, 2 * spacing, 3.7 * spacing])),
        partition_seed=draw(st.integers(0, 3)),
    )
    return spec, plan


def _uniform(n: int, jitter: float, stride: int = 1) -> ShardScenarioSpec:
    return ShardScenarioSpec(
        seed=7,
        kind="uniform",
        n_nodes=n,
        spacing_m=60.0,
        jitter_m=jitter,
        router=None,
        workload=WorkloadSpec(kind="local", sender_stride=stride, ttl=1),
    )


@settings(max_examples=60, deadline=None)
@given(uniform_worlds())
@example((_uniform(30, 0.0), ShardPlan(n_shards=2)))  # four-way ties everywhere
@example((_uniform(400, 60.0, stride=3), ShardPlan(n_shards=3, cell_size_m=60.0)))
def test_uniform_build_equals_the_oracles(world):
    spec, plan = world
    check_world(spec, plan)

    runtime = ShardRuntime(spec, plan, 0, collect_trace=False)
    rng = np.random.default_rng(derive_seed(spec.seed, "shard.uniform"))
    side = int(math.ceil(math.sqrt(spec.n_nodes)))
    jitter = rng.uniform(-spec.jitter_m, spec.jitter_m, size=(spec.n_nodes, 2))
    for i, node in sorted(runtime.network.nodes.items()):
        p = node.position
        assert type(p.x) is float and type(p.y) is float
        assert p.x.hex() == float.hex((i % side) * spec.spacing_m + jitter[i, 0])
        assert p.y.hex() == float.hex((i // side) * spec.spacing_m + jitter[i, 1])


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    blocks=st.integers(2, 3),
    n_blue=st.integers(3, 16),
    stride=st.integers(1, 4),
    n_shards=st.integers(1, 4),
)
def test_urban_build_equals_the_oracles(seed, blocks, n_blue, stride, n_shards):
    spec = ShardScenarioSpec(
        seed=seed,
        blocks=blocks,
        n_blue=n_blue,
        router=None,
        bitrate_cap_bps=5e4,
        workload=WorkloadSpec(kind="local", sender_stride=stride, ttl=1),
    )
    check_world(spec, ShardPlan(n_shards=n_shards, cell_size_m=60.0))


# ------------------------------------------------------------------ hand-built


def placed(positions: Dict[int, Tuple[float, float]], cell: float) -> ShardRuntime:
    """A replica whose nodes are moved to ``positions`` after the build."""
    spec = ShardScenarioSpec(
        seed=3,
        kind="uniform",
        n_nodes=len(positions),
        spacing_m=cell,
        router=None,
        workload=WorkloadSpec(kind="local", ttl=1),
    )
    runtime = ShardRuntime(spec, ShardPlan(), 0, collect_trace=False)
    for nid, (x, y) in positions.items():
        runtime.network.set_position(nid, Point(x, y))
    return runtime


def nearest(runtime: ShardRuntime) -> Dict[int, int]:
    ids = sorted(runtime.network.nodes)
    got = dict(zip(ids, runtime._nearest_partners(list(range(len(ids))), ids)))
    assert got == ring_scan_partners(runtime.network, ids, partner_cell(runtime))
    return got


def test_exact_distance_tie_goes_to_the_lowest_id():
    # Node 0 is 5 m from nodes 4, 2, 3 and 1 (3-4-5 triangles, one per
    # quadrant, all in different cells); node 1 must win.
    runtime = placed(
        {0: (0.0, 0.0), 4: (3.0, 4.0), 2: (-4.0, 3.0), 3: (-3.0, -4.0), 1: (4.0, -3.0)},
        cell=2.0,
    )
    assert nearest(runtime)[0] == 1


def test_where_numpy_and_pow_disagree_the_scan_decides():
    # (p.x - q.x) ** 2 goes through pow: for these two nodes it gives one
    # squared distance, 0x1.5ad37e265e71fp+4, while numpy's products put
    # node 2 one ulp nearer.  The scan sees a tie, which node 1 wins.
    q1 = (3.662019658109765, -2.8751079982136143)
    q2 = (-0.6574318390921392, 4.609166665973599)
    runtime = placed({0: (0.0, 0.0), 1: q1, 2: q2}, cell=10.0)
    assert (q1[0] ** 2 + q1[1] ** 2).hex() == (q2[0] ** 2 + q2[1] ** 2).hex()
    xs, ys = np.array([q1[0], q2[0]]), np.array([q1[1], q2[1]])
    squared = (0.0 - xs) ** 2 + (0.0 - ys) ** 2
    assert squared[0] > squared[1]
    assert nearest(runtime)[0] == 1


def test_nearest_node_three_cells_away():
    # Cell 10 m.  Nothing within two rings of node 0's cell; ring 3 holds
    # node 2 at 32 m, ring 4 node 1 at 35 m, and ring 3's bound (30 m) is
    # below 32 m, so the scan must reach ring 4 before it can stop.
    runtime = placed({0: (5.0, 5.0), 1: (5.0, 40.0), 2: (37.0, 5.0), 3: (90.0, 90.0)}, cell=10.0)
    got = nearest(runtime)
    assert got[0] == 2
    assert got[1] == 0 and got[2] == 0


def test_sparse_grid_partitions_like_the_dict_buckets():
    # Two clusters 1,000 km apart on 1 m cells: 10^12 grid cells, four
    # occupied.  Only occupied cells may take space.
    net = Network(Simulator(seed=1))
    cluster_a = [(0.0, 0.0), (0.5, 0.7), (1.2, 0.4)]
    for nid, (x, y) in enumerate(cluster_a + [(1e6, 1e6), (1e6 + 0.6, 1e6)]):
        net.create_node(nid, Point(x, y))
    for n_shards in (2, 3):
        got = partition_network(net, n_shards, cell_size_m=1.0, seed=1)
        want = reference_partition_network(net, n_shards, cell_size_m=1.0, seed=1)
        assert list(got.assignments.items()) == list(want.assignments.items())
        assert list(got.cells.items()) == list(want.cells.items())
        assert (
            min_cross_shard_distance_m(net, got).hex()
            == reference_min_cross_shard_distance_m(net, want).hex()
        )


# ------------------------------------------------------------------ the pin

#: The ledger's ``shard_local_5k_x2`` world at seed 12.
LEDGER_SPEC = ShardScenarioSpec(
    seed=12,
    kind="uniform",
    n_nodes=5000,
    spacing_m=60.0,
    jitter_m=8.0,
    bitrate_bps=5e4,
    router=None,
    mac="csma",
    workload=WorkloadSpec(kind="local", rate_hz=1.0, size_bits=2048, ttl=1, sender_stride=1),
)
LEDGER_PLAN = ShardPlan(n_shards=2, cell_size_m=120.0)


def test_ledger_world_is_pinned():
    """Both replicas of the ledger's 5,000-node world, and one simulated
    second of it, digest as they did when every pass was per node."""
    digest = hashlib.blake2b(digest_size=16)
    for index in range(LEDGER_PLAN.n_shards):
        runtime = ShardRuntime(LEDGER_SPEC, LEDGER_PLAN, index, collect_trace=False)
        nodes = sorted(runtime.network.nodes.items())
        world = (
            [(nid, float.hex(n.position.x), float.hex(n.position.y)) for nid, n in nodes],
            sorted((s, d, when.hex()) for s, (d, when) in workload_ticks(runtime).items()),
            sorted(runtime.partition.assignments.items()),
            runtime.lookahead_s.hex(),
        )
        digest.update(repr(world).encode())
    assert digest.hexdigest() == "36b9aef888d1a998340739f5d704182d"
    assert run_serial(LEDGER_SPEC, 1.0).fingerprint() == "e304a14ba6026a6d1212dde7e8f1ec17"
