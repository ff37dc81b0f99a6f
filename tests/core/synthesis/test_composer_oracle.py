"""GreedyComposer against its pre-bitmask self, frozen here as the oracle.

``ReferenceComposer`` is the composer as it stood before coverage bitmasks,
per-sink path trees and the shortcuts that followed them (sample points
pruned by row and column, a sink score that measures distance only on ties,
one degree table per compose, compute candidates sorted only when compute
is short): every greedy round re-measures every pooled sensor against every
uncovered sample point, every member gets its own ``shortest_path`` to the
sink, every candidate is scored in full for the sink role and sorted for the
compute role.  It shares only ``_energy_factor`` with the production class;
every step is re-implemented below and must agree field for field.
"""

import dataclasses
import hashlib
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ScenarioBuilder, Simulator
from repro.core.mission import MissionGoal, MissionType
from repro.core.synthesis import GreedyComposer, compile_goal
from repro.core.synthesis.composer import CompositeAsset, coverage_fraction
from repro.net.node import Network
from repro.net.topology import build_topology
from repro.service import SnapshotHub
from repro.service.snapshot import SnapshotAsset, SnapshotBattery
from repro.things.asset import Affiliation, AssetInventory
from repro.things.capabilities import CapabilityProfile, SensingModality
from repro.util.geometry import Point, Region, distance

MODALITIES = frozenset({SensingModality.SEISMIC, SensingModality.ACOUSTIC})
CAMERA = frozenset({SensingModality.CAMERA})
FIELD_M = 600.0


# ------------------------------------------------------------------ the oracle


def reference_coverage(sensors, area):
    points = area.grid_points(16, 16)
    covered = 0
    for p in points:
        for s in sensors:
            if distance(s.position, p) <= s.profile.sensing_range_m:
                covered += 1
                break
    return covered / len(points)


class ReferenceComposer(GreedyComposer):
    def compose(self, requirements, candidates, topology):
        area = requirements.goal.area
        by_id = {a.id: a for a in candidates}
        comp = CompositeAsset(requirements=requirements)
        comp.sink = self._pick_sink(candidates, area, topology)
        self._add_sensors(comp, requirements, candidates, area)
        self._add_compute(comp, requirements, candidates)
        sink_node = by_id[comp.sink].node_id
        node_to_asset = {a.node_id: a.id for a in by_id.values()}
        member_ids = set(comp.members)
        for aid in list(member_ids):
            if by_id[aid].node_id == sink_node:
                continue
            path = topology.shortest_path(by_id[aid].node_id, sink_node) or []
            for node_id in path[1:-1]:
                relay = node_to_asset.get(node_id)
                if relay is not None and relay not in member_ids:
                    member_ids.add(relay)
                    comp.relays.append(relay)
        comp.coverage = reference_coverage([by_id[s] for s in comp.sensors], area)
        others = [m for m in comp.members if m != comp.sink]
        paths = [topology.shortest_path(by_id[m].node_id, sink_node) for m in others]
        etx = [topology.path_etx(p) for p in paths if p is not None]
        comp.connected_fraction = len(etx) / len(others) if others else 1.0
        comp.max_path_etx = max([0.0] + etx) if etx else math.inf
        return comp

    def _pick_sink(self, candidates, area, topology):
        def sink_score(asset):
            d = distance(asset.position, area.center)
            degree = (
                topology.graph.degree(asset.node_id)
                if asset.node_id in topology.graph
                else 0
            )
            return (asset.profile.compute_flops * (1 + degree), -d)

        return max(candidates, key=sink_score).id

    def _add_compute(self, composite, requirements, candidates):
        have = {composite.sink, *composite.sensors}
        flops = sum(a.profile.compute_flops for a in candidates if a.id in have)
        pool = sorted(
            (a for a in candidates if a.id not in have),
            key=lambda a: a.profile.compute_flops * self._energy_factor(a),
            reverse=True,
        )
        added = []
        for asset in pool:
            if flops >= requirements.compute_flops:
                break
            if asset.profile.compute_flops <= 0:
                break
            flops += asset.profile.compute_flops
            added.append(asset.id)
        composite.compute = added
        composite.total_flops = flops

    def _add_sensors(self, composite, requirements, candidates, area):
        pool = [
            a
            for a in candidates
            if a.profile.sensing & requirements.modalities and a.profile.sensing_range_m > 0
        ]
        points = list(area.grid_points(16, 16))
        uncovered = set(range(len(points)))
        chosen = []
        budget = max(
            requirements.n_sensors, int(requirements.n_sensors * self.max_sensor_surplus)
        )
        while uncovered and len(chosen) < budget and pool:
            best_asset, best_gain, best_score = None, set(), 0.0
            for asset in pool:
                r = asset.profile.sensing_range_m
                gain = {i for i in uncovered if distance(asset.position, points[i]) <= r}
                score = len(gain) * self._energy_factor(asset)
                if score > best_score:
                    best_asset, best_gain, best_score = asset, gain, score
            if best_asset is None:
                break
            chosen.append(best_asset)
            pool.remove(best_asset)
            uncovered -= best_gain
            if (
                1.0 - len(uncovered) / len(points) >= requirements.coverage_target
                and len(chosen) >= requirements.n_sensors
            ):
                break
        composite.sensors = [a.id for a in chosen]


# --------------------------------------------------------------- random worlds


def make_asset(aid, node_id, position, *, sensing=MODALITIES, range_m=0.0, flops=1e6, charge=None):
    return SnapshotAsset(
        id=aid,
        node_id=node_id,
        position=position,
        profile=CapabilityProfile(
            "oracle", sensing=sensing, sensing_range_m=range_m, compute_flops=flops
        ),
        affiliation=Affiliation.BLUE,
        battery=None if charge is None else SnapshotBattery(charge),
    )


def make_requirements(area, *, n_sensors, coverage_target, compute_scale=1.0):
    goal = MissionGoal(MissionType.SURVEIL, area, min_coverage=0.5, modalities=MODALITIES)
    compiled = compile_goal(goal)
    return dataclasses.replace(
        compiled,
        n_sensors=n_sensors,
        coverage_target=coverage_target,
        # 1.0: the sink's own compute nearly always suffices; above it the
        # composer has to recruit compute members, up to the whole pool.
        compute_flops=compiled.compute_flops * compute_scale,
    )


def make_world(seed, n_nodes, *, degenerate_area, sink_down, n_failed):
    """A seeded inventory on a channel-weighted topology, corner cases included.

    Node and asset positions are continuous draws, so no two paths tie on
    ETX.  Every world holds zero-range sensors, a sensor wholly outside the
    area, one whose disc is tangent to the area's edge, one sitting exactly
    on the area's corner and a run of identical sensors whose scores tie
    exactly.
    """
    rng = np.random.default_rng(seed)
    sim = Simulator(seed=seed)
    network = Network(sim)
    for node_id in range(n_nodes):
        network.create_node(node_id, Point(*rng.uniform(0.0, FIELD_M, 2)))

    x0, y0 = rng.uniform(0.0, FIELD_M / 2.0, 2)
    width = 0.0 if degenerate_area else rng.uniform(50.0, FIELD_M / 2.0)
    area = Region(x0, y0, x0 + width, y0 + rng.uniform(50.0, FIELD_M / 2.0))

    pool = []
    for node_id in range(n_nodes):
        sensing = MODALITIES if rng.random() < 0.7 else frozenset({SensingModality.CAMERA})
        pool.append(
            make_asset(
                100 + node_id,
                node_id,
                network.node(node_id).position,
                sensing=sensing,
                range_m=float(rng.choice([0.0, 30.0, 80.0, 150.0])),
                flops=float(rng.choice([0.0, 1e6, 1e8])),
                charge=None if rng.random() < 0.3 else float(rng.uniform(0.0, 1.0)),
            )
        )
    twin_at = area.clamp(Point(*rng.uniform(0.0, FIELD_M, 2)))
    specials = [
        (Point(area.x_min - 500.0, area.y_min), 100.0),  # wholly outside
        (Point(area.x_min - 40.0, area.center.y), 40.0),  # disc touches the edge
        (Point(area.x_min, area.y_max), 25.0),  # sits on the corner
        (twin_at, 90.0),
        (twin_at, 90.0),
        (twin_at, 90.0),
    ]
    for k, (position, range_m) in enumerate(specials):
        pool.append(make_asset(900 + k, int(rng.integers(n_nodes)), position, range_m=range_m))
    if sink_down:
        # Overwhelming compute on a node that is about to fail: the sink is
        # picked from the pool, but its node is missing from the topology.
        pool.append(make_asset(999, 0, network.node(0).position, flops=1e15))
        network.fail_node(0)
    for node_id in rng.choice(np.arange(1, n_nodes), size=n_failed, replace=False):
        network.fail_node(int(node_id))
    return pool, area, build_topology(network)


@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(3, 36),
    energy_aware=st.booleans(),
    degenerate_area=st.booleans(),
    sink_down=st.booleans(),
    failed_share=st.sampled_from([0.0, 0.1, 0.4]),
    n_sensors=st.integers(1, 6),
    coverage_target=st.sampled_from([0.05, 0.3, 0.6, 1.0]),
    compute_scale=st.sampled_from([1.0, 3.0, 10.0, 1000.0]),
)
@settings(max_examples=250, deadline=None)
def test_composite_equals_reference(
    seed,
    n_nodes,
    energy_aware,
    degenerate_area,
    sink_down,
    failed_share,
    n_sensors,
    coverage_target,
    compute_scale,
):
    pool, area, topology = make_world(
        seed,
        n_nodes,
        degenerate_area=degenerate_area,
        sink_down=sink_down,
        n_failed=int(failed_share * (n_nodes - 1)),
    )
    requirements = make_requirements(
        area, n_sensors=n_sensors, coverage_target=coverage_target, compute_scale=compute_scale
    )
    got = GreedyComposer(energy_aware=energy_aware).compose(requirements, pool, topology)
    want = ReferenceComposer(energy_aware=energy_aware).compose(requirements, pool, topology)
    assert got == want  # sink, sensors, compute, relays and all four metrics
    assert coverage_fraction(pool, area) == reference_coverage(pool, area)


# ------------------------------------------------------------- pinned corners


def _compose_both(pool, area, topology, **req):
    requirements = make_requirements(area, **req)
    got = GreedyComposer().compose(requirements, pool, topology)
    assert got == ReferenceComposer().compose(requirements, pool, topology)
    return got


def test_exact_tie_goes_to_the_earliest_in_pool():
    pool, area, topology = make_world(5, 12, degenerate_area=False, sink_down=False, n_failed=0)
    twins = [a for a in pool if 903 <= a.id <= 905]
    comp = _compose_both(twins, area, topology, n_sensors=3, coverage_target=1.0)
    # The second and third twin add nothing once the first is in.
    assert comp.sensors == [903]


def test_duplicated_candidate_is_recruited_once():
    pool, area, topology = make_world(6, 12, degenerate_area=False, sink_down=False, n_failed=0)
    doubled = pool + pool[:]
    comp = _compose_both(doubled, area, topology, n_sensors=4, coverage_target=1.0)
    assert len(set(comp.sensors)) == len(comp.sensors)
    assert (
        comp.sensors
        == _compose_both(pool, area, topology, n_sensors=4, coverage_target=1.0).sensors
    )


def test_two_assets_under_one_id_are_scored_as_the_id_table_holds_them():
    # The greedy recruits the near twin, but coverage is measured on the
    # asset the id table keeps for that id: the last one, far off.
    pool, area, topology = make_world(6, 12, degenerate_area=False, sink_down=False, n_failed=0)
    near = make_asset(950, 1, area.center, range_m=150.0)
    far = make_asset(950, 1, Point(area.x_min - 900.0, area.y_min), range_m=150.0)
    for candidates in ([*pool, near, far], tuple([*pool, near, far])):
        comp = _compose_both(candidates, area, topology, n_sensors=1, coverage_target=0.05)
        assert comp.sensors == [950]
        assert comp.coverage == 0.0


def test_budget_runs_out_before_the_coverage_target():
    pool, area, topology = make_world(7, 30, degenerate_area=False, sink_down=False, n_failed=0)
    short = [a for a in pool if a.profile.sensing_range_m <= 30.0]
    comp = _compose_both(short, area, topology, n_sensors=1, coverage_target=1.0)
    assert len(comp.sensors) == 2  # max_sensor_surplus x n_sensors
    assert comp.coverage < 1.0


def test_disc_ending_exactly_on_a_sample_point_covers_it():
    # 16 x 16 samples of a 150 m square sit on multiples of 10 m; each sensor
    # below reaches exactly one of them, at a distance equal to its range, on
    # the outermost column or row its disc touches.
    area = Region(0.0, 0.0, 150.0, 150.0)
    assert [p.x for p in area.grid_points(16, 16)[:16]] == [10.0 * i for i in range(16)]
    for k, position in enumerate(
        [Point(-30.0, 50.0), Point(180.0, 50.0), Point(50.0, -30.0), Point(50.0, 180.0)]
    ):
        sensor = [make_asset(k, 0, position, range_m=30.0)]
        assert reference_coverage(sensor, area) == 1 / 256
        assert coverage_fraction(sensor, area) == 1 / 256
    inside = [make_asset(9, 0, Point(70.0, 70.0), range_m=20.0)]  # 13 points, 4 at exactly 20 m
    assert coverage_fraction(inside, area) == reference_coverage(inside, area) == 13 / 256


@given(
    dx=st.floats(-1e7, 1e7, allow_nan=False), dy=st.floats(-1e7, 1e7, allow_nan=False)
)
@settings(max_examples=500, deadline=None)
def test_a_distance_is_never_shorter_than_its_offset_along_one_axis(dx, dy):
    # What lets the coverage grid skip a column or row whose offset alone
    # exceeds the sensing radius: rounding never takes hypot below a leg.
    origin = Point(0.0, 0.0)
    assert distance(origin, Point(dx, dy)) >= max(abs(0.0 - dx), abs(0.0 - dy))


def test_compute_is_recruited_in_reference_order_when_the_sink_falls_short():
    pool, area, topology = make_world(11, 30, degenerate_area=False, sink_down=False, n_failed=0)
    comp = _compose_both(pool, area, topology, n_sensors=2, coverage_target=0.3, compute_scale=10.0)
    assert len(comp.compute) >= 2
    assert comp.total_flops >= comp.requirements.compute_flops
    short = _compose_both(
        pool, area, topology, n_sensors=2, coverage_target=0.3, compute_scale=1000.0
    )
    assert short.total_flops < short.requirements.compute_flops  # every asset with compute is in


def test_sink_missing_from_topology_disconnects_everyone():
    pool, area, topology = make_world(8, 20, degenerate_area=False, sink_down=True, n_failed=0)
    comp = _compose_both(pool, area, topology, n_sensors=3, coverage_target=0.3)
    assert comp.sink == 999
    assert comp.relays == []
    assert comp.connected_fraction == 0.0
    assert comp.max_path_etx == math.inf


def test_members_on_failed_nodes_are_unreachable():
    pool, area, topology = make_world(9, 30, degenerate_area=False, sink_down=False, n_failed=12)
    comp = _compose_both(pool, area, topology, n_sensors=6, coverage_target=1.0)
    by_id = {a.id: a for a in pool}
    assert any(by_id[m].node_id not in topology.graph for m in comp.members)
    assert comp.connected_fraction < 1.0


def test_zero_width_area_and_out_of_reach_sensors():
    pool, area, topology = make_world(10, 20, degenerate_area=True, sink_down=False, n_failed=0)
    assert area.width == 0.0
    comp = _compose_both(pool, area, topology, n_sensors=2, coverage_target=0.5)
    assert 900 not in comp.sensors  # 500 m off with a 100 m range
    far = [a for a in pool if a.id == 900]
    assert coverage_fraction(far, area) == 0.0
    # The edge sensor's disc is tangent to the rectangle: it reaches the
    # sample points of one column at most, never none by a rounding slip.
    edge = [a for a in pool if a.id == 901]
    assert coverage_fraction(edge, area) == reference_coverage(edge, area)


# ------------------------------------------------ one composer across epochs


def requirements_over(area, modalities, *, n_sensors, coverage_target):
    goal = MissionGoal(MissionType.SURVEIL, area, min_coverage=0.5, modalities=modalities)
    return dataclasses.replace(
        compile_goal(goal), n_sensors=n_sensors, coverage_target=coverage_target
    )


def live_world(rng, n_nodes):
    """A live inventory on a ``Network``, published through a ``SnapshotHub``."""
    network = Network(Simulator(seed=int(rng.integers(2**31))))
    inventory = AssetInventory(network)
    for _ in range(n_nodes):
        sensing = [MODALITIES, CAMERA, MODALITIES | CAMERA][int(rng.integers(3))]
        profile = CapabilityProfile(
            "oracle",
            sensing=sensing,
            sensing_range_m=float(rng.choice([0.0, 30.0, 80.0, 150.0])),
            compute_flops=float(rng.choice([0.0, 1e6, 1e8])),
        )
        inventory.create(
            profile, Point(*rng.uniform(0.0, FIELD_M, 2)), with_battery=bool(rng.random() < 0.7)
        )
    return network, inventory, SnapshotHub(inventory, min_refresh_s=3600.0)


def change_the_world(kind, rng, network, inventory):
    """One of the changes a republish follows: churn, capture, drain or a move."""
    assets = inventory.all()
    asset = assets[int(rng.integers(len(assets)))]
    if kind == "churn":
        if network.node(asset.node_id).up:
            network.fail_node(asset.node_id)
        else:
            network.restore_node(asset.node_id)
    elif kind == "capture":
        asset.captured = not asset.captured
    elif kind == "drain" and asset.battery is not None:
        # A share above what is left depletes the battery, which fails its node.
        share = float(rng.choice([0.01, 0.4, 2.0]))
        asset.battery.drain_radio(share * asset.battery.capacity_j / asset.battery.tx_j_per_bit, 0.0)
    elif kind == "move":
        network.set_position(asset.node_id, Point(*rng.uniform(0.0, FIELD_M, 2)))


@given(
    seed=st.integers(0, 2**31 - 1),
    n_nodes=st.integers(4, 30),
    energy_aware=st.booleans(),
    changes=st.lists(st.sampled_from(["churn", "capture", "drain", "move"]), min_size=1, max_size=6),
    n_sensors=st.integers(1, 4),
    coverage_target=st.sampled_from([0.3, 0.6, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_one_composer_across_epochs_and_pools_equals_a_fresh_reference(
    seed, n_nodes, energy_aware, changes, n_sensors, coverage_target
):
    """Every answer of one long-lived composer equals a fresh reference's.

    Per epoch it composes: two modality sets over one area and a second
    area on the epoch's tuple pool; the same tuple with the last epoch's
    topology; a list pool refilled in place, before and after some of it is
    dropped, on one topology; and one tuple of live assets, before and
    after one of their nodes moves.
    """
    rng = np.random.default_rng(seed)
    network, inventory, hub = live_world(rng, n_nodes)
    areas = []
    for _ in range(2):
        x0, y0 = rng.uniform(0.0, FIELD_M / 2.0, 2)
        areas.append(Region(x0, y0, x0 + rng.uniform(50.0, FIELD_M / 2.0), y0 + rng.uniform(50.0, FIELD_M / 2.0)))
    wants = [
        requirements_over(area, modalities, n_sensors=n_sensors, coverage_target=coverage_target)
        for area, modalities in ((areas[0], MODALITIES), (areas[0], CAMERA), (areas[1], MODALITIES))
    ]
    composer = GreedyComposer(energy_aware=energy_aware)
    live = tuple(inventory.all())
    listed = []

    def check(requirements, candidates, topology):
        got = composer.compose(requirements, candidates, topology)
        want = ReferenceComposer(energy_aware=energy_aware).compose(
            requirements, list(candidates), topology
        )
        assert got == want

    last = None
    for kind in [None] + changes:
        if kind is not None:
            change_the_world(kind, rng, network, inventory)
        snapshot = hub.publish()
        pool, topology = tuple(snapshot.pool()), snapshot.topology
        if not pool:
            continue
        for requirements in wants:
            check(requirements, pool, topology)
        if last is not None:
            check(wants[0], pool, last.topology)
        listed[:] = pool
        check(wants[0], listed, topology)
        del listed[:: 2 + int(rng.integers(3))]
        if listed:
            check(wants[0], listed, topology)
        check(wants[1], live, topology)
        mover = live[int(rng.integers(len(live)))]
        network.set_position(mover.node_id, Point(*rng.uniform(0.0, FIELD_M, 2)))
        check(wants[1], live, topology)
        last = snapshot


# ------------------------------------------------- the ledger's 1k inventory


def ledger_world(seed):
    """The world, goals and churn victims of the perf ledger's
    ``service_churn_1k`` (benchmarks/ledger/workloads.py, ``ServiceChurn``)."""
    n_assets, n_goals, side, churn_share = 1000, 6, 0.35, 0.02
    rng = np.random.default_rng([seed, 6])
    rng.permutation(n_goals)  # the rank -> goal map; drawn before the churn seed
    churn_rng = np.random.default_rng(int(rng.integers(0, 2**31)))
    scenario = (
        ScenarioBuilder(Simulator(seed=seed))
        .urban_grid(blocks=int(math.sqrt(n_assets / 2.0)), block_size_m=100.0, density=0.4)
        .population(n_blue=n_assets, n_red=0, n_gray=0)
        .build()
    )
    region = scenario.region
    width, height = region.x_max - region.x_min, region.y_max - region.y_min
    goals = [
        MissionGoal(
            MissionType.SURVEIL,
            Region(
                region.x_min + x0 * width,
                region.y_min + y0 * height,
                region.x_min + (x0 + side) * width,
                region.y_min + (y0 + side) * height,
            ),
            min_coverage=0.3,
            modalities=MODALITIES,
        )
        for x0 in (0.0, (1.0 - side) / 2.0, 1.0 - side)
        for y0 in (0.0, 1.0 - side)
    ]
    network = scenario.inventory.network

    def churn():
        up = sorted(n.id for n in network.up_nodes())
        for node_id in churn_rng.choice(up, size=max(1, int(len(up) * churn_share)), replace=False):
            network.fail_node(int(node_id))

    return SnapshotHub(scenario.inventory, min_refresh_s=3600.0), goals, churn


#: ``exact.answers`` of ``run.py --workload service_churn_1k`` at the pinned
#: seed: the ledger's digest of {(goal, epoch): (sink, sensors)}, recomputed below.
_PINS = json.loads((Path(__file__).resolve().parents[2] / "tools" / "pins.json").read_text())
LEDGER_ANSWERS = {_PINS["seed"]: _PINS["cells"]["service_churn_1k"]["exact"]["exact.answers"]}


@pytest.mark.parametrize("seed", sorted(LEDGER_ANSWERS))
def test_ledger_inventory_composites_equal_reference_at_both_epochs(seed):
    hub, goals, churn = ledger_world(seed)
    requirements = [compile_goal(goal) for goal in goals]
    composer = GreedyComposer()  # one instance across goals and epochs, as the service holds it
    answers = {}
    for epoch in (1, 2):
        snapshot = hub.publish()  # epoch 2 is republished from epoch 1's link table
        assert snapshot.epoch == epoch
        pool = snapshot.pool()
        assert len(pool) == (1000 if epoch == 1 else 980)
        for index, req in enumerate(requirements):
            got = composer.compose(req, pool, snapshot.topology)
            want = ReferenceComposer().compose(req, pool, snapshot.topology)
            assert (got.sink, got.sensors, got.compute, got.relays) == (
                want.sink, want.sensors, want.compute, want.relays
            )
            assert (got.coverage, got.max_path_etx) == (want.coverage, want.max_path_etx)
            assert got == want
            assert got.sensors and got.relays and got.coverage >= 0.3
            answers[(index, epoch)] = (got.sink, tuple(got.sensors))
        churn()
    digest = hashlib.blake2b(repr(sorted(answers.items())).encode(), digest_size=8)
    assert digest.hexdigest() == LEDGER_ANSWERS[seed]


#: Every field a composite answers with, for all six goals at both epochs of
#: the ledger world: blake2b-8 of the sorted {(goal, epoch): (sink, sensors,
#: compute, relays, coverage, max_path_etx, connected_fraction)} repr, so
#: relays and each float are pinned to the bit, not only sink and sensors.
LEDGER_COMPOSITES = {7: "51c22dc2dec5d3e8", 12: "450ecdfe494df2ca"}


@pytest.mark.parametrize("seed", sorted(LEDGER_COMPOSITES))
def test_ledger_inventory_full_composites_are_pinned(seed):
    hub, goals, churn = ledger_world(seed)
    requirements = [compile_goal(goal) for goal in goals]
    composer = GreedyComposer()
    composites = {}
    for epoch in (1, 2):
        snapshot = hub.publish()
        pool = snapshot.pool()
        for index, req in enumerate(requirements):
            c = composer.compose(req, pool, snapshot.topology)
            composites[(index, epoch)] = (
                c.sink,
                tuple(c.sensors),
                tuple(c.compute),
                tuple(c.relays),
                c.coverage,
                c.max_path_etx,
                c.connected_fraction,
            )
        churn()
    digest = hashlib.blake2b(repr(sorted(composites.items())).encode(), digest_size=8)
    assert digest.hexdigest() == LEDGER_COMPOSITES[seed]


def test_threads_through_one_composer_get_the_serial_answers():
    """The service composes on executor threads through one composer: three
    threads (more than this suite's runners have cores), two on one epoch's
    pool and one on the other's at once, each round with a fresh composer
    whose tables they race to fill."""
    hub, goals, churn = ledger_world(12)
    requirements = [compile_goal(goal) for goal in goals]
    epochs = []
    for _ in range(2):
        snapshot = hub.publish()
        epochs.append((tuple(snapshot.pool()), snapshot.topology))
        churn()
    serial = [
        [GreedyComposer().compose(req, list(pool), topology) for req in requirements]
        for pool, topology in epochs
    ]

    def compose_all(composer, epoch, start, out):
        start.wait(timeout=60)
        pool, topology = epochs[epoch]
        out.extend(composer.compose(req, pool, topology) for req in requirements)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the GIL over mid-compose
    try:
        for round_ in range(60):
            composer = GreedyComposer()
            picks = (0, 0, 1) if round_ % 2 else (1, 1, 0)
            start = threading.Barrier(len(picks))
            outs = [[] for _ in picks]
            threads = [
                threading.Thread(target=compose_all, args=(composer, epoch, start, out))
                for epoch, out in zip(picks, outs)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            for epoch, out in zip(picks, outs):
                assert out == serial[epoch], (round_, picks)
    finally:
        sys.setswitchinterval(interval)
