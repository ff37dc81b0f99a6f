"""What a compose costs, counted rather than timed.

The service hands its composer one tuple pool per epoch.  Six composes on
that pool score the candidates for the sink once (one degree table read)
and gather the in-modality sensors' discs once per modality set; after 2%
churn and one moved node, a recompose of the same goals measures only the
sensors whose record changed.  The greedy composer holds the masks of the
sensors it chose, so it measures none while finalizing.  A list pool may be
mutated between calls, so it is measured in full on every call.  Counts
repeat exactly on any host, which a timing gate on a shared runner does not.
"""

import asyncio

import numpy as np
import pytest

from repro.core.mission import MissionGoal, MissionType
from repro.core.synthesis import GreedyComposer, compile_goal
from repro.core.synthesis import composer as composer_module
from repro.net.topology import TopologySnapshot
from repro.scenarios.builder import ScenarioBuilder
from repro.service import SnapshotHub, SynthesisQuery, SynthesisService
from repro.sim import Simulator
from repro.things.capabilities import SensingModality
from repro.util.geometry import Point, Region

N_ASSETS = 300
GROUND = frozenset({SensingModality.SEISMIC, SensingModality.ACOUSTIC})
CAMERA = frozenset({SensingModality.CAMERA})


def world():
    return (
        ScenarioBuilder(Simulator(seed=12))
        .urban_grid(blocks=12, block_size_m=100.0, density=0.4)
        .population(n_blue=N_ASSETS, n_red=0, n_gray=0)
        .build()
    )


def some_up(network, seed):
    """2% of the up nodes, drawn with ``seed``."""
    up = sorted(node.id for node in network.up_nodes())
    picked = np.random.default_rng(seed).choice(up, size=max(1, len(up) // 50), replace=False)
    return [int(node_id) for node_id in picked]


def goals(region):
    """Six goals: three areas, each asked with two modality sets."""
    width, height = region.x_max - region.x_min, region.y_max - region.y_min
    out = []
    for x0, y0 in ((0.0, 0.0), (0.3, 0.5), (0.6, 0.2)):
        area = Region(
            region.x_min + x0 * width,
            region.y_min + y0 * height,
            region.x_min + (x0 + 0.4) * width,
            region.y_min + (y0 + 0.4) * height,
        )
        for modalities in (GROUND, CAMERA):
            out.append(MissionGoal(MissionType.SURVEIL, area, min_coverage=0.3, modalities=modalities))
    return out


def in_modality(pool, modalities):
    return [
        a for a in pool if a.profile.sensing & modalities and a.profile.sensing_range_m > 0
    ]


@pytest.fixture
def counted(monkeypatch):
    """Every mask measurement, disc gathering, sink scoring and coverage call."""
    seen = {"measured": [], "gathers": 0, "discs": [], "degrees": 0, "coverage": 0}
    grid_class = composer_module._CoverageGrid
    real_masks, real_degrees = grid_class.masks, TopologySnapshot.degrees
    real_coverage = composer_module.coverage_fraction

    def masks(self, sensors, discs=None):
        seen["measured"].append([s.id for s in sensors])
        if discs is None:
            seen["gathers"] += 1  # masks() gathers the discs itself
            return real_masks(self, sensors)
        seen["discs"].append(discs)  # held, so no two share an id()
        return real_masks(self, sensors, discs)

    def degrees(self):
        seen["degrees"] += 1
        return real_degrees(self)

    def coverage_fraction(sensors, area):
        seen["coverage"] += 1
        return real_coverage(sensors, area)

    monkeypatch.setattr(grid_class, "masks", masks)
    monkeypatch.setattr(TopologySnapshot, "degrees", degrees)
    monkeypatch.setattr(composer_module, "coverage_fraction", coverage_fraction)

    def reset():
        seen.update(measured=[], gathers=0, discs=[], degrees=0, coverage=0)

    seen["reset"] = reset
    return seen


def gathered(counted):
    """How many times the sensors' discs were gathered: once per call that
    gathers its own, once per distinct set handed in."""
    return counted["gathers"] + len({id(discs) for discs in counted["discs"]})


def test_six_composes_on_one_pool_score_the_sink_once_and_gather_once_per_modality_set(counted):
    scenario = world()
    hub = SnapshotHub(scenario.inventory, min_refresh_s=3600.0)
    snapshot = hub.publish()
    pool = tuple(snapshot.pool())
    requirements = [compile_goal(goal) for goal in goals(scenario.region)]
    composer = GreedyComposer()
    counted["reset"]()
    composites = [composer.compose(req, pool, snapshot.topology) for req in requirements]

    assert all(c.sensors for c in composites)
    assert counted["degrees"] == 1
    assert gathered(counted) == 2  # GROUND and CAMERA
    # Each goal's area measured once, every in-modality sensor of the pool.
    assert counted["measured"] == [
        [a.id for a in in_modality(pool, req.modalities)] for req in requirements
    ]
    assert counted["coverage"] == 0  # nothing measured again to finalize


def test_a_recompose_after_churn_and_a_move_measures_only_the_changed_sensors(counted):
    scenario = world()
    network = scenario.network
    hub = SnapshotHub(scenario.inventory, min_refresh_s=3600.0)
    requirements = [compile_goal(goal) for goal in goals(scenario.region)]
    composer = GreedyComposer()
    first = hub.publish()
    pool = tuple(first.pool())
    for req in requirements:
        composer.compose(req, pool, first.topology)

    for node_id in some_up(network, 4):
        network.fail_node(node_id)
    mover = in_modality(pool, GROUND)[5]
    assert network.node(mover.node_id).up
    network.set_position(mover.node_id, Point(mover.position.x + 7.0, mover.position.y - 3.0))
    second = hub.publish()
    pool = tuple(second.pool())
    before = {a.id: a for a in first.assets}
    changed = {a.id for a in pool if before.get(a.id) is not a}
    assert changed == {mover.id}

    for req in requirements:
        want = GreedyComposer().compose(req, list(pool), second.topology)
        counted["reset"]()
        assert composer.compose(req, pool, second.topology) == want
        assert counted["degrees"] == (1 if req is requirements[0] else 0)
        assert gathered(counted) <= 1
        changed_here = [a.id for a in in_modality(pool, req.modalities) if a.id in changed]
        assert [ids for ids in counted["measured"] if ids] == ([changed_here] if changed_here else [])
        assert counted["coverage"] == 0


def test_a_list_pool_is_measured_in_full_on_every_call(counted):
    scenario = world()
    hub = SnapshotHub(scenario.inventory, min_refresh_s=3600.0)
    snapshot = hub.publish()
    pool = snapshot.pool()
    assert isinstance(pool, list)
    req = compile_goal(goals(scenario.region)[0])
    composer = GreedyComposer()
    counted["reset"]()
    for _ in range(3):
        composer.compose(req, pool, snapshot.topology)
    everyone = [a.id for a in in_modality(pool, GROUND)]
    assert counted["degrees"] == 3
    assert gathered(counted) == 3
    assert counted["measured"] == [everyone] * 3  # and nothing measured to finalize
    assert counted["coverage"] == 0


class Recorder:
    """A backend that hands every compose to a greedy composer and notes its pool."""

    def __init__(self):
        self.inner = GreedyComposer()
        self.pools = []

    def compose(self, requirements, candidates, topology):
        self.pools.append(candidates)
        return self.inner.compose(requirements, candidates, topology)


def test_the_service_hands_one_tuple_per_epoch_to_every_compose():
    scenario = world()
    hub = SnapshotHub(scenario.inventory, min_refresh_s=3600.0)
    hub.publish()
    backend = Recorder()
    queries = [SynthesisQuery(goal=goal, deadline_s=60.0) for goal in goals(scenario.region)]

    async def ask_all():
        async with SynthesisService(hub, backends={"greedy": backend}, max_retries=0) as service:
            first = [await service.submit(q) for q in queries]
            for node_id in some_up(scenario.network, 4):
                scenario.network.fail_node(node_id)
            hub.publish()
            second = [await service.submit(q) for q in queries]
        return first, second

    first, second = asyncio.run(ask_all())
    assert [o.epoch for o in first] == [1] * 6 and [o.epoch for o in second] == [2] * 6
    assert not any(o.cached for o in first + second)
    one, two = backend.pools[:6], backend.pools[6:]
    assert len(two) == 6 and isinstance(one[0], tuple) and isinstance(two[0], tuple)
    assert all(p is one[0] for p in one) and all(p is two[0] for p in two)
    assert two[0] is not one[0]


def test_kept_masks_are_capped_at_the_kept_grids():
    scenario = world()
    snapshot = SnapshotHub(scenario.inventory, min_refresh_s=3600.0).publish()
    pool = tuple(snapshot.pool())
    region = scenario.region
    composer = GreedyComposer()
    for k in range(composer_module._GRIDS_KEPT + 6):
        x0 = region.x_min + k
        area = Region(x0, region.y_min, x0 + 300.0, region.y_min + 300.0)
        goal = MissionGoal(MissionType.SURVEIL, area, min_coverage=0.3, modalities=GROUND)
        composer.compose(compile_goal(goal), pool, snapshot.topology)
    kept = list(composer._area_masks)
    assert len(kept) == composer_module._GRIDS_KEPT
    assert kept[-1][0] == area  # the oldest areas went first
