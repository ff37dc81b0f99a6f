"""The composers against what their algorithms promise, not against their own outputs.

* Greedy max-coverage with a budget of k sensors covers at least
  (1 - 1/e) of the best k-subset (Nemhauser, Wolsey & Fisher 1978); the
  optimum is found here by brute force over every k-subset of at most 14
  sensors, with coverage measured point by point.
* ``AnnealingComposer`` keeps the best composite it has seen, starting from
  its greedy seed, so it never scores below that seed.
"""

import dataclasses
import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mission import MissionGoal, MissionType
from repro.core.synthesis import (
    AnnealingComposer,
    GreedyComposer,
    compile_goal,
    evaluate_composite,
)
from repro.net.node import Network
from repro.net.topology import build_topology
from repro.service.snapshot import SnapshotAsset
from repro.sim import Simulator
from repro.things.asset import Affiliation
from repro.things.capabilities import CapabilityProfile, SensingModality
from repro.util.geometry import Point, Region, distance

MODALITIES = frozenset({SensingModality.SEISMIC})
FIELD_M = 500.0


def world(seed, n_sensors):
    """``n_sensors`` sensors of mixed range over a field, an area inside it, a topology."""
    rng = np.random.default_rng(seed)
    network = Network(Simulator(seed=seed))
    pool = []
    for node_id in range(n_sensors):
        position = Point(*rng.uniform(0.0, FIELD_M, 2))
        network.create_node(node_id, position)
        profile = CapabilityProfile(
            "probe",
            sensing=MODALITIES,
            sensing_range_m=float(rng.choice([40.0, 80.0, 120.0, 200.0])),
            compute_flops=float(rng.choice([1e6, 1e8])),
        )
        pool.append(SnapshotAsset(node_id, node_id, position, profile, Affiliation.BLUE, None))
    x0, y0 = rng.uniform(0.0, FIELD_M / 2.0, 2)
    width, height = rng.uniform(50.0, FIELD_M / 2.0, 2)
    area = Region(x0, y0, x0 + width, y0 + height)
    return pool, area, build_topology(network)


def requirements(area, *, n_sensors, coverage_target):
    goal = MissionGoal(MissionType.SURVEIL, area, min_coverage=0.5, modalities=MODALITIES)
    return dataclasses.replace(
        compile_goal(goal), n_sensors=n_sensors, coverage_target=coverage_target
    )


def pointwise_mask(asset, area):
    mask = 0
    for i, point in enumerate(area.grid_points(16, 16)):
        if distance(asset.position, point) <= asset.profile.sensing_range_m:
            mask |= 1 << i
    return mask


def covered(masks):
    union = 0
    for mask in masks:
        union |= mask
    return union.bit_count()


@given(seed=st.integers(0, 2**31 - 1), n_sensors=st.integers(1, 14), k=st.integers(1, 6))
@settings(max_examples=120, deadline=None)
def test_greedy_covers_at_least_1_minus_1_over_e_of_the_best_k_subset(seed, n_sensors, k):
    pool, area, topology = world(seed, n_sensors)
    k = min(k, n_sensors)
    # Unweighted (energy_aware off), a budget of exactly k, and a target that
    # never stops it early: the textbook greedy.
    req = requirements(area, n_sensors=k, coverage_target=1.0)
    composite = GreedyComposer(max_sensor_surplus=1.0).compose(req, pool, topology)
    assert len(composite.sensors) <= k
    masks = {a.id: pointwise_mask(a, area) for a in pool}
    greedy = covered(masks[s] for s in composite.sensors)
    best = max(covered(masks[a] for a in subset) for subset in itertools.combinations(masks, k))
    assert greedy >= (1.0 - 1.0 / math.e) * best
    assert composite.coverage == greedy / 256


@given(
    seed=st.integers(0, 2**31 - 1),
    n_sensors=st.integers(2, 14),
    k=st.integers(1, 4),
    coverage_target=st.sampled_from([0.3, 0.6, 0.9, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_annealing_never_scores_below_its_greedy_seed(seed, n_sensors, k, coverage_target):
    pool, area, topology = world(seed, n_sensors)
    req = requirements(area, n_sensors=k, coverage_target=coverage_target)
    seed_score = evaluate_composite(GreedyComposer().compose(req, pool, topology))
    annealer = AnnealingComposer(np.random.default_rng(seed), iterations=40)
    annealed = annealer.compose(req, pool, topology)
    assert evaluate_composite(annealed) >= seed_score
