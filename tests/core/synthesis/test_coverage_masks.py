"""The batch coverage masks against the one-point-at-a-time definition, at the boundary.

A sample point is covered when ``distance(sensor, point) <= range``.  The
batch decides most points by squared distance and hands the ones whose
square is too close to ``range**2`` back to ``distance()``; these cases sit
exactly where the two could disagree: a sensor exactly one range from a
sample point, that range nudged one ulp either way, discs tangent to the
area rectangle, zero-width areas and coordinates up to 1e7.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.synthesis.composer import _grid_of, coverage_fraction
from repro.service.snapshot import SnapshotAsset
from repro.things.asset import Affiliation
from repro.things.capabilities import CapabilityProfile, SensingModality
from repro.util.geometry import Point, Region, distance


def sensor(position, range_m):
    return SnapshotAsset(
        id=0,
        node_id=0,
        position=position,
        profile=CapabilityProfile(
            "probe", sensing=frozenset({SensingModality.SEISMIC}), sensing_range_m=range_m
        ),
        affiliation=Affiliation.BLUE,
        battery=None,
    )


def reference_mask(position, range_m, area):
    mask = 0
    for i, point in enumerate(area.grid_points(16, 16)):
        if distance(position, point) <= range_m:
            mask |= 1 << i
    return mask


coords = st.floats(-1e7, 1e7, allow_nan=False, allow_infinity=False)
extents = st.one_of(st.just(0.0), st.floats(0.0, 500.0), st.floats(0.0, 1e7))
offsets = st.one_of(st.just(0.0), st.floats(-2e3, 2e3), st.floats(-1.0, 1.0))
nudges = st.sampled_from(["exact", "up", "down"])


@st.composite
def areas(draw):
    x0, y0 = draw(coords), draw(coords)
    return Region(x0, y0, x0 + draw(extents), y0 + draw(extents))


@st.composite
def boundary_sensors(draw, area):
    kind = draw(st.sampled_from(["on_point", "tangent", "free"]))
    points = area.grid_points(16, 16)
    if kind == "on_point":  # exactly one range from a sample point
        anchor = points[draw(st.integers(0, len(points) - 1))]
        position = Point(anchor.x + draw(offsets), anchor.y + draw(offsets))
        range_m = distance(position, anchor)
    elif kind == "tangent":  # the disc just reaches the rectangle
        anchor = area.clamp(Point(draw(coords), draw(coords)))
        side = draw(st.sampled_from([(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (1, 1)]))
        reach = abs(draw(offsets))
        position = Point(anchor.x + side[0] * reach, anchor.y + side[1] * reach)
        range_m = distance(position, area.clamp(position))
    else:
        position = Point(area.x_min + draw(offsets), area.y_max + draw(offsets))
        range_m = draw(st.floats(0.0, 3e3))
    nudge = draw(nudges)
    if nudge == "up":
        range_m = math.nextafter(range_m, math.inf)
    elif nudge == "down":
        range_m = math.nextafter(range_m, -math.inf)
    return sensor(position, range_m)


@st.composite
def worlds(draw):
    area = draw(areas())
    return area, draw(st.lists(boundary_sensors(area), min_size=1, max_size=6))


@given(world=worlds())
@settings(max_examples=400, deadline=None)
@example(world=(Region(0.0, 0.0, 150.0, 150.0), [sensor(Point(-30.0, 50.0), 30.0)]))
@example(world=(Region(1e7, -1e7, 1e7, -1e7 + 300.0), [sensor(Point(1e7 + 3.0, -1e7 + 4.0), 5.0)]))
def test_batch_masks_equal_the_pointwise_definition(world):
    area, sensors = world
    want = [reference_mask(s.position, s.profile.sensing_range_m, area) for s in sensors]
    assert _grid_of(area).masks(sensors) == want
    covered = 0
    for mask in want:
        covered |= mask
    assert coverage_fraction(sensors, area) == covered.bit_count() / 256


def test_tangent_discs_touch_one_point():
    # 16 x 16 samples of a 150 m square sit on multiples of 10 m.
    area = Region(0.0, 0.0, 150.0, 150.0)
    left, right = sensor(Point(-20.0, 0.0), 20.0), sensor(Point(170.0, 150.0), 20.0)
    corner = sensor(Point(-3.0, -4.0), 5.0)
    short = sensor(Point(-3.0, -4.0), math.nextafter(5.0, 0.0))
    assert _grid_of(area).masks([left, right, corner, short]) == [1, 1 << 255, 1, 0]


def test_one_grid_per_area():
    area = Region(0.0, 0.0, 150.0, 150.0)
    assert _grid_of(area) is _grid_of(Region(0.0, 0.0, 150.0, 150.0))
    assert not _grid_of(area).xs.flags.writeable
    assert _grid_of(area).masks([]) == []
