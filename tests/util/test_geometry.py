"""Tests for planar geometry primitives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.geometry import Point, Region, centroid, distance

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestPoint:
    def test_distance(self):
        assert distance(Point(0, 0), Point(3, 4)) == pytest.approx(5.0)

    def test_toward_partial(self):
        p = Point(0, 0).toward(Point(10, 0), 4)
        assert p == Point(4, 0)

    def test_toward_overshoot_clamps_to_target(self):
        assert Point(0, 0).toward(Point(1, 0), 100) == Point(1, 0)

    def test_toward_zero_distance(self):
        assert Point(2, 2).toward(Point(2, 2), 5) == Point(2, 2)

    def test_iter_unpacks(self):
        x, y = Point(7, 8)
        assert (x, y) == (7, 8)

    @given(finite, finite, finite, finite)
    def test_distance_symmetric(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert distance(a, b) == pytest.approx(distance(b, a))

    @given(finite, finite, finite, finite, finite, finite)
    def test_triangle_inequality(self, x1, y1, x2, y2, x3, y3):
        a, b, c = Point(x1, y1), Point(x2, y2), Point(x3, y3)
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6


class TestBearingCentroid:
    def test_centroid(self):
        c = centroid([Point(0, 0), Point(2, 0), Point(0, 2), Point(2, 2)])
        assert c == Point(1, 1)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])


class TestRegion:
    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Region(1, 0, 0, 5)

    def test_properties(self):
        r = Region(0, 0, 4, 2)
        assert r.width == 4
        assert r.height == 2
        assert r.area == 8
        assert r.center == Point(2, 1)

    def test_contains_boundary(self):
        r = Region(0, 0, 1, 1)
        assert r.contains(Point(0, 0))
        assert r.contains(Point(1, 1))
        assert not r.contains(Point(1.01, 0.5))

    def test_clamp(self):
        r = Region(0, 0, 10, 10)
        assert r.clamp(Point(-5, 20)) == Point(0, 10)
        assert r.clamp(Point(5, 5)) == Point(5, 5)

    def test_sample_inside(self):
        r = Region(-10, -10, 10, 10)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert r.contains(r.sample(rng))

    def test_grid_points_count_and_bounds(self):
        r = Region(0, 0, 100, 50)
        pts = r.grid_points(5, 3)
        assert len(pts) == 15
        assert all(r.contains(p) for p in pts)

    def test_grid_points_invalid(self):
        with pytest.raises(ValueError):
            Region(0, 0, 1, 1).grid_points(0, 2)
