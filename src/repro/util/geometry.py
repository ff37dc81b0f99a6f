"""Planar geometry primitives used by mobility, sensing, and scenarios.

The battlefield is modeled as a 2-D region measured in meters.  Points are
immutable; regions are axis-aligned rectangles (sufficient for urban grids
and sparse terrain alike).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

import numpy as np

__all__ = ["Point", "Region", "distance", "centroid"]


@dataclass(frozen=True)
class Point:
    """An immutable 2-D point in meters."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def toward(self, other: "Point", step: float) -> "Point":
        """Return the point ``step`` meters from self toward ``other``.

        If ``other`` is closer than ``step``, returns ``other`` exactly.
        """
        total = self.distance_to(other)
        if total <= step or total == 0.0:
            return other
        frac = step / total
        return Point(
            self.x + (other.x - self.x) * frac,
            self.y + (other.y - self.y) * frac,
        )

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points in meters."""
    return a.distance_to(b)


def centroid(points: Iterable[Point]) -> Point:
    """Centroid of a non-empty collection of points."""
    pts = list(points)
    if not pts:
        raise ValueError("centroid of empty point set")
    return Point(
        sum(p.x for p in pts) / len(pts),
        sum(p.y for p in pts) / len(pts),
    )


@dataclass(frozen=True)
class Region:
    """An axis-aligned rectangular region ``[x_min, x_max] x [y_min, y_max]``."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(f"degenerate region: {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point(
            (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0
        )

    def contains(self, p: Point) -> bool:
        return (
            self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max
        )

    def clamp(self, p: Point) -> Point:
        """Project ``p`` onto the region (identity if already inside)."""
        return Point(
            min(max(p.x, self.x_min), self.x_max),
            min(max(p.y, self.y_min), self.y_max),
        )

    def sample(self, rng: np.random.Generator) -> Point:
        """Draw a uniform random point inside the region."""
        return Point(
            float(rng.uniform(self.x_min, self.x_max)),
            float(rng.uniform(self.y_min, self.y_max)),
        )

    def grid_points(self, nx: int, ny: int) -> Tuple[Point, ...]:
        """Return an ``nx * ny`` lattice of points covering the region."""
        if nx < 1 or ny < 1:
            raise ValueError("grid dimensions must be >= 1")
        xs = np.linspace(self.x_min, self.x_max, nx)
        ys = np.linspace(self.y_min, self.y_max, ny)
        return tuple(Point(float(x), float(y)) for y in ys for x in xs)
