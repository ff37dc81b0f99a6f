"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ScenarioBuilder, Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def generators_built(monkeypatch):
    """Live list of the numpy bit-generator constructors called from here on.

    Constructing one costs more than a link's whole propagation math, so
    "how many" is a cost a test can require exactly where a timing cannot.
    """
    built = []
    for name in ("default_rng", "PCG64"):
        real = getattr(np.random, name)
        monkeypatch.setattr(
            np.random,
            name,
            lambda *a, _name=name, _real=real, **k: built.append(_name) or _real(*a, **k),
        )
    return built


@pytest.fixture
def small_scenario(sim):
    """A compact, well-connected urban scenario for integration tests."""
    scenario = (
        ScenarioBuilder(sim)
        .urban_grid(blocks=4, block_size_m=80.0, density=0.3)
        .population(n_blue=30, n_red=3, n_gray=8)
        .mobility(mobile_fraction=0.3)
        .targets(3)
        .events(12)
        .jammers(1)
        .build()
    )
    return scenario
