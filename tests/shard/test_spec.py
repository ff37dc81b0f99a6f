"""Routers the sharded engine refuses, each for the serial-only read it makes.

A router is shard-safe when it mutates per-node state only receive-side
(in the owner's shard) and draws only through the keyed hop RNG.  Every
registered router outside ``SHARD_SAFE_ROUTERS`` has a test here whose
docstring names the read that breaks that rule.
"""

from __future__ import annotations

import re

import pytest

from repro.net import registry
from repro.shard import SHARD_SAFE_ROUTERS, ShardConfigError, ShardScenarioSpec

EXCLUDED = ("geo", "epidemic", "spray_wait")


def assert_rejected(router: str) -> None:
    spec = ShardScenarioSpec(seed=1, kind="uniform", router=router)
    with pytest.raises(ShardConfigError, match=re.escape(f"router {router!r} is not shard-safe")):
        spec.validate()


def test_every_registered_router_is_safe_or_named_here():
    registry.factory("router", "flooding")  # loads the built-in routers
    assert sorted(set(registry._TABLES["router"]) - set(SHARD_SAFE_ROUTERS)) == sorted(EXCLUDED)


def test_geo_is_rejected():
    """``GreedyGeoRouter._forward`` picks a void detour from the router-wide
    ``sim.rng.get("geo")`` stream, whose position depends on every detour
    taken anywhere in the world."""
    assert_rejected("geo")


def test_epidemic_is_rejected():
    """``EpidemicRouter._contact`` reads the peer's bundle store and
    delivered ledger, which only the peer's owning shard keeps current."""
    assert_rejected("epidemic")


def test_spray_wait_is_rejected():
    """``SprayAndWaitRouter._contact`` reads the peer's bundle store and
    delivered ledger, which only the peer's owning shard keeps current,
    before it sprays half a copy budget."""
    assert_rejected("spray_wait")
