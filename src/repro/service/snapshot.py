"""Snapshot-isolated inventory views for concurrent synthesis queries.

The live :class:`~repro.things.asset.AssetInventory` mutates continuously —
``repro.faults`` churns nodes, batteries deplete, attacks capture assets.
A query that read the live objects mid-compose would see a torn world
(a sensor alive during selection, dead during connectivity scoring).

:class:`SnapshotHub` publishes immutable epochs instead: each
:class:`InventorySnapshot` carries frozen per-asset records
(:class:`SnapshotAsset` — position, profile, battery fraction copied at
publish time) plus a :class:`~repro.net.topology.TopologySnapshot` built
at the same instant.  Queries capture ``hub.current()`` once at admission
and compose against that epoch no matter what happens underneath —
copy-on-write at epoch granularity.

The hub subscribes to node-lifecycle transitions, so fault churn marks it
dirty, and it notices moved nodes and jamming changes by comparing
``(network.topology_version, channel.jam_signature())`` with the value the
current epoch was built under; ``current()`` republishes lazily,
rate-limited by ``min_refresh_s``.  The same pair of values guards the
hub's table of neighbour-pair delivery probabilities: while it holds, an
epoch re-derives only which links have both ends up, so publishing after
churn costs the nodes that are up, not a channel evaluation per link.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.node import Network
from repro.net.topology import TopologySnapshot, build_topology
from repro.things.asset import Affiliation, AssetInventory
from repro.things.capabilities import CapabilityProfile
from repro.util.geometry import Point

__all__ = ["SnapshotBattery", "SnapshotAsset", "InventorySnapshot", "SnapshotHub"]


@dataclass(frozen=True)
class SnapshotBattery:
    """Battery state frozen at publish time."""

    fraction_remaining: float

    @property
    def depleted(self) -> bool:
        return self.fraction_remaining <= 0.0


@dataclass(frozen=True)
class SnapshotAsset:
    """One asset as it looked at the snapshot instant.

    Structurally compatible with :class:`~repro.things.asset.Asset` for
    everything the composers read (``id``, ``node_id``, ``position``,
    ``profile``, ``battery``, ``alive``, ``affiliation``) but immutable:
    churn after the snapshot cannot change what a query sees.
    """

    id: int
    node_id: int
    position: Point
    profile: CapabilityProfile  # frozen dataclass, safe to share
    affiliation: Affiliation
    battery: Optional[SnapshotBattery]
    alive: bool = True

    @property
    def hostile(self) -> bool:
        return self.affiliation is Affiliation.RED


def _freeze_asset(asset) -> SnapshotAsset:
    battery = None
    if asset.battery is not None:
        battery = SnapshotBattery(float(asset.battery.fraction_remaining))
    return SnapshotAsset(
        id=asset.id,
        node_id=asset.node_id,
        position=asset.position,
        profile=asset.profile,
        affiliation=asset.affiliation,
        battery=battery,
        alive=True,
    )


@dataclass(frozen=True)
class InventorySnapshot:
    """One immutable epoch: frozen assets plus the matching topology."""

    epoch: int
    time: float          # sim time at publish
    wall_time: float     # wall clock at publish (staleness accounting)
    assets: Tuple[SnapshotAsset, ...]
    topology: TopologySnapshot

    def pool(self, *, blue_only: bool = True) -> List[SnapshotAsset]:
        """The recruitable candidate pool of this epoch."""
        if not blue_only:
            return list(self.assets)
        return [a for a in self.assets if a.affiliation is Affiliation.BLUE]

    @property
    def size(self) -> int:
        return len(self.assets)


class SnapshotHub:
    """Publisher of inventory epochs over one live inventory + network.

    ``publish()`` builds a fresh epoch eagerly; ``current()`` returns the
    latest epoch, republishing first when the world changed (node churn)
    and at least ``min_refresh_s`` of wall time has passed since the last
    build.  Publishing is synchronous and single-threaded by design: the
    asyncio service calls it from the event loop, queries hold references
    to whatever epoch they were admitted under.
    """

    def __init__(
        self,
        inventory: AssetInventory,
        *,
        network: Optional[Network] = None,
        min_refresh_s: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.inventory = inventory
        self.network = network if network is not None else inventory.network
        self.min_refresh_s = min_refresh_s
        self._clock = clock
        self._epoch = 0
        self._current: Optional[InventorySnapshot] = None
        self._dirty = True
        self._last_build = -float("inf")
        # Neighbour-pair delivery probabilities carried from epoch to epoch
        # (see build_topology), and the world state they were measured in.
        self._link_p: Dict[int, Dict[int, float]] = {}
        self._link_token: Optional[Tuple] = None
        self.publishes = 0
        self.network.on_node_state(self._on_node_state)

    def _on_node_state(self, node_id: int, up: bool) -> None:
        self._dirty = True

    def mark_dirty(self) -> None:
        """Force the next ``current()`` to republish (inventory mutated)."""
        self._dirty = True

    def _world_token(self) -> Tuple:
        """Changes whenever a node moves, joins or leaves, or jamming changes."""
        network = self.network
        return (network.topology_version, network.channel.jam_signature())

    def publish(self) -> InventorySnapshot:
        """Build and install a new epoch from the live world, right now.

        Up/down flips since the last epoch cost a pass over the up nodes with
        every surviving link's probability read from the table; anything that
        changes :meth:`_world_token` drops the table and is measured afresh.
        """
        token = self._world_token()
        if token != self._link_token:
            self._link_p = {}
            self._link_token = token
        self._epoch += 1
        assets = tuple(
            _freeze_asset(a) for a in self.inventory.all() if a.alive
        )
        snapshot = InventorySnapshot(
            epoch=self._epoch,
            time=self.network.sim.now,
            wall_time=self._clock(),
            assets=assets,
            topology=build_topology(self.network, link_p=self._link_p),
        )
        self._current = snapshot
        self._dirty = False
        self._last_build = self._clock()
        self.publishes += 1
        return snapshot

    def current(self) -> InventorySnapshot:
        """Latest epoch, lazily refreshed when the world changed (a liveness
        flip, ``mark_dirty()``, a moved node, jamming) and it is old enough."""
        if self._current is None:
            return self.publish()
        if (
            self._dirty or self._world_token() != self._link_token
        ) and self._clock() - self._last_build >= self.min_refresh_s:
            return self.publish()
        return self._current

    @property
    def epoch(self) -> int:
        return self._epoch
