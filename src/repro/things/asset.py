"""Assets: battlefield things bound to network nodes.

An :class:`Asset` joins a capability profile, an affiliation (blue / red /
gray), optional sensors/actuators/human models, an energy budget,
and a duty cycle (intermittent presence) around one :class:`NetNode`.
The :class:`AssetInventory` is the queryable population that discovery and
composition operate over.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.net.node import NetNode, Network
from repro.things.actuators import Actuator
from repro.things.capabilities import (
    ActuationType,
    CapabilityProfile,
    SensingModality,
)
from repro.things.energy import Battery
from repro.things.humans import HumanSource
from repro.things.sensors import Sensor
from repro.util.geometry import Point

__all__ = ["Affiliation", "Asset", "AssetInventory"]


class Affiliation(Enum):
    """Who controls the asset (the paper's blue/red/gray trichotomy)."""

    BLUE = "blue"
    RED = "red"
    GRAY = "gray"


class Asset:
    """One battlefield thing.

    ``duty_cycle`` < 1 models intermittent presence: the asset is reachable
    only a fraction of the time (its radio sleeps), which is what makes
    discovery of cyberphysical assets hard (§III-A of the paper).
    """

    def __init__(
        self,
        asset_id: int,
        node: NetNode,
        profile: CapabilityProfile,
        affiliation: Affiliation = Affiliation.BLUE,
        *,
        duty_cycle: float = 1.0,
        battery: Optional[Battery] = None,
        human: Optional[HumanSource] = None,
    ):
        if not (0.0 < duty_cycle <= 1.0):
            raise ConfigurationError("duty_cycle must be in (0, 1]")
        self.id = asset_id
        self.node = node
        self.profile = profile
        self.affiliation = affiliation
        self.duty_cycle = duty_cycle
        self.battery = battery
        self.human = human
        self.sensors: List[Sensor] = []
        self.actuators: List[Actuator] = []
        self.captured = False  # red takeover of a formerly blue/gray asset
        if battery is not None:
            node.energy_hook = battery.drain_radio

    # ------------------------------------------------------------- properties

    @property
    def node_id(self) -> int:
        return self.node.id

    @property
    def position(self) -> Point:
        return self.node.position

    @property
    def alive(self) -> bool:
        dead_battery = self.battery is not None and self.battery.depleted
        return self.node.up and not dead_battery

    @property
    def hostile(self) -> bool:
        """True for assets under adversary control."""
        return self.affiliation is Affiliation.RED or self.captured

    # ------------------------------------------------------------ attachments

    def add_sensor(self, modality: SensingModality, **kwargs) -> Sensor:
        if not self.profile.can_sense(modality):
            raise ConfigurationError(
                f"{self.profile.device_class} cannot sense {modality.value}"
            )
        sensor = Sensor(
            self.node.id, modality, self.profile.sensing_range_m, **kwargs
        )
        self.sensors.append(sensor)
        return sensor

    def add_default_sensors(self) -> List[Sensor]:
        """Attach one sensor per modality in the capability profile."""
        return [
            self.add_sensor(m)
            for m in sorted(self.profile.sensing, key=lambda m: m.value)
        ]

    def add_actuator(self, kind: ActuationType, **kwargs) -> Actuator:
        if not self.profile.can_actuate(kind):
            raise ConfigurationError(
                f"{self.profile.device_class} cannot actuate {kind.value}"
            )
        actuator = Actuator(self.node.id, kind, **kwargs)
        self.actuators.append(actuator)
        return actuator

    def is_awake(self, rng: np.random.Generator) -> bool:
        """Duty-cycle draw: is the radio listening right now?"""
        return self.duty_cycle >= 1.0 or rng.random() < self.duty_cycle

    def __repr__(self) -> str:
        return (
            f"Asset({self.id}, {self.profile.device_class}, "
            f"{self.affiliation.value}, node={self.node.id})"
        )


class AssetInventory:
    """The asset population of one scenario, indexed for composition queries."""

    def __init__(self, network: Network):
        self.network = network
        self._assets: Dict[int, Asset] = {}
        self._by_node: Dict[int, Asset] = {}
        self._next_id = itertools.count(1)

    def create(
        self,
        profile: CapabilityProfile,
        position: Point,
        affiliation: Affiliation = Affiliation.BLUE,
        *,
        duty_cycle: float = 1.0,
        with_battery: bool = True,
        human: Optional[HumanSource] = None,
        node_id: Optional[int] = None,
    ) -> Asset:
        """Create an asset plus its backing network node."""
        asset_id = next(self._next_id)
        nid = node_id if node_id is not None else asset_id
        node = self.network.create_node(
            nid,
            position,
            tx_power_dbm=profile.tx_power_dbm,
            bitrate_bps=profile.bandwidth_bps,
        )
        battery = None
        if with_battery:
            battery = Battery(
                profile.battery_j,
                on_depleted=lambda n=nid: self.network.fail_node(n),
            )
        asset = Asset(
            asset_id,
            node,
            profile,
            affiliation,
            duty_cycle=duty_cycle,
            battery=battery,
            human=human,
        )
        self._assets[asset_id] = asset
        self._by_node[nid] = asset
        return asset

    def get(self, asset_id: int) -> Asset:
        return self._assets[asset_id]

    def by_node(self, node_id: int) -> Optional[Asset]:
        return self._by_node.get(node_id)

    def all(self) -> List[Asset]:
        return list(self._assets.values())

    def __iter__(self) -> Iterator[Asset]:
        return iter(self._assets.values())

    def __len__(self) -> int:
        return len(self._assets)

    # --------------------------------------------------------------- querying

    def select(
        self,
        *,
        affiliation: Optional[Affiliation] = None,
        modality: Optional[SensingModality] = None,
        actuation: Optional[ActuationType] = None,
        min_compute_flops: float = 0.0,
        alive_only: bool = True,
        device_class: Optional[str] = None,
    ) -> List[Asset]:
        """Filter the inventory on capability/affiliation predicates."""
        out = []
        for asset in self._assets.values():
            if alive_only and not asset.alive:
                continue
            if affiliation is not None and asset.affiliation is not affiliation:
                continue
            if modality is not None and not asset.profile.can_sense(modality):
                continue
            if actuation is not None and not asset.profile.can_actuate(actuation):
                continue
            if asset.profile.compute_flops < min_compute_flops:
                continue
            if device_class is not None and asset.profile.device_class != device_class:
                continue
            out.append(asset)
        return out

    def blue(self) -> List[Asset]:
        return self.select(affiliation=Affiliation.BLUE)

    def red(self) -> List[Asset]:
        return self.select(affiliation=Affiliation.RED, alive_only=False)

    def gray(self) -> List[Asset]:
        return self.select(affiliation=Affiliation.GRAY)

    def counts(self) -> Dict[str, int]:
        out = {a.value: 0 for a in Affiliation}
        for asset in self._assets.values():
            out[asset.affiliation.value] += 1
        return out
