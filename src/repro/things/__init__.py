"""The "things" of the IoBT: sensors, actuators, humans, energy.

Assets wrap network nodes with battlefield semantics: an affiliation
(blue / red / gray), a capability profile, an energy budget, and attached
devices (sensors, actuators) or a human-source model.
"""

from repro.things.asset import Affiliation, Asset, AssetInventory
from repro.things.capabilities import (
    CapabilityProfile,
    SensingModality,
    ActuationType,
    DEVICE_CLASSES,
    make_profile,
)
from repro.things.sensors import Sensor, Environment, Detection
from repro.things.actuators import Actuator, ActuationRequest, SafetyInterlock
from repro.things.humans import HumanSource, Claim
from repro.things.energy import Battery

__all__ = [
    "Affiliation",
    "Asset",
    "AssetInventory",
    "CapabilityProfile",
    "SensingModality",
    "ActuationType",
    "DEVICE_CLASSES",
    "make_profile",
    "Sensor",
    "Environment",
    "Detection",
    "Actuator",
    "ActuationRequest",
    "SafetyInterlock",
    "HumanSource",
    "Claim",
    "Battery",
]
