"""Scenario construction: worlds, asset populations, targets, workloads."""

from repro.scenarios.builder import Scenario, ScenarioBuilder
from repro.scenarios.urban import UrbanGrid
from repro.scenarios.workloads import EventField, Target, TargetGroup

__all__ = [
    "Scenario",
    "ScenarioBuilder",
    "UrbanGrid",
    "Target",
    "TargetGroup",
    "EventField",
]
