"""Fault injection: churn, link flaps, partitions, packet gremlins.

The paper's §III names failure and removal of assets as IoBT's *normal
operating regime*.  This package makes that regime a first-class, seeded,
schedulable object: :class:`FaultInjector` mints faults against one network,
:class:`FaultSchedule` runs them on a timeline (mirroring
:class:`~repro.security.attacks.AttackSchedule`), and
:mod:`repro.faults.metrics` turns the resulting trace into recovery numbers
(MTTR, availability timelines, delivery ratios inside/outside fault
windows).  Every stochastic choice draws from named ``sim.rng`` streams, so
a chaos run is exactly reproducible from its seed.
"""

from repro.faults.faults import (
    Fault,
    LinkFlapFault,
    NodeChurnFault,
    PartitionFault,
)
from repro.faults.gremlin import GremlinVerdict, PacketGremlin
from repro.faults.injector import FaultInjector, FaultSchedule
from repro.faults.metrics import (
    availability,
    downtime_intervals,
    fault_windows,
    mttr,
    windowed_delivery_ratio,
)

__all__ = [
    "Fault",
    "NodeChurnFault",
    "LinkFlapFault",
    "PartitionFault",
    "PacketGremlin",
    "GremlinVerdict",
    "FaultSchedule",
    "FaultInjector",
    "downtime_intervals",
    "mttr",
    "availability",
    "fault_windows",
    "windowed_delivery_ratio",
]
