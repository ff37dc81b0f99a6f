"""Wireless battlefield network substrate.

Provides the physical/link layers (log-distance channel with shadowing,
jamming, contention and ideal MACs), node and network containers, mobility
models, topology snapshots, and a family of routing/dissemination protocols
under :mod:`repro.net.routing`.

Per-node protocol machinery is organized as an explicit layered pipeline
(:mod:`repro.net.stack`: PHY/channel -> MAC -> queue -> routing ->
transport -> app), and every swappable component (channels, MACs, routers,
mobility models, transports) is addressable by string name through
:mod:`repro.net.registry`, so scenario builders and campaign sweeps can
compose stacks declaratively (``router="aodv"``, ``mac="csma"``).
"""

from repro.net.packet import Packet, PacketKind
from repro.net.channel import Channel, Jammer
from repro.net.node import NetNode, Network
from repro.net.mac import ContentionMac, IdealMac, MacAccess
from repro.net.stack import (
    LayerBase,
    NetworkStack,
    RouterPort,
    StackContext,
    TransportPort,
)
from repro.net.registry import (
    ComponentRegistry,
    ComposedStack,
    StackSpec,
    compose,
)
from repro.net.mobility import (
    MobilityModel,
    StaticMobility,
    RandomWaypoint,
    ManhattanGrid,
    GroupMobility,
    MobilityManager,
)
from repro.net.topology import TopologySnapshot, build_topology
from repro.net.transport import (
    MessageService,
    DeliveryReceipt,
    MessageFate,
    ReliableMessageService,
)

__all__ = [
    "Packet",
    "PacketKind",
    "Channel",
    "Jammer",
    "NetNode",
    "Network",
    "ContentionMac",
    "IdealMac",
    "MacAccess",
    "LayerBase",
    "NetworkStack",
    "RouterPort",
    "StackContext",
    "TransportPort",
    "ComponentRegistry",
    "ComposedStack",
    "StackSpec",
    "compose",
    "MobilityModel",
    "StaticMobility",
    "RandomWaypoint",
    "ManhattanGrid",
    "GroupMobility",
    "MobilityManager",
    "TopologySnapshot",
    "build_topology",
    "MessageService",
    "DeliveryReceipt",
    "MessageFate",
    "ReliableMessageService",
]
