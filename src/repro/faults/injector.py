"""Fault orchestration: the schedule and the injector facade.

:class:`FaultSchedule` is the timeline container (the analogue of
:class:`~repro.security.attacks.AttackSchedule`): faults registered on it
launch and cease at scheduled virtual times.  :class:`FaultInjector` is the
convenience facade experiments actually use — one object bound to a network
that mints correctly-wired faults, registers them on its schedule, and
answers recovery questions (MTTR, availability) from the trace afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.faults.faults import (
    Fault,
    LinkFlapFault,
    NodeChurnFault,
    PartitionFault,
)
from repro.faults.gremlin import PacketGremlin
from repro.faults.metrics import availability, mttr
from repro.net.node import Network

__all__ = ["FaultSchedule", "FaultInjector"]


@dataclass
class FaultSchedule:
    """A named timeline of faults, applied to one network."""

    network: Network
    entries: List[Fault] = field(default_factory=list)

    def add(
        self, fault: Fault, start_s: float, duration_s: Optional[float] = None
    ) -> Fault:
        fault.schedule(start_s, duration_s)
        self.entries.append(fault)
        return fault


class FaultInjector:
    """Facade for building a chaos timeline against one network.

    >>> injector = FaultInjector(network)          # doctest: +SKIP
    >>> injector.node_churn(mtbf_s=300, mean_downtime_s=60)
    >>> injector.partition_spatial(start_s=120, duration_s=60)
    >>> injector.gremlin(drop_p=0.05)
    >>> sim.run(until=600)
    >>> injector.mttr()
    """

    def __init__(self, network: Network, schedule: Optional[FaultSchedule] = None):
        self.network = network
        self.sim = network.sim
        self.schedule = schedule if schedule is not None else FaultSchedule(network)

    # ------------------------------------------------------------- fault mint

    def node_churn(
        self,
        node_ids: Optional[Sequence[int]] = None,
        *,
        mtbf_s: float = 300.0,
        mean_downtime_s: float = 60.0,
        start_s: float = 0.0,
        duration_s: Optional[float] = None,
    ) -> NodeChurnFault:
        fault = NodeChurnFault(
            self.network, node_ids, mtbf_s=mtbf_s, mean_downtime_s=mean_downtime_s
        )
        self.schedule.add(fault, start_s, duration_s)
        return fault

    def link_flaps(
        self,
        links: Optional[Sequence[Tuple[int, int]]] = None,
        *,
        n_links: int = 5,
        mtbf_s: float = 120.0,
        mean_downtime_s: float = 30.0,
        start_s: float = 0.0,
        duration_s: Optional[float] = None,
    ) -> LinkFlapFault:
        fault = LinkFlapFault(
            self.network,
            links,
            n_links=n_links,
            mtbf_s=mtbf_s,
            mean_downtime_s=mean_downtime_s,
        )
        self.schedule.add(fault, start_s, duration_s)
        return fault

    def partition(
        self,
        groups: Sequence[Sequence[int]],
        *,
        start_s: float = 0.0,
        duration_s: Optional[float] = None,
    ) -> PartitionFault:
        fault = PartitionFault(self.network, groups)
        self.schedule.add(fault, start_s, duration_s)
        return fault

    def partition_spatial(
        self,
        *,
        axis: str = "x",
        start_s: float = 0.0,
        duration_s: Optional[float] = None,
    ) -> PartitionFault:
        fault = PartitionFault.split_spatial(self.network, axis=axis)
        self.schedule.add(fault, start_s, duration_s)
        return fault

    def gremlin(
        self,
        *,
        start_s: float = 0.0,
        duration_s: Optional[float] = None,
        **knobs,
    ) -> PacketGremlin:
        fault = PacketGremlin(self.network, **knobs)
        self.schedule.add(fault, start_s, duration_s)
        return fault

    # ------------------------------------------------------- recovery metrics

    def mttr(self) -> float:
        """Mean time to repair over completed down intervals (trace-driven)."""
        return mttr(self.sim.trace)

    def availability(self, horizon_s: Optional[float] = None) -> float:
        """Mean fraction of node-time spent up over the run."""
        return availability(
            self.sim.trace,
            len(self.network.nodes),
            horizon_s if horizon_s is not None else self.sim.now,
        )
