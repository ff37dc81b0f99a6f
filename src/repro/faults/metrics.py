"""Recovery metrics computed from the trace.

Faults and the network both emit structured trace records
(``fault.launch``/``fault.cease``, ``net.node_down``/``net.node_up``), so
recovery questions — how long did repairs take, how much node-time was
lost, how did delivery fare inside fault windows vs. outside — are answered
from the trace alone, without instrumenting the subsystem under test.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.trace import TraceLog

__all__ = [
    "downtime_intervals",
    "mttr",
    "availability",
    "fault_windows",
    "windowed_delivery_ratio",
]

Window = Tuple[float, float]


def downtime_intervals(
    trace: TraceLog, *, until: Optional[float] = None
) -> Dict[int, List[Window]]:
    """Per-node ``(down_at, up_at)`` intervals from liveness trace records.

    Nodes still down at the end of the trace get an interval closed at
    ``until`` (default: the time of the last record).
    """
    end = until
    if end is None:
        end = trace.records[-1].time if trace.records else 0.0
    open_at: Dict[int, float] = {}
    intervals: Dict[int, List[Window]] = {}
    for rec in trace.records:
        if rec.category == "net.node_down":
            open_at.setdefault(rec.get("node"), rec.time)
        elif rec.category == "net.node_up":
            node = rec.get("node")
            start = open_at.pop(node, None)
            if start is not None:
                intervals.setdefault(node, []).append((start, rec.time))
    for node, start in open_at.items():
        intervals.setdefault(node, []).append((start, max(end, start)))
    return intervals


def mttr(trace: TraceLog, *, until: Optional[float] = None) -> float:
    """Mean time to repair across completed down/up cycles.

    NaN when no node ever recovered (nothing to average).
    """
    repairs: List[float] = []
    open_at: Dict[int, float] = {}
    for rec in trace.records:
        if until is not None and rec.time > until:
            break
        if rec.category == "net.node_down":
            open_at.setdefault(rec.get("node"), rec.time)
        elif rec.category == "net.node_up":
            start = open_at.pop(rec.get("node"), None)
            if start is not None:
                repairs.append(rec.time - start)
    if not repairs:
        return float("nan")
    return sum(repairs) / len(repairs)


def availability(trace: TraceLog, n_nodes: int, horizon_s: float) -> float:
    """Fraction of total node-time spent up over ``[0, horizon_s]``."""
    if n_nodes <= 0 or horizon_s <= 0:
        return float("nan")
    lost = 0.0
    for windows in downtime_intervals(trace, until=horizon_s).values():
        for start, end in windows:
            lost += max(0.0, min(end, horizon_s) - min(start, horizon_s))
    return 1.0 - lost / (n_nodes * horizon_s)


def fault_windows(
    trace: TraceLog, *, until: Optional[float] = None
) -> Dict[str, List[Window]]:
    """Launch/cease windows per fault name (attacks included via attack.*).

    A fault still active at the end of the trace gets a window closed at
    ``until`` (default: the last record's time).
    """
    end = until
    if end is None:
        end = trace.records[-1].time if trace.records else 0.0
    open_at: Dict[str, float] = {}
    windows: Dict[str, List[Window]] = {}
    for rec in trace.records:
        if rec.category in ("fault.launch", "attack.launch"):
            name = rec.get("fault", rec.get("attack"))
            open_at.setdefault(name, rec.time)
        elif rec.category in ("fault.cease", "attack.cease"):
            name = rec.get("fault", rec.get("attack"))
            start = open_at.pop(name, None)
            if start is not None:
                windows.setdefault(name, []).append((start, rec.time))
    for name, start in open_at.items():
        windows.setdefault(name, []).append((start, max(end, start)))
    return windows


def windowed_delivery_ratio(
    receipts: Iterable, windows: Iterable[Window], *, inside: bool = True
) -> float:
    """Delivery ratio restricted to messages sent inside (or outside) windows.

    Accepts any objects exposing ``sent_at`` and ``delivered`` — both
    :class:`~repro.net.transport.DeliveryReceipt` and
    :class:`~repro.net.transport.MessageFate` qualify.  NaN when no message
    falls in the requested regime.
    """
    windows = list(windows)
    total = delivered = 0
    for receipt in receipts:
        in_window = any(start <= receipt.sent_at < end for start, end in windows)
        if in_window != inside:
            continue
        total += 1
        if receipt.delivered:
            delivered += 1
    if total == 0:
        return float("nan")
    return delivered / total
