"""Discrete-event simulation kernel.

A small, deterministic DES engine: a heap-ordered callback scheduler
(:class:`Simulator`), the cancel handle it returns (:class:`Event`), and
metric/trace recording (:class:`MetricRecorder`, :class:`TraceLog`).
All higher layers (network, assets, services) run on this kernel.
"""

from repro.sim.event import Event
from repro.sim.kernel import Simulator
from repro.sim.metrics import MetricRecorder, TimeSeries
from repro.sim.trace import TraceLog, TraceRecord

__all__ = [
    "Event",
    "Simulator",
    "MetricRecorder",
    "TimeSeries",
    "TraceLog",
    "TraceRecord",
]
