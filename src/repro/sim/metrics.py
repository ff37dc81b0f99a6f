"""Metric recording for simulation runs.

Two flavors:

* :class:`TimeSeries` — timestamped samples of a named quantity.
* Counters — monotone event counts.

The :class:`MetricRecorder` is attached to each :class:`Simulator` and
timestamps samples with the virtual clock automatically.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

from repro.util.stats import RunningStats

__all__ = ["TimeSeries", "MetricRecorder"]


class TimeSeries:
    """Timestamped samples of one quantity, kept in arrival order.

    Simulation time is nondecreasing, so arrival order equals time order.
    """

    def __init__(self, name: str):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []
        self.stats = RunningStats()

    def add(self, time: float, value: float) -> None:
        self.times.append(float(time))
        self.values.append(float(value))
        self.stats.add(value)

    def window(
        self, t_start: float, t_end: float, *, include_end: bool = False
    ) -> List[float]:
        """Values sampled in ``[t_start, t_end)`` (or ``[t_start, t_end]``).

        Half-open by default, so adjacent windows tile without double
        counting even when samples share timestamps: the end bound uses
        ``bisect_left`` (samples *at* ``t_end`` belong to the next
        window).  ``include_end=True`` switches the end bound to
        ``bisect_right`` for a closed interval — the right call when the
        window edge is the run horizon and the final samples land exactly
        on it.  An inverted window (``t_end < t_start``) is empty.
        """
        lo = bisect.bisect_left(self.times, t_start)
        if include_end:
            hi = bisect.bisect_right(self.times, t_end)
        else:
            hi = bisect.bisect_left(self.times, t_end)
        return self.values[lo:hi] if hi > lo else []

    def time_average(self, horizon: Optional[float] = None) -> float:
        """Piecewise-constant time average (sample-and-hold).

        Treats each sample as holding until the next one; the final sample
        holds until ``horizon`` (defaults to the last sample time, in which
        case the final sample gets zero weight unless it is the only one).
        """
        if not self.values:
            return float("nan")
        if len(self.values) == 1:
            return self.values[0]
        end = horizon if horizon is not None else self.times[-1]
        total = 0.0
        span = 0.0
        for i in range(len(self.values)):
            t0 = self.times[i]
            t1 = self.times[i + 1] if i + 1 < len(self.times) else max(end, t0)
            dt = max(0.0, t1 - t0)
            total += self.values[i] * dt
            span += dt
        return total / span if span > 0 else self.values[-1]

class MetricRecorder:
    """Holds all metrics of one simulation run, keyed by name."""

    def __init__(self, sim: "Simulator"):  # noqa: F821
        self._sim = sim
        self._series: Dict[str, TimeSeries] = {}
        self._counters: Dict[str, float] = {}

    # ------------------------------------------------------------- time series

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def sample(self, name: str, value: float) -> None:
        """Record ``value`` for series ``name`` at the current virtual time."""
        self.series(name).add(self._sim.now, value)

    # ---------------------------------------------------------------- counters

    def incr(self, name: str, amount: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def counters(self) -> Dict[str, float]:
        return dict(self._counters)
