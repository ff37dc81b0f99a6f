"""Kernel profiler: wall-clock attribution per event callback.

The discrete-event kernel fires every callback in the run, which makes it
the one choke point where wall time can be attributed without touching any
model code.  When a :class:`KernelProfiler` is attached
(``sim.enable_profiling()``), :meth:`Simulator.run` times each event fire
and charges it to a label: the callback's ``__qualname__``, or its
``repr`` when it has none.  Both queue lanes hold the callback itself, so
an event scheduled before profiling was switched on is labelled the same
way as one scheduled after.

Costs: *off* is one ``is None`` test per event; *on* adds two
``perf_counter`` calls and a dict upsert per event (~34% measured on an
empty-callback stress run, the worst case; real workloads amortize it —
see DESIGN.md §3.3), which is why it is opt-in.

Output: the sorted hot paths (:meth:`hot_paths`) and their sink-ready
records (:meth:`as_records`), which ``python -m repro.obs report`` renders
as its hot-path table.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = ["KernelProfiler"]


class KernelProfiler:
    """Accumulates ``label -> (calls, total wall seconds)``."""

    def __init__(self):
        self.enabled = True
        # label -> [calls, total_s]; a plain dict of 2-lists keeps the
        # per-event cost to one lookup and two in-place updates.
        self._stats: Dict[str, List[float]] = {}

    # ---------------------------------------------------------------- record

    def record(self, label: str, wall_s: float) -> None:
        entry = self._stats.get(label)
        if entry is None:
            self._stats[label] = [1, wall_s]
        else:
            entry[0] += 1
            entry[1] += wall_s

    # --------------------------------------------------------------- results

    @property
    def total_s(self) -> float:
        return sum(entry[1] for entry in self._stats.values())

    def hot_paths(self, n: int = 10) -> List[Tuple[str, int, float]]:
        """Top ``n`` labels by total wall time: ``(label, calls, total_s)``."""
        rows = [
            (label, int(entry[0]), entry[1])
            for label, entry in self._stats.items()
        ]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows[:n]

    def as_records(self) -> List[Dict[str, Any]]:
        """Sink-ready records, hottest first (cumulative totals)."""
        return [
            {
                "type": "profile",
                "label": label,
                "calls": calls,
                "wall_s": wall_s,
            }
            for label, calls, wall_s in self.hot_paths(len(self._stats))
        ]
