"""Kernel profiler: wall-clock attribution per event callback.

The discrete-event kernel fires every callback in the run, which makes it
the one choke point where wall time can be attributed without touching any
model code.  When a :class:`KernelProfiler` is attached
(``sim.enable_profiling()``), :meth:`Simulator.run` times each event fire
and charges it to a label — the event's name when it has one (processes
and ``call_in``/``call_at`` stamp names while profiling is on), otherwise
the qualified name of its first callback.

Costs: *off* is one ``is None`` test per event; *on* adds two
``perf_counter`` calls and a dict upsert per event (~34% measured on an
empty-callback stress run, the worst case; real workloads amortize it —
see DESIGN.md §3.3), which is why it is opt-in.

Output: a sorted hot-path table (:meth:`render_table`) and a
collapsed-stack file (:meth:`write_collapsed`) directly consumable by
``flamegraph.pl`` / speedscope.
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

    @staticmethod
    def label_of(event: Any) -> str:
        """Attribution label for an event, computed *before* it fires
        (firing clears the callback list)."""
        if event.name:
            return event.name
        for fn in event._callbacks:
            qualname = getattr(fn, "__qualname__", None)
            if qualname:
                return qualname
        return "<anonymous-event>"

    # --------------------------------------------------------------- results

    @property
    def total_s(self) -> float:
        return sum(entry[1] for entry in self._stats.values())

    @property
    def total_calls(self) -> int:
        return int(sum(entry[0] for entry in self._stats.values()))

    def hot_paths(self, n: int = 10) -> List[Tuple[str, int, float]]:
        """Top ``n`` labels by total wall time: ``(label, calls, total_s)``."""
        rows = [
            (label, int(entry[0]), entry[1])
            for label, entry in self._stats.items()
        ]
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows[:n]

    def render_table(self, n: int = 10) -> str:
        """The sorted hot-path table as aligned text."""
        rows = self.hot_paths(n)
        total = self.total_s
        lines = [f"== kernel hot paths (top {len(rows)} of {len(self._stats)}) =="]
        lines.append(f"{'wall_s':>10}  {'share':>6}  {'calls':>9}  label")
        for label, calls, wall_s in rows:
            share = wall_s / total if total > 0 else 0.0
            lines.append(f"{wall_s:>10.4f}  {share:>6.1%}  {calls:>9d}  {label}")
        return "\n".join(lines)

    def collapsed_lines(self) -> List[str]:
        """Collapsed-stack lines (``sim;<label> <microseconds>``) for
        flamegraph tooling; deterministic (label-sorted) order."""
        return [
            f"sim;{label} {max(1, int(entry[1] * 1e6))}"
            for label, entry in sorted(self._stats.items())
        ]

    def write_collapsed(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.collapsed_lines()) + "\n")

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

    def reset(self) -> None:
        self._stats.clear()

    def __repr__(self) -> str:
        return (
            f"KernelProfiler(labels={len(self._stats)}, "
            f"calls={self.total_calls}, total={self.total_s:.4f}s)"
        )
