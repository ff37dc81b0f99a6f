"""Plain-text result tables for the benchmark harness.

Each benchmark regenerates one experiment (E1..E15 in DESIGN.md) and prints
its series through a :class:`ResultTable`, so all experiments report in a
uniform, diff-friendly format.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["ResultTable", "json_safe"]


def json_safe(value: Any) -> Any:
    """Recursively replace non-finite floats (nan/inf) with ``None``.

    Metrics use NaN as the "no data" convention (e.g. delivery ratio with
    zero sends); raw NaN/Infinity is not valid JSON and silently breaks
    downstream parsers, so exported JSON is guarded through this filter.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 1e5 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


class ResultTable:
    """An append-only table with named columns, rendered as aligned text.

    >>> t = ResultTable("demo", ["n", "latency_s"])
    >>> t.add_row(n=10, latency_s=0.5)
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, title: str, columns: Sequence[str]):
        if not columns:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: List[Dict[str, Any]] = []
        #: Side-channel payload (e.g. campaign run telemetry) carried into
        #: to_json() but excluded from rendering and equality.
        self.meta: Dict[str, Any] = {}

    def add_row(self, **values: Any) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns: {sorted(unknown)}")
        self.rows.append({c: values.get(c, "") for c in self.columns})

    def render(self) -> str:
        cells = [[_fmt(row[c]) for c in self.columns] for row in self.rows]
        widths = [
            max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
            for i, c in enumerate(self.columns)
        ]
        lines = [f"== {self.title} =="]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:
        print(self.render())

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(row) for row in self.rows]

    def to_json(self, path: Optional[str] = None) -> str:
        """Serialize as a JSON document with non-finite values nulled.

        Returns the document text; when ``path`` is given, also writes it
        there.
        """
        document = {"title": self.title, "rows": json_safe(self.to_dicts())}
        if self.meta:
            document["meta"] = json_safe(self.meta)
        text = json.dumps(document, indent=2, allow_nan=False) + "\n"
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text

    def __eq__(self, other: object) -> bool:
        """Tables are equal when title, columns, and all rows match.

        NaN cells compare equal to NaN (two identical runs that both say
        "no data" are the same table), unlike raw float comparison.
        """
        if not isinstance(other, ResultTable):
            return NotImplemented
        if self.title != other.title or self.columns != other.columns:
            return False
        if len(self.rows) != len(other.rows):
            return False

        def same(a: Any, b: Any) -> bool:
            if isinstance(a, float) and isinstance(b, float):
                return a == b or (a != a and b != b)
            return a == b

        return all(
            same(ra[c], rb[c])
            for ra, rb in zip(self.rows, other.rows)
            for c in self.columns
        )

    def __len__(self) -> int:
        return len(self.rows)
