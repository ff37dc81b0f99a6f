"""Streaming telemetry sinks.

A *sink* receives every telemetry record — trace events, closed spans,
metric snapshots, profiler rows — as a plain dict and persists or retains
it.  Sinks exist so large runs stop losing data when the in-memory
:class:`~repro.sim.trace.TraceLog` hits ``max_records``: the memory cap
bounds RAM, the sink path keeps the full stream.

:class:`NdjsonSink` writes newline-delimited JSON with size-based rotation
(``run.ndjson`` → ``run.ndjson.1`` → …), the export format
``python -m repro.obs report`` consumes; any :class:`Sink` subclass
attaches to a trace the same way.

:func:`read_ndjson` reads an export back and tolerates a truncated final
line (the normal artifact of a killed run), so reports survive crashes.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.util.tables import json_safe

__all__ = [
    "Sink",
    "NdjsonSink",
    "read_ndjson",
    "ndjson_parts",
]


class Sink:
    """Sink interface: override :meth:`write`; flush/close are optional."""

    def write(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered records to durable storage (default: no-op)."""

    def close(self) -> None:
        """Release resources; the sink must not be written afterwards."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NdjsonSink(Sink):
    """Append records to an NDJSON file, rotating by size.

    Parameters
    ----------
    path:
        Target file; parent directories are created.
    max_bytes:
        When a write would push the file past this size, the file rotates:
        ``path`` → ``path.1`` (existing ``path.N`` shift up, the oldest
        beyond ``max_files`` is deleted).  ``None`` disables rotation.
    max_files:
        How many rotated generations to keep besides the live file.
    append:
        Open the live file in append mode (default), so several sequential
        runs — e.g. campaign tasks executing inline — share one export.
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        *,
        max_bytes: Optional[int] = None,
        max_files: int = 5,
        append: bool = True,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive or None")
        if max_files < 1:
            raise ValueError("max_files must be >= 1")
        self.path = str(path)
        self.max_bytes = max_bytes
        self.max_files = max_files
        self.rotations = 0
        self.written = 0
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(self.path, "a" if append else "w", encoding="utf-8")
        self._size = self._fh.tell()

    def write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(json_safe(record), separators=(",", ":")) + "\n"
        data = line.encode("utf-8")
        if (
            self.max_bytes is not None
            and self._size > 0
            and self._size + len(data) > self.max_bytes
        ):
            self._rotate()
        self._fh.write(line)
        self._size += len(data)
        self.written += 1

    def _rotate(self) -> None:
        # Shift and replace steps tolerate FileNotFoundError: when several
        # processes share an export directory (shard workers, forked
        # campaign tasks) a sibling may have shifted or removed a
        # generation between our existence check and the rename.  Losing
        # the race must not kill the writer — each worker's own live file
        # is unique, so only already-rotated history can be contested.
        self._fh.close()
        oldest = f"{self.path}.{self.max_files}"
        try:
            if os.path.exists(oldest):
                os.remove(oldest)
        except FileNotFoundError:  # pragma: no cover - racing sibling
            pass
        for i in range(self.max_files - 1, 0, -1):
            src = f"{self.path}.{i}"
            try:
                if os.path.exists(src):
                    os.replace(src, f"{self.path}.{i + 1}")
            except FileNotFoundError:  # pragma: no cover - racing sibling
                pass
        try:
            os.replace(self.path, f"{self.path}.1")
        except FileNotFoundError:  # pragma: no cover - racing sibling
            pass
        self._fh = open(self.path, "w", encoding="utf-8")
        self._size = 0
        self.rotations += 1

    def rotated_paths(self) -> List[str]:
        """Existing rotated generations, oldest first."""
        out = []
        for i in range(self.max_files, 0, -1):
            candidate = f"{self.path}.{i}"
            if os.path.exists(candidate):
                out.append(candidate)
        return out

    def flush(self) -> None:
        if not self._fh.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def ndjson_parts(path: Union[str, os.PathLike], max_files: int = 99) -> List[str]:
    """All on-disk parts of a (possibly rotated) export, oldest first.

    Returns existing ``path.N`` generations from highest N down, then the
    live ``path`` — the read-back counterpart of :class:`NdjsonSink`
    rotation, so a report covers the whole run, not just the newest file.
    """
    base = str(path)
    parts = [
        f"{base}.{i}"
        for i in range(max_files, 0, -1)
        if os.path.exists(f"{base}.{i}")
    ]
    if os.path.exists(base):
        parts.append(base)
    return parts


def read_ndjson(
    path: Union[str, os.PathLike]
) -> Tuple[List[Dict[str, Any]], int]:
    """Read an NDJSON export; returns ``(records, skipped_lines)``.

    A run killed mid-write leaves a torn final line; that line (and any
    other unparsable line, counted so corruption is visible rather than
    silent) is skipped instead of failing the whole report.
    """
    records: List[Dict[str, Any]] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                skipped += 1
    return records, skipped
