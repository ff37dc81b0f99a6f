"""Structured event tracing.

A :class:`TraceLog` records ``(time, category, fields)`` tuples.  Traces are
how integration tests assert on *sequences* of behavior (e.g., "the reflex
fired before re-synthesis was requested") and how determinism is verified
across runs.

Every record enters through :meth:`TraceLog.stage`, which appends one flat
tuple to a staging tail — ``(time, category, fields)`` from :meth:`~TraceLog.emit`
or ``(time, sid, *values)`` from schema emitters such as the packet tracer —
and builds no dict, sort or dataclass.  The tail is compacted into a
struct-packed :class:`~repro.obs.telemetry.BinaryTraceRing` at flush points
(or past a watermark) and decoded back into :class:`TraceRecord` objects only
when :attr:`~TraceLog.records` is read, bit-identically.

Sinks are fed in batches: every compaction and every flush point
(``flush_sinks``/``write_record``/``close_sinks``) first writes the records
the sinks have not seen yet, in order.  Records past ``max_records`` are
not retained and go to the sinks at emit time.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.telemetry import BinaryTraceRing, RecordSchema

__all__ = ["TraceRecord", "TraceLog"]

logger = logging.getLogger("repro.obs")

#: Staged entries past this count are compacted into the binary ring from
#: inside ``stage`` — a memory backstop; flush points compact much earlier
#: in any instrumented run.  Large enough that benchmark cells never pay
#: compaction inside the timed window.
COMPACT_WATERMARK = 262_144


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time: float
    category: str
    fields: Tuple[Tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"time": self.time, "category": self.category}
        out.update(dict(self.fields))
        return out


def _items(entry: Tuple[Any, ...]) -> Tuple[float, str, Iterable[Tuple[str, Any]]]:
    """A staged entry as ``(time, category, key-sorted field items)``."""
    key = entry[1]
    if type(key) is int:
        schema = RecordSchema.registry[key]
        return entry[0], schema.category, zip(schema.keys, entry[2:])
    return entry[0], key, sorted(entry[2].items())


class TraceLog:
    """Append-only trace attached to a simulator.

    Tracing is enabled by default but can be capped or disabled for very
    large runs.  The in-memory record store is bounded by ``max_records``
    — but hitting the cap does not lose data silently: overflow is counted
    on :attr:`dropped`, warned about once, and every record (retained or
    not) still reaches the attached streaming sinks
    (:mod:`repro.obs.sinks`), so a rotated NDJSON export keeps the full
    stream.
    """

    def __init__(self, sim: "Simulator", max_records: int = 1_000_000):  # noqa: F821
        self._sim = sim
        self._enabled = True
        self._max_records = max_records
        #: Records not retained in memory because ``max_records`` was hit.
        self.dropped = 0
        self._warned_capped = False
        self._sinks: List[Any] = []
        # --- store: packed prefix + staged tail + decode cache -------------
        self._ring = BinaryTraceRing()
        # Staged entries, one flat tuple each (see `stage`).
        self._tail: List[Tuple[Any, ...]] = []
        # Bound append, saving a lookup per staged record; `_tail` is only
        # ever cleared in place, never rebound, so the binding stays valid.
        self._append = self._tail.append
        # Decoded prefix of the stream; extended on demand by `records`.
        self._cache: List[TraceRecord] = []
        # Retained records already written to the sinks.
        self._drained = 0
        # `_budget` is how many entries `stage` may still append before
        # anything else needs to happen: zero when disabled, otherwise a
        # countdown to the nearer of the memory cap and the compaction
        # watermark.  Every state change that could affect it goes through
        # `_refresh_guards`.
        self._compact_at = COMPACT_WATERMARK
        self._budget = 0
        self._refresh_guards()

    # --------------------------------------------------------- guard plumbing

    @property
    def _n(self) -> int:
        """Retained record count (ring + tail) — the logical stream length."""
        return len(self._ring) + len(self._tail)

    def _refresh_guards(self) -> None:
        if self._enabled:
            limit = min(self._max_records, self._compact_at)
            self._budget = max(0, limit - self._n)
        else:
            self._budget = 0

    @property
    def enabled(self) -> bool:
        """Whether :meth:`stage` records anything; assignable."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        self._refresh_guards()

    @property
    def max_records(self) -> int:
        """The in-memory retention cap; assignable."""
        return self._max_records

    @max_records.setter
    def max_records(self, value: int) -> None:
        self._max_records = value
        self._refresh_guards()

    # ------------------------------------------------------------------ stage

    def stage(self, entry: Tuple[Any, ...]) -> None:
        """Record one entry — the only way a record enters the trace.

        ``entry`` is ``(time, category, fields)`` with ``fields`` a dict
        the caller does not keep, or ``(time, sid, *values)`` with ``sid``
        a :class:`~repro.obs.telemetry.RecordSchema` id and ``values``
        aligned with its keys.  A schema entry holds only atomic values,
        so CPython's GC untracks it at its first collection instead of
        rescanning it on every young-generation pass.
        """
        budget = self._budget
        if budget:
            self._append(entry)
            self._budget = budget - 1
        elif self._enabled:
            if self._n >= self._max_records:
                self._overflow(entry)
            else:
                # Compaction watermark trip: pack, which re-arms the budget.
                self.compact()
                self._append(entry)
                self._budget -= 1

    def emit(self, category: str, **fields: Any) -> None:
        self.stage((self._sim.now, category, fields))

    def _overflow(self, entry: Tuple[Any, ...]) -> None:
        """Past the cap: count, warn once, and write the record straight to
        the sinks — it exists nowhere else."""
        self.dropped += 1
        self._warn_capped(entry[0])
        if self._sinks:
            self._drain()
            self._write((_items(entry),))

    def _warn_capped(self, time: float) -> None:
        if self._warned_capped:
            return
        self._warned_capped = True
        logger.warning(
            "trace capped at %d in-memory records; further records "
            "are dropped from memory (attach a sink — e.g. "
            "repro.obs.NdjsonSink — to keep the full stream)",
            self.max_records,
        )
        self.write_record(
            {
                "type": "meta",
                "event": "trace_capped",
                "time": time,
                "max_records": self.max_records,
            }
        )

    # ------------------------------------------------------------ store plumbing

    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, decoding lazily on first read.

        Returns the decode cache itself: iteration, indexing, and ``len``
        behave like a plain list of records.
        """
        cache = self._cache
        if len(cache) < self._n:
            packed_n = len(self._ring)
            if len(cache) < packed_n:
                for tup in self._ring.iter_tuples(start=len(cache)):
                    cache.append(TraceRecord(*tup))
            for entry in self._tail[len(cache) - packed_n:]:
                time, category, items = _items(entry)
                cache.append(TraceRecord(time, category, tuple(items)))
        return cache

    def compact(self) -> int:
        """Drain the sinks, then pack the staged tail into the binary ring;
        returns bytes held.

        Runs at flush points (and past the stage watermark): record content
        moves from N Python tuples to one struct-packed buffer.  Purely a
        representation change — ``records`` decodes the same stream.
        """
        self._drain()
        if self._tail:
            ring = self._ring
            # `_items`, inlined: this packs every staged record once.
            for entry in self._tail:
                key = entry[1]
                if type(key) is int:
                    schema = RecordSchema.registry[key]
                    ring.append(entry[0], schema.category, zip(schema.keys, entry[2:]))
                else:
                    ring.append(entry[0], key, sorted(entry[2].items()))
            self._tail.clear()
        # Re-arm the in-stage compaction watermark relative to the new count.
        self._compact_at = self._n + COMPACT_WATERMARK
        self._refresh_guards()
        return self._ring.nbytes

    def packed_payload(self) -> Dict[str, Any]:
        """Compact everything and return the picklable binary payload
        (see :meth:`BinaryTraceRing.to_payload`) — how a shard ships its
        trace through a pipe without materializing per-record dicts."""
        self.compact()
        return self._ring.to_payload()

    def dump_ring(
        self, path: str, aux_records: Optional[Iterable[Dict[str, Any]]] = None
    ) -> str:
        """Compact and write the trace as a ``.ring`` binary export."""
        self.compact()
        return self._ring.dump(path, aux_records=aux_records)

    # ------------------------------------------------------------------ sinks

    def add_sink(self, sink: Any) -> Any:
        """Attach a streaming sink; every record staged from now on
        (including ones past the memory cap) is written to it as a dict.

        Retained records reach it in batches, at each compaction and each
        flush point (``flush_sinks``/``write_record``/``close_sinks``);
        records past the cap are written at emit time.
        """
        self._drain()
        self._sinks.append(sink)
        return sink

    @property
    def sinks(self) -> Tuple[Any, ...]:
        return tuple(self._sinks)

    def _drain(self) -> None:
        """Write retained records the sinks have not seen yet, in order.

        Reads the ring and the tail directly, leaving the decode cache
        alone, so a drain at the watermark keeps memory bounded."""
        start, self._drained = self._drained, self._n
        if start >= self._drained or not self._sinks:
            return
        packed_n = len(self._ring)
        rows: Iterable[Tuple[float, str, Iterable[Tuple[str, Any]]]] = map(
            _items, self._tail[max(0, start - packed_n):]
        )
        if start < packed_n:
            rows = itertools.chain(self._ring.iter_tuples(start), rows)
        self._write(rows)

    def _write(self, rows: Iterable[Tuple[float, str, Iterable[Tuple[str, Any]]]]) -> None:
        sinks = self._sinks
        for time, category, items in rows:
            payload = {"type": "trace", "time": time, "category": category}
            payload.update(items)
            for sink in sinks:
                sink.write(payload)

    def write_record(self, record: Dict[str, Any]) -> None:
        """Write an arbitrary (non-trace) record dict to the sinks —
        profiler rows, metric snapshots, meta events — after the trace
        backlog, so stream order is preserved."""
        self._drain()
        for sink in self._sinks:
            sink.write(record)

    def flush_sinks(self) -> None:
        self._drain()
        for sink in self._sinks:
            sink.flush()

    def close_sinks(self) -> None:
        self._drain()
        for sink in self._sinks:
            sink.close()
        self._sinks.clear()

    # ---------------------------------------------------------------- queries

    def fingerprint(self, categories: Optional[Iterable[str]] = None) -> str:
        """A stable digest of the trace; equal across identical runs.

        Built on :mod:`hashlib` rather than :func:`hash`, which is salted
        per process — identical runs in *separate* executions must agree.
        That process-independence is what lets fingerprints serve as cache
        and determinism keys for :mod:`repro.campaign`: a worker process
        and a serial rerun of the same task produce the same digest.

        ``categories`` restricts the digest to a subset of record
        categories (e.g. only ``msg.*`` events), so callers can fingerprint
        the behaviour they care about while ignoring incidental records.
        """
        wanted = None if categories is None else set(categories)
        digest = hashlib.blake2b(digest_size=16)
        for rec in self.records:
            if wanted is not None and rec.category not in wanted:
                continue
            digest.update(
                repr((round(rec.time, 9), rec.category, rec.fields)).encode()
            )
        return digest.hexdigest()

    def iter_dicts(self) -> Iterable[Dict[str, Any]]:
        """Yield retained records as sink-shaped dicts.

        The same ``{"type": "trace", "time": ..., "category": ..., ...}``
        payloads an :class:`~repro.obs.sinks.NdjsonSink` receives, so
        offline analyzers (``repro.obs.analyze``) consume in-memory traces
        and NDJSON exports through one code path.
        """
        for rec in self.records:
            yield {"type": "trace", **rec.as_dict()}

    def __len__(self) -> int:
        return self._n
