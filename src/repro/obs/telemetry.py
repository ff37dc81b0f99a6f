"""Zero-tax telemetry plane: the binary trace ring and lazy serialization.

The per-event cost of tracing used to be dict construction plus a sorted
tuple plus a frozen dataclass — ~4 µs per record, a 51% kernel tax on
traced runs.  This module moves all of that off the timed path.  The
hot path *stages* a record as one cheap tuple append; packing
into a struct-encoded binary ring and decoding back into
:class:`~repro.sim.trace.TraceRecord` form happen lazily, only when a
sink, a fingerprint, or ``python -m repro.obs report`` actually reads the
trace.

Three pieces:

* :class:`StringTable` — interning table mapping every category/key/str
  value to a small integer, so packed records carry 4-byte ids instead of
  repeated UTF-8.
* :class:`RecordSchema` — a per-category tuple of *pre-sorted* field
  names; emitters that know their field set ahead of time (the packet
  tracer) skip both the kwargs dict and the per-record sort.
* :class:`BinaryTraceRing` — a preallocated, struct-packed append buffer
  with optional flight-recorder eviction, ``dump``/``load_ring`` disk
  persistence (the ``.ring`` export format), and a picklable payload form
  for shipping a shard's trace across a process boundary.

Field values survive a pack/decode round trip **bit-identically**: floats
travel as IEEE doubles, ints as signed 64-bit (wider ints fall back to
the object side-table), bools are tagged distinctly from ints, and
``None`` is its own tag — so ``repr``-based trace fingerprints computed
from decoded records equal those computed from never-packed ones.
"""

from __future__ import annotations

import json
import os
import struct
import warnings
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.util.tables import json_safe

__all__ = [
    "StringTable",
    "RecordSchema",
    "BinaryTraceRing",
    "load_ring",
    "load_ring_ex",
    "RING_MAGIC",
    "RING_SCHEMA",
]

#: First line of a ``.ring`` dump file.
RING_MAGIC = b"REPRO-RING/1\n"
#: Schema tag carried in the dump header.
RING_SCHEMA = "ring/1"

# Record header: time (f64), category string id (u32), field count (u32).
_HEAD = struct.Struct("<dII")
# Per-field prefix: key string id (u32), type tag (u8).
_FIELD = struct.Struct("<IB")
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")

# Value type tags.  Bool precedes int checks everywhere (bool is an int
# subclass) and gets its own tags so decode returns True, not 1.
_T_NONE = 0
_T_FLOAT = 1
_T_INT = 2
_T_STR = 3
_T_TRUE = 4
_T_FALSE = 5
_T_OBJ = 6

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


class StringTable:
    """Bidirectional str <-> small-int interning table."""

    __slots__ = ("_ids", "_strings")

    def __init__(self, strings: Optional[List[str]] = None):
        self._strings: List[str] = list(strings) if strings else []
        self._ids: Dict[str, int] = {s: i for i, s in enumerate(self._strings)}

    def intern(self, s: str) -> int:
        sid = self._ids.get(s)
        if sid is None:
            sid = len(self._strings)
            self._ids[s] = sid
            self._strings.append(s)
        return sid

    def lookup(self, sid: int) -> str:
        return self._strings[sid]

    def as_list(self) -> List[str]:
        return list(self._strings)

    def __len__(self) -> int:
        return len(self._strings)


class RecordSchema:
    """A fixed, pre-sorted field-name tuple for one trace category.

    Emitters that always produce the same field set (the packet tracer's
    ``pkt.*`` events) stage ``(time, sid, *values)`` through
    :meth:`TraceLog.stage`, skipping the kwargs dict and the per-record
    key sort entirely.  ``keys`` must already be sorted —
    decoded records must equal what ``tuple(sorted(fields.items()))``
    would have produced.
    """

    __slots__ = ("category", "keys", "sid")

    #: Every schema ever constructed, indexed by ``sid``.  Staged trace
    #: entries carry the int id rather than the schema object: a tuple of
    #: only atomic values (floats/ints/strs/None) is untracked by CPython's
    #: GC at its first collection, so the tens of thousands of staged
    #: records alive during a traced run stop being rescanned by every
    #: young-generation pass.  The ids never leave the process — packed
    #: rings and fingerprints only ever see the category string.
    registry: List["RecordSchema"] = []

    def __init__(self, category: str, keys: Tuple[str, ...]):
        if list(keys) != sorted(keys):
            raise ValueError(f"schema keys for {category!r} must be sorted")
        self.category = category
        self.keys = tuple(keys)
        self.sid = len(RecordSchema.registry)
        RecordSchema.registry.append(self)


class _Cursor:
    """A walk position inside a packed buffer (no per-record allocation)."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes, pos: int = 0):
        self.buf = buf
        self.pos = pos

    def skip_record(self) -> None:
        _t, _cid, n_fields = _HEAD.unpack_from(self.buf, self.pos)
        pos = self.pos + _HEAD.size
        for _ in range(n_fields):
            tag = self.buf[pos + 4]
            pos += _FIELD.size + _VALUE_SIZE[tag]
        self.pos = pos


#: Packed payload width per value tag (after the field prefix).
_VALUE_SIZE = {
    _T_NONE: 0,
    _T_FLOAT: 8,
    _T_INT: 8,
    _T_STR: 4,
    _T_TRUE: 0,
    _T_FALSE: 0,
    _T_OBJ: 4,
}


class BinaryTraceRing:
    """Struct-packed append buffer for trace records.

    ``capacity_records`` turns it into a flight recorder: the oldest
    records are evicted (counted on :attr:`evicted`) once the cap is hit.
    ``capacity_bytes`` bounds the packed buffer the same way — the oldest
    records are dropped until the buffer fits the byte budget, but the
    newest record is always retained even when it alone exceeds it.
    Without a cap it is a compact append-only store — the form
    :class:`~repro.sim.trace.TraceLog` compacts its staged tail into.
    """

    __slots__ = (
        "strings",
        "capacity_records",
        "capacity_bytes",
        "evicted",
        "_buf",
        "_offsets",
        "_objects",
    )

    def __init__(
        self,
        capacity_records: Optional[int] = None,
        capacity_bytes: Optional[int] = None,
    ):
        if capacity_records is not None and capacity_records < 1:
            raise ValueError("capacity_records must be >= 1 or None")
        if capacity_bytes is not None and capacity_bytes < 1:
            raise ValueError("capacity_bytes must be >= 1 or None")
        self.strings = StringTable()
        self.capacity_records = capacity_records
        self.capacity_bytes = capacity_bytes
        #: Records evicted by the flight-recorder caps.
        self.evicted = 0
        self._buf = bytearray()
        # Start offset of every retained record, in order.
        self._offsets: List[int] = []
        # Side table for values no fixed-width tag covers (big ints,
        # tuples, arbitrary objects); packed records index into it.
        self._objects: List[Any] = []

    # ------------------------------------------------------------------ write

    def append(
        self, time: float, category: str, items: Iterable[Tuple[str, Any]]
    ) -> None:
        """Pack one record; ``items`` must be sorted by key already."""
        buf = self._buf
        intern = self.strings.intern
        start = len(buf)
        head_at = start
        buf += b"\x00" * _HEAD.size  # patched below once n_fields is known
        n_fields = 0
        for key, value in items:
            n_fields += 1
            kid = intern(key)
            if value is None:
                buf += _FIELD.pack(kid, _T_NONE)
            elif value is True:
                buf += _FIELD.pack(kid, _T_TRUE)
            elif value is False:
                buf += _FIELD.pack(kid, _T_FALSE)
            elif type(value) is float:
                buf += _FIELD.pack(kid, _T_FLOAT)
                buf += _F64.pack(value)
            elif type(value) is int:
                if _I64_MIN <= value <= _I64_MAX:
                    buf += _FIELD.pack(kid, _T_INT)
                    buf += _I64.pack(value)
                else:
                    buf += _FIELD.pack(kid, _T_OBJ)
                    buf += _U32.pack(len(self._objects))
                    self._objects.append(value)
            elif type(value) is str:
                buf += _FIELD.pack(kid, _T_STR)
                buf += _U32.pack(intern(value))
            else:
                # numpy scalars, tuples, whatever a caller handed us:
                # kept verbatim so decode is exact, not merely close.
                buf += _FIELD.pack(kid, _T_OBJ)
                buf += _U32.pack(len(self._objects))
                self._objects.append(value)
        _HEAD.pack_into(buf, head_at, time, intern(category), n_fields)
        self._offsets.append(start)
        if (
            self.capacity_records is not None
            and len(self._offsets) > self.capacity_records
        ) or (self.capacity_bytes is not None and len(buf) > self.capacity_bytes):
            self._evict()

    def _evict(self) -> None:
        """Drop the oldest records down to capacity; reclaim the bytes."""
        drop = 0
        if self.capacity_records is not None:
            drop = max(0, len(self._offsets) - self.capacity_records)
        if self.capacity_bytes is not None:
            # Smallest drop whose suffix fits the byte budget; the newest
            # record survives even when it alone exceeds the budget (a
            # flight recorder that recorded nothing would be worse).
            total = len(self._buf)
            while (
                drop < len(self._offsets) - 1
                and total - self._offsets[drop] > self.capacity_bytes
            ):
                drop += 1
        if drop <= 0:
            return
        self.evicted += drop
        cut = self._offsets[drop]
        del self._buf[:cut]
        self._offsets = [off - cut for off in self._offsets[drop:]]

    # ------------------------------------------------------------------- read

    def __len__(self) -> int:
        return len(self._offsets)

    @property
    def nbytes(self) -> int:
        return len(self._buf)

    def iter_tuples(
        self, start: int = 0
    ) -> Iterator[Tuple[float, str, Tuple[Tuple[str, Any], ...]]]:
        """Yield ``(time, category, fields)`` decoded from record ``start`` on."""
        if start >= len(self._offsets):
            return
        buf = bytes(self._buf)
        lookup = self.strings.lookup
        objects = self._objects
        pos = self._offsets[start]
        end = len(buf)
        while pos < end:
            time, cid, n_fields = _HEAD.unpack_from(buf, pos)
            pos += _HEAD.size
            fields = []
            for _ in range(n_fields):
                kid, tag = _FIELD.unpack_from(buf, pos)
                pos += _FIELD.size
                if tag == _T_NONE:
                    value: Any = None
                elif tag == _T_FLOAT:
                    value = _F64.unpack_from(buf, pos)[0]
                    pos += 8
                elif tag == _T_INT:
                    value = _I64.unpack_from(buf, pos)[0]
                    pos += 8
                elif tag == _T_STR:
                    value = lookup(_U32.unpack_from(buf, pos)[0])
                    pos += 4
                elif tag == _T_TRUE:
                    value = True
                elif tag == _T_FALSE:
                    value = False
                else:
                    value = objects[_U32.unpack_from(buf, pos)[0]]
                    pos += 4
                fields.append((lookup(kid), value))
            yield (time, lookup(cid), tuple(fields))

    def clear(self) -> None:
        self._buf.clear()
        self._offsets.clear()
        self._objects.clear()
        self.strings = StringTable()
        self.evicted = 0

    # -------------------------------------------------------------- transport

    def to_payload(self) -> Dict[str, Any]:
        """A picklable form for shipping across a process boundary.

        Orders of magnitude smaller than a list of per-record dicts: one
        bytes blob plus the interning table, not N dicts of N tuples.
        """
        return {
            "strings": self.strings.as_list(),
            "packed": bytes(self._buf),
            "offset0": self._offsets[0] if self._offsets else 0,
            "n": len(self._offsets),
            "objects": list(self._objects),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "BinaryTraceRing":
        ring = cls()
        ring.strings = StringTable(payload["strings"])
        ring._buf = bytearray(payload["packed"])
        ring._objects = list(payload["objects"])
        # Rebuild offsets by walking the buffer with a cursor.
        cursor = _Cursor(bytes(ring._buf), payload.get("offset0", 0))
        for _ in range(payload["n"]):
            ring._offsets.append(cursor.pos)
            cursor.skip_record()
        return ring

    # ------------------------------------------------------------------- disk

    def dump(
        self, path: str, aux_records: Optional[Iterable[Dict[str, Any]]] = None
    ) -> str:
        """Write a ``.ring`` file: magic, JSON header, strings, packed
        records, then any auxiliary (non-trace) records as NDJSON lines.

        ``python -m repro.obs report`` reads these next to ``.ndjson``
        parts; :func:`load_ring` is the programmatic reader.
        """
        aux_lines = [
            json.dumps(json_safe(rec), separators=(",", ":"))
            for rec in (aux_records or [])
        ]
        strings_blob = "\x00".join(self.strings.as_list()).encode("utf-8")
        packed = bytes(self._buf[self._offsets[0]:]) if self._offsets else b""
        header = {
            "schema": RING_SCHEMA,
            "n_records": len(self._offsets),
            "strings_len": len(strings_blob),
            "packed_len": len(packed),
            "n_aux": len(aux_lines),
            "objects": json_safe(list(self._objects)),
            # Forward compatibility: readers use the *writer's* tag->size
            # map to skip over records holding tags they don't know.
            "tag_sizes": {str(tag): size for tag, size in _VALUE_SIZE.items()},
            "evicted": self.evicted,
        }
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(RING_MAGIC)
            fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
            fh.write(b"\n")
            fh.write(strings_blob)
            fh.write(packed)
            for line in aux_lines:
                fh.write(line.encode("utf-8"))
                fh.write(b"\n")
        return path


def load_ring(path: str) -> List[Dict[str, Any]]:
    """Read a ``.ring`` dump back as sink-shaped record dicts.

    Trace records come back as ``{"type": "trace", "time": ...,
    "category": ..., **fields}`` — the exact shape an
    :class:`~repro.obs.sinks.NdjsonSink` would have written — followed by
    the dump's auxiliary records (meta/metric/profile rows), so reports
    and analyzers consume ``.ring`` and ``.ndjson`` through one path.

    Records packed with value tags this reader does not know (a newer
    writer) are skipped with a single warning rather than crashing; use
    :func:`load_ring_ex` to observe the skip count programmatically.
    """
    records, skipped, _evicted = load_ring_ex(path)
    if skipped:
        warnings.warn(
            f"{path}: skipped {skipped} record(s) with unknown value tags "
            "(written by a newer repro?)",
            RuntimeWarning,
            stacklevel=2,
        )
    return records


def load_ring_ex(path: str) -> Tuple[List[Dict[str, Any]], int, int]:
    """Like :func:`load_ring`, returning ``(records, skipped, evicted)``.

    ``skipped`` counts records dropped because they carried value tags
    unknown to this reader (forward compatibility: the dump header's
    ``tag_sizes`` map lets us hop over them without losing framing);
    ``evicted`` is the writer-side flight-recorder eviction count, so
    forensics can tell "diverged" from "evicted before capture".
    """
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != RING_MAGIC:
            raise ValueError(f"{path!r} is not a ring dump (bad magic)")
        header = json.loads(fh.readline().decode("utf-8"))
        strings_blob = fh.read(header["strings_len"])
        packed = fh.read(header["packed_len"])
        aux = [
            json.loads(line)
            for line in fh.read().decode("utf-8").splitlines()
            if line.strip()
        ]
    strings = (
        strings_blob.decode("utf-8").split("\x00") if strings_blob else []
    )
    objects = header.get("objects", [])
    tag_sizes = {
        int(tag): size
        for tag, size in (header.get("tag_sizes") or {}).items()
    }
    for tag, size in _VALUE_SIZE.items():
        tag_sizes.setdefault(tag, size)
    records: List[Dict[str, Any]] = []
    skipped = 0
    pos = 0
    end = len(packed)
    for _ in range(header["n_records"]):
        if pos >= end:
            break
        time, cid, n_fields = _HEAD.unpack_from(packed, pos)
        pos += _HEAD.size
        fields: List[Tuple[str, Any]] = []
        known = True
        for _ in range(n_fields):
            kid, tag = _FIELD.unpack_from(packed, pos)
            pos += _FIELD.size
            if tag == _T_NONE:
                value: Any = None
            elif tag == _T_FLOAT:
                value = _F64.unpack_from(packed, pos)[0]
            elif tag == _T_INT:
                value = _I64.unpack_from(packed, pos)[0]
            elif tag == _T_STR:
                value = strings[_U32.unpack_from(packed, pos)[0]]
            elif tag == _T_TRUE:
                value = True
            elif tag == _T_FALSE:
                value = False
            elif tag == _T_OBJ:
                value = objects[_U32.unpack_from(packed, pos)[0]]
            else:
                size = tag_sizes.get(tag)
                if size is None:
                    # No size hint either: framing is lost from here on.
                    return records + aux, skipped + 1, int(header.get("evicted", 0))
                known = False
                value = None
                pos += size
                continue
            pos += tag_sizes[tag]
            fields.append((strings[kid], value))
        if not known:
            skipped += 1
            continue
        rec = {"type": "trace", "time": time, "category": strings[cid]}
        rec.update(fields)
        records.append(rec)
    records.extend(aux)
    return records, skipped, int(header.get("evicted", 0))
