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
* :class:`BinaryTraceRing` — a struct-packed append-only buffer with
  ``dump``/:func:`load_ring` disk persistence (the ``.ring`` export
  format) and a picklable payload form for shipping a shard's trace
  across a process boundary.

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
from array import array
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.util.tables import json_safe

__all__ = [
    "StringTable",
    "RecordSchema",
    "BinaryTraceRing",
    "RingFormatError",
    "load_ring",
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

    def __init__(self, buf: bytes | bytearray, pos: int = 0):
        self.buf = buf
        self.pos = pos

    def skip_record(self) -> None:
        _t, _cid, n_fields = _HEAD.unpack_from(self.buf, self.pos)
        pos = self.pos + _HEAD.size
        for _ in range(n_fields):
            tag = self.buf[pos + 4]
            size = _VALUE_SIZE.get(tag)
            if size is None:
                raise ValueError(f"unknown value tag {tag} at byte {pos + 4}")
            pos += _FIELD.size + size
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

#: Value types a whole-record struct packs: type -> (tag, struct code).  An
#: int outside i64 makes the pack raise :class:`struct.error`; bools (two
#: tags for one type) and every other type go through ``append``.
_PACKABLE = {
    type(None): (_T_NONE, ""),
    float: (_T_FLOAT, "d"),
    int: (_T_INT, "q"),
    str: (_T_STR, "I"),
}


#: ``BinaryTraceRing._packers`` value for a signature not seen yet.
_NEW = object()


class BinaryTraceRing:
    """Struct-packed append-only store for trace records.

    The form :class:`~repro.sim.trace.TraceLog` compacts its staged tail
    into; :meth:`iter_tuples` is the one walker that decodes it, whether
    the bytes came from ``append``, a shard's payload or a ``.ring`` file.

    The packed buffer exists once: :meth:`to_payload` hands out the buffer
    itself and :meth:`from_payload` adopts the one it is given.  A ring
    whose buffer a payload shares copies it before its next write, so a
    payload never changes after it is taken.
    """

    __slots__ = ("strings", "_buf", "_shared", "_offsets", "_objects", "_packers")

    def __init__(self) -> None:
        self.strings = StringTable()
        self._buf: bytes | bytearray = bytearray()
        # Whether a payload shares `_buf`: the next write copies it first.
        self._shared = False
        # Start offset of every record, in order.
        self._offsets = array("q")
        # Side table for values no fixed-width tag covers (big ints,
        # tuples, arbitrary objects); packed records index into it.
        self._objects: List[Any] = []
        # Whole-record packer per schema entry signature (see `extend`);
        # None for a signature only `append` packs.
        self._packers: Dict[Tuple[Any, ...], Any] = {}

    # ------------------------------------------------------------------ write

    def _writable(self) -> bytearray:
        """The buffer, copied first if a payload shares it."""
        if self._shared:
            self._buf = bytearray(self._buf)
            self._shared = False
        return self._buf  # type: ignore[return-value]

    def append(
        self, time: float, category: str, items: Iterable[Tuple[str, Any]]
    ) -> None:
        """Pack one record; ``items`` must be sorted by key already."""
        record = self._record(time, category, items)
        buf = self._writable()
        self._offsets.append(len(buf))
        buf += record

    def _record(
        self, time: float, category: str, items: Iterable[Tuple[str, Any]]
    ) -> bytearray:
        """One record's packed bytes, field by field.  Interns its strings
        (fields in order, then the category) and side-tables its objects."""
        buf = bytearray(_HEAD.size)  # patched below once n_fields is known
        intern = self.strings.intern
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
        _HEAD.pack_into(buf, 0, time, intern(category), n_fields)
        return buf

    def extend(self, entries: Sequence[Tuple[Any, ...]]) -> None:
        """Pack staged entries, in the two shapes
        :meth:`~repro.sim.trace.TraceLog.stage` takes, byte for byte as
        :meth:`append` would.

        The buffer grows once, by the most the entries can take (every
        value 8 bytes wide), and the part left unused is cut at the end, so
        packing never copies the buffer to grow it.  A schema entry is
        packed in place by one struct per ``(schema id, value types)``
        signature.  The first entry of a signature is packed field by field,
        which interns its keys and category in ``append``'s order; so is an
        entry carrying a string not interned yet, a dict entry, a bool or
        other object, and an int wider than i64.
        """
        n_fields = sum(len(e) - 2 if type(e[1]) is int else len(e[2]) for e in entries)
        buf = self._writable()
        pos = len(buf)
        buf += bytes(_HEAD.size * len(entries) + (_FIELD.size + 8) * n_fields)
        offsets = self._offsets
        packers = self._packers
        registry = RecordSchema.registry
        sid_of = self.strings._ids.__getitem__
        try:
            for entry in entries:
                key = entry[1]
                if type(key) is int:
                    sig = (key, *map(type, entry))
                    packer = packers.get(sig, _NEW)
                    if packer is not None and packer is not _NEW:
                        pack_into, size, fields, consts, strs = packer
                        try:
                            if strs is not None:
                                consts += tuple(map(sid_of, strs(entry)))
                            pack_into(buf, pos, *fields(entry + consts))
                        except (KeyError, struct.error):
                            pass  # a new string, or an int wider than i64
                        else:
                            offsets.append(pos)
                            pos += size
                            continue
                    schema = registry[key]
                    record = self._record(
                        entry[0], schema.category, zip(schema.keys, entry[2:])
                    )
                    if packer is _NEW:
                        packers[sig] = self._packer(schema, sig[3:])
                else:
                    record = self._record(entry[0], key, sorted(entry[2].items()))
                end = pos + len(record)
                buf[pos:end] = record
                offsets.append(pos)
                pos = end
        finally:
            del buf[pos:]

    def _packer(self, schema: RecordSchema, types: Tuple[type, ...]) -> Any:
        """``(pack_into, size, fields, consts, strs)`` for one signature whose
        keys and category are interned already, or None if a value type has
        no fixed tag.

        ``fields(entry + consts + string ids)`` puts the struct's arguments
        in order; ``strs(entry)`` is the tuple of string values, or ``strs``
        is None when the signature has none.
        """
        if not all(t in _PACKABLE for t in types):
            return None
        sid_of = self.strings._ids.__getitem__
        width = len(types) + 2  # (time, sid, *values)
        n_consts = 2 + 2 * len(types)
        fmt = "<dII"
        consts: List[int] = [sid_of(schema.category), len(types)]
        order = [0, width, width + 1]
        at_strs: List[int] = []
        for i, (key, t) in enumerate(zip(schema.keys, types)):
            tag, code = _PACKABLE[t]
            fmt += "IB" + code
            order += [width + len(consts), width + len(consts) + 1]
            consts += [sid_of(key), tag]
            if t is str:
                order.append(width + n_consts + len(at_strs))
                at_strs.append(2 + i)
            elif code:
                order.append(2 + i)
        if not at_strs:
            strs = None
        elif len(at_strs) == 1:  # a one-index itemgetter returns no tuple
            strs = itemgetter(slice(at_strs[0], at_strs[0] + 1))
        else:
            strs = itemgetter(*at_strs)
        packer = struct.Struct(fmt)
        return packer.pack_into, packer.size, itemgetter(*order), tuple(consts), strs

    # ------------------------------------------------------------------- read

    def __len__(self) -> int:
        return len(self._offsets)

    @property
    def nbytes(self) -> int:
        return len(self._buf)

    def iter_tuples(
        self, start: int = 0
    ) -> Iterator[Tuple[float, str, Tuple[Tuple[str, Any], ...]]]:
        """Yield ``(time, category, fields)`` decoded from record ``start`` on.

        Reads the buffer in place, up to where it ended at the first
        ``next``: records appended while the walk is paused are not yielded.
        """
        if start >= len(self._offsets):
            return
        buf = self._buf
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

    # -------------------------------------------------------------- transport

    def to_payload(self) -> Dict[str, Any]:
        """A picklable form for shipping across a process boundary.

        Orders of magnitude smaller than a list of per-record dicts: one
        packed blob plus the interning table, not N dicts of N tuples.
        ``packed`` is the ring's own bytes-like buffer, not a copy; the
        ring copies it before writing again, so the payload stays as taken.
        """
        self._shared = True
        return {
            "strings": self.strings.as_list(),
            "packed": self._buf,
            "n": len(self._offsets),
            "objects": list(self._objects),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "BinaryTraceRing":
        """Rebuild a ring from :meth:`to_payload` output.

        The ring adopts ``packed`` (bytes or a bytearray) without copying
        it, and copies it before its own first write.  Raises
        :class:`ValueError` on a value tag this reader does not know or
        when ``n`` records do not fill the buffer exactly, and
        :class:`struct.error` or :class:`IndexError` when it ends inside a
        record.
        """
        ring = cls()
        ring.strings = StringTable(payload["strings"])
        ring._buf = payload["packed"]
        ring._shared = True
        ring._objects = list(payload["objects"])
        # Rebuild offsets by walking the buffer with a cursor.
        cursor = _Cursor(ring._buf)
        offsets = ring._offsets
        for _ in range(payload["n"]):
            offsets.append(cursor.pos)
            cursor.skip_record()
        if cursor.pos != len(ring._buf):
            raise ValueError(
                f"{payload['n']} records span {cursor.pos} of "
                f"{len(ring._buf)} packed bytes"
            )
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
        header = {
            "schema": RING_SCHEMA,
            "n_records": len(self._offsets),
            "strings_len": len(strings_blob),
            "packed_len": len(self._buf),
            "n_aux": len(aux_lines),
            "objects": json_safe(list(self._objects)),
        }
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(RING_MAGIC)
            fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
            fh.write(b"\n")
            fh.write(strings_blob)
            fh.write(self._buf)
            for line in aux_lines:
                fh.write(line.encode("utf-8"))
                fh.write(b"\n")
        return path


class RingFormatError(ValueError):
    """A ``.ring`` file that is not one whole dump: bad magic, a header
    section that is short or miscounted, or a value tag this reader does
    not know."""


def load_ring(path: str) -> List[Dict[str, Any]]:
    """Read a ``.ring`` dump back as sink-shaped record dicts.

    Trace records come back as ``{"type": "trace", "time": ...,
    "category": ..., **fields}`` — the exact shape an
    :class:`~repro.obs.sinks.NdjsonSink` would have written — followed by
    the dump's auxiliary (meta/metric/profile) records, so reports and
    analyzers consume ``.ring`` and ``.ndjson`` through one path.

    Every section must be as long as the header says and hold as many
    records as it says; anything else — a file torn by a killed run
    included — raises :class:`RingFormatError`.  Only a missing final
    newline is forgiven.
    """
    with open(path, "rb") as fh:
        magic = fh.readline()
        header_line = fh.readline()
        body = fh.read()
    if magic != RING_MAGIC:
        raise RingFormatError(f"{path!r} is not a ring dump (bad magic)")
    try:
        header = json.loads(header_line)
        packed_at = header["strings_len"]
        aux_at = packed_at + header["packed_len"]
        if len(body) < aux_at:
            raise ValueError(f"{len(body)} body bytes, header declares {aux_at}+")
        aux_lines = body[aux_at:].splitlines()
        if len(aux_lines) != header["n_aux"]:
            raise ValueError(
                f"{len(aux_lines)} aux lines, header declares {header['n_aux']}"
            )
        strings = body[:packed_at].decode("utf-8").split("\x00") if packed_at else []
        ring = BinaryTraceRing.from_payload(
            {
                "strings": strings,
                "packed": body[packed_at:aux_at],
                "n": header["n_records"],
                "objects": header["objects"],
            }
        )
        records: List[Dict[str, Any]] = []
        for time, category, fields in ring.iter_tuples():
            rec = {"type": "trace", "time": time, "category": category}
            rec.update(fields)
            records.append(rec)
        records.extend(json.loads(line) for line in aux_lines)
    except (ValueError, KeyError, IndexError, TypeError, struct.error) as exc:
        raise RingFormatError(
            f"{path!r} is not a whole ring dump ({type(exc).__name__}: {exc})"
        ) from exc
    return records
