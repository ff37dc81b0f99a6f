"""Binary trace ring: pack/decode fidelity, transport, disk, torn files."""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import report
from repro.obs.telemetry import (
    RING_MAGIC,
    BinaryTraceRing,
    RecordSchema,
    RingFormatError,
    StringTable,
    load_ring,
)
from repro.sim import Simulator


def test_string_table_interns_and_restores():
    table = StringTable()
    a = table.intern("pkt.rx")
    b = table.intern("uid")
    assert table.intern("pkt.rx") == a  # stable on re-intern
    assert table.lookup(a) == "pkt.rx"
    assert table.lookup(b) == "uid"
    clone = StringTable(table.as_list())
    assert clone.intern("pkt.rx") == a
    assert len(clone) == len(table)


def test_record_schema_requires_sorted_keys_and_registers():
    schema = RecordSchema("t.sorted", ("a", "b", "c"))
    assert RecordSchema.registry[schema.sid] is schema
    with pytest.raises(ValueError):
        RecordSchema("t.unsorted", ("b", "a"))


def test_pack_decode_round_trip_is_bit_identical():
    ring = BinaryTraceRing()
    fields = (
        ("big", 2**70),  # wider than i64: object side-table
        ("flag_f", False),
        ("flag_t", True),
        ("fval", 0.1 + 0.2),  # must come back to the exact same double
        ("ival", -(2**62)),
        ("none", None),
        ("sval", "hello"),
    )
    ring.append(1.5, "test.cat", fields)
    [(time, category, decoded)] = list(ring.iter_tuples())
    assert time == 1.5
    assert category == "test.cat"
    assert decoded == fields
    # Types survive exactly: bools are bools, not ints.
    values = dict(decoded)
    assert values["flag_t"] is True and values["flag_f"] is False
    assert type(values["ival"]) is int and type(values["fval"]) is float
    assert values["big"] == 2**70


def test_payload_round_trip_survives_pickle_shapes():
    ring = BinaryTraceRing()
    for i in range(50):
        ring.append(i * 0.25, f"cat.{i % 3}", (("n", i), ("tag", f"s{i % 5}")))
    payload = ring.to_payload()
    # The whole trace ships as one bytes-like blob + interning table.
    assert isinstance(payload["packed"], (bytes, bytearray))
    clone = BinaryTraceRing.from_payload(payload)
    assert list(clone.iter_tuples()) == list(ring.iter_tuples())
    shipped = BinaryTraceRing.from_payload(pickle.loads(pickle.dumps(payload)))
    assert list(shipped.iter_tuples()) == list(ring.iter_tuples())


def test_iter_tuples_from_offset():
    ring = BinaryTraceRing()
    for i in range(5):
        ring.append(float(i), "c", (("i", i),))
    assert [t for t, _c, _f in ring.iter_tuples(start=3)] == [3.0, 4.0]
    assert list(ring.iter_tuples(start=5)) == []


def test_dump_and_load_ring_with_aux_records(tmp_path):
    ring = BinaryTraceRing()
    ring.append(0.5, "pkt.rx", (("hop", 2), ("uid", "u1")))
    ring.append(1.0, "pkt.drop", (("reason", "loss"),))
    aux = [
        {"type": "meta", "event": "export", "events_per_sec": 1234.5},
        {"type": "metric", "name": "net.tx", "kind": "counter", "value": 7.0},
    ]
    path = ring.dump(str(tmp_path / "sub" / "run.ring"), aux_records=aux)
    records = load_ring(path)
    assert records[0] == {"type": "trace", "time": 0.5, "category": "pkt.rx",
                          "hop": 2, "uid": "u1"}
    assert records[1]["reason"] == "loss"
    assert records[2]["event"] == "export"
    assert records[3]["value"] == 7.0


def test_load_ring_rejects_non_ring_files(tmp_path):
    path = tmp_path / "not-a-ring.ring"
    path.write_bytes(b"something else entirely\n")
    with pytest.raises(ValueError, match="bad magic"):
        load_ring(str(path))
    assert RING_MAGIC.endswith(b"\n")  # readline-based header contract


def test_empty_ring_dump_round_trips(tmp_path):
    ring = BinaryTraceRing()
    path = ring.dump(str(tmp_path / "empty.ring"))
    assert load_ring(path) == []


def _rewrite_header(path, **changes):
    """Rewrite a dump's JSON header in place; ``None`` deletes a key."""
    with open(path, "rb") as fh:
        magic, header, body = fh.readline(), json.loads(fh.readline()), fh.read()
    for key, value in changes.items():
        if value is None:
            header.pop(key, None)
        else:
            header[key] = value
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n")
        fh.write(body)


def test_unknown_tag_raises_ring_format_error(tmp_path):
    ring = BinaryTraceRing()
    ring.append(1.0, "known.cat", (("key", "value-str"),))
    ring.append(2.0, "known.cat", (("key", None),))
    path = ring.dump(str(tmp_path / "future.ring"))
    data = bytearray(open(path, "rb").read())
    # With no aux records the file ends in the last record, whose one field
    # (key id u32, tag u8) carries no payload: the last byte is its tag.
    assert data[-1] == 0  # _T_NONE
    data[-1] = 9  # a value tag no writer has used
    open(path, "wb").write(bytes(data))
    with pytest.raises(RingFormatError, match="unknown value tag 9"):
        load_ring(path)
    assert issubclass(RingFormatError, ValueError)


def test_header_keys_of_older_writers_are_ignored(tmp_path):
    """A dump whose header still carries ``tag_sizes`` and ``evicted`` (as
    writers with a flight-recorder mode wrote them) loads to the same
    records."""
    ring = BinaryTraceRing()
    for i in range(5):
        ring.append(i * 0.5, f"cat.{i % 2}", (("big", 2**70 + i), ("n", i)))
    aux = [{"type": "meta", "event": "export"}]
    path = ring.dump(str(tmp_path / "run.ring"), aux_records=aux)
    expected = load_ring(path)
    _rewrite_header(
        path,
        tag_sizes={"0": 0, "1": 8, "2": 8, "3": 4, "4": 0, "5": 0, "6": 4},
        evicted=0,
    )
    assert load_ring(path) == expected
    assert len(expected) == 6 and expected[-1] == aux[0]


def test_miscounted_header_raises_ring_format_error(tmp_path):
    ring = BinaryTraceRing()
    for i in range(3):
        ring.append(float(i), "c", (("i", i),))
    path = str(tmp_path / "run.ring")
    for changes in ({"n_records": 2}, {"n_records": 4}, {"n_aux": 2},
                    {"n_aux": 0}, {"packed_len": None}):
        ring.dump(path, aux_records=[{"type": "meta"}])
        _rewrite_header(path, **changes)
        with pytest.raises(RingFormatError):
            load_ring(path)


def _fifty_record_dump(path):
    sim = Simulator(seed=3)
    for i in range(50):
        sim.now = i * 0.25
        sim.trace.emit(
            f"cat.{i % 3}", i=i, f=i / 7, s=f"tok-{i % 5}", b=i % 2 == 0,
            none=None, big=2**64 + i,
        )
    return sim.trace.dump_ring(
        path,
        aux_records=[
            {"type": "meta", "event": "export", "events_per_sec": 1.5},
            {"type": "metric", "kind": "counter", "name": "n", "value": 50},
        ],
    )


def test_every_torn_prefix_raises_and_the_cli_exits_2(tmp_path, capsys):
    """Cut a 50-record dump at every offset: each proper prefix but the one
    that only drops the final newline is a typed error, never a shorter
    trace, and the CLI's input reader turns it into exit status 2."""
    good = _fifty_record_dump(str(tmp_path / "good.ring"))
    data = open(good, "rb").read()
    whole = load_ring(good)
    assert len(whole) == 52 and data.endswith(b"\n")
    torn = str(tmp_path / "torn.ring")
    for cut in range(len(data)):
        with open(torn, "wb") as fh:
            fh.write(data[:cut])
        if cut == len(data) - 1:
            assert load_ring(torn) == whole
            continue
        with pytest.raises(RingFormatError):
            load_ring(torn)
        # Every subcommand reads its input through collect_export, whose
        # ReportInputError is exit 2; the argv round trip costs ~1.5 ms,
        # so the full CLI runs on every 13th cut.
        with pytest.raises(report.ReportInputError):
            report.collect_export(torn)
        if cut % 13 == 0:
            for argv in (["report", torn], ["trace", torn], ["diff", torn, good]):
                assert report.main(argv) == 2, (cut, argv)
    assert "is not a whole ring dump" in capsys.readouterr().err


# ------------------------------------------------- whole-record packing

_PACK_A = RecordSchema("t.pack.a", ("a", "b", "c"))
_PACK_B = RecordSchema("t.pack.b", ("k", "v"))

_values = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=2**63, max_value=2**70),  # wider than i64
    st.integers(min_value=-(2**70), max_value=-(2**63) - 1),
    st.sampled_from(["x", "y", "a", "t.pack.b"]),  # some collide with keys
    st.text(min_size=0, max_size=4),  # strings first seen mid-stream
    st.booleans(),
    st.tuples(st.integers(0, 3)),  # an object for the side table
)


@st.composite
def _entries(draw):
    """One staged entry, in either shape ``TraceLog.stage`` takes."""
    time = draw(st.floats(0.0, 1e6))
    kind = draw(st.sampled_from(["a", "b", "dict"]))
    if kind == "dict":
        keys = draw(st.lists(st.sampled_from(["a", "k", "m", "z"]), unique=True))
        return (time, draw(st.sampled_from(["t.dict", "t.pack.a"])),
                {key: draw(_values) for key in keys})
    schema = _PACK_A if kind == "a" else _PACK_B
    return (time, schema.sid, *(draw(_values) for _ in schema.keys))


def _per_field(entries):
    """The reference: every entry through ``append``, field by field."""
    ring = BinaryTraceRing()
    for entry in entries:
        key = entry[1]
        if type(key) is int:
            schema = RecordSchema.registry[key]
            ring.append(entry[0], schema.category, zip(schema.keys, entry[2:]))
        else:
            ring.append(entry[0], key, sorted(entry[2].items()))
    return ring


def _packed_state(ring):
    return (bytes(ring._buf), ring.strings.as_list(), list(ring._offsets),
            [repr(obj) for obj in ring._objects])


@settings(max_examples=200, deadline=None)
@given(st.lists(_entries(), max_size=40), st.integers(0, 40))
@example(  # two signatures of one schema, and a string first seen late
    [(0.0, _PACK_A.sid, 1, "x", None), (1.0, _PACK_A.sid, 2, "x", None),
     (2.0, _PACK_A.sid, 3, 0.5, None), (3.0, _PACK_A.sid, 4, "new", None),
     (4.0, _PACK_A.sid, 2**64, "x", None), (5.0, _PACK_A.sid, True, "x", False)],
    3,
)
def test_extend_packs_like_append_byte_for_byte(entries, split):
    ring = BinaryTraceRing()
    ring.extend(entries[:split])  # two compactions: the packers carry over
    ring.extend(entries[split:])
    reference = _per_field(entries)
    assert _packed_state(ring) == _packed_state(reference)
    assert repr(list(ring.iter_tuples())) == repr(list(reference.iter_tuples()))


def test_a_payload_stays_as_taken_while_the_trace_grows():
    sim = Simulator(seed=5)
    for i in range(40):
        sim.now = i * 0.5
        sim.trace.stage((sim.now, _PACK_B.sid, i, f"v{i % 3}"))
        sim.trace.emit("t.grow", i=i, big=2**65 + i)
    payload = sim.trace.packed_payload()
    taken = (bytes(payload["packed"]), list(payload["strings"]), payload["n"],
             list(payload["objects"]))
    first = list(BinaryTraceRing.from_payload(payload).iter_tuples())
    for i in range(40, 90):  # more records, with strings the payload lacks
        sim.now = i * 0.5
        sim.trace.stage((sim.now, _PACK_B.sid, i, f"late{i}"))
    sim.trace.compact()
    assert (bytes(payload["packed"]), payload["strings"], payload["n"],
            payload["objects"]) == taken
    assert list(BinaryTraceRing.from_payload(payload).iter_tuples()) == first
    shipped = pickle.loads(pickle.dumps(payload))
    assert list(BinaryTraceRing.from_payload(shipped).iter_tuples()) == first
    assert len(sim.trace) == 130 and first == [
        (r.time, r.category, r.fields) for r in sim.trace.records[:80]
    ]
    # A ring rebuilt from the payload adopts its buffer; writing to it
    # copies first, so the payload still does not move.
    clone = BinaryTraceRing.from_payload(payload)
    clone.append(99.0, "t.more", (("k", 1),))
    clone.extend([(99.5, _PACK_B.sid, 1, "v1")])
    assert bytes(payload["packed"]) == taken[0] and len(clone) == 82
