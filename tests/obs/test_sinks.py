"""Tests for streaming sinks: NDJSON rotation/recovery, the TraceLog
overflow path (count drops, warn once, keep streaming) and the batched
drain (flush points and compactions)."""

import json
import logging
import os

from repro.obs.sinks import NdjsonSink, Sink, ndjson_parts, read_ndjson
from repro.sim import Simulator
from repro.sim import trace as trace_module


class ListSink(Sink):
    """Keeps every record written to it, in order."""

    def __init__(self):
        self.got = []

    def write(self, record):
        self.got.append(record)


class TestNdjsonSink:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.ndjson"
        with NdjsonSink(path) as sink:
            sink.write({"type": "trace", "i": 0})
            sink.write({"type": "trace", "i": 1})
        records, skipped = read_ndjson(path)
        assert skipped == 0
        assert [r["i"] for r in records] == [0, 1]

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "run.ndjson"
        with NdjsonSink(path) as sink:
            sink.write({"a": 1})
        assert path.exists()

    def test_append_mode_accumulates_across_opens(self, tmp_path):
        path = tmp_path / "run.ndjson"
        with NdjsonSink(path) as sink:
            sink.write({"run": 1})
        with NdjsonSink(path) as sink:
            sink.write({"run": 2})
        records, _ = read_ndjson(path)
        assert [r["run"] for r in records] == [1, 2]

    def test_non_finite_values_serialize(self, tmp_path):
        path = tmp_path / "run.ndjson"
        with NdjsonSink(path) as sink:
            sink.write({"v": float("nan")})
        records, skipped = read_ndjson(path)
        assert skipped == 0
        assert records[0]["v"] is None  # json_safe nulls non-finite floats

    def test_rotation_shifts_generations(self, tmp_path):
        path = tmp_path / "run.ndjson"
        sink = NdjsonSink(path, max_bytes=120, max_files=3, append=False)
        for i in range(40):
            sink.write({"i": i})
        sink.close()
        assert sink.rotations > 0
        rotated = sink.rotated_paths()
        assert rotated  # oldest-first generations exist on disk
        assert all(os.path.exists(p) for p in rotated)
        # No generation beyond max_files survives.
        assert not os.path.exists(f"{path}.4")
        # Parts (rotated oldest-first + live) hold a contiguous suffix of
        # the stream, ending with the newest record.
        all_records = []
        for part in ndjson_parts(path):
            all_records.extend(read_ndjson(part)[0])
        seq = [r["i"] for r in all_records]
        assert seq == sorted(seq)
        assert seq[-1] == 39

    def test_oversized_single_record_still_written(self, tmp_path):
        path = tmp_path / "run.ndjson"
        sink = NdjsonSink(path, max_bytes=10, append=False)
        sink.write({"big": "x" * 100})
        sink.close()
        records, _ = read_ndjson(path)
        assert len(records) == 1

    def test_truncated_final_line_recovered(self, tmp_path):
        path = tmp_path / "run.ndjson"
        with NdjsonSink(path) as sink:
            for i in range(5):
                sink.write({"i": i})
        # Simulate a killed run: tear the final record mid-line (cut back
        # to just past the last newline, then one byte more).
        data = path.read_bytes()
        cut = data.rstrip(b"\n").rfind(b"\n") + 2
        path.write_bytes(data[:cut])
        records, skipped = read_ndjson(path)
        assert skipped == 1
        assert [r["i"] for r in records] == [0, 1, 2, 3]

    def test_ndjson_parts_missing_file(self, tmp_path):
        assert ndjson_parts(tmp_path / "nope.ndjson") == []


class TestTraceLogSinks:
    def test_sink_receives_trace_records(self, tmp_path):
        sim = Simulator()
        sink = sim.trace.add_sink(ListSink())
        sim.trace.emit("evt", x=1)
        sim.trace.flush_sinks()
        (rec,) = sink.got
        assert rec["type"] == "trace"
        assert rec["category"] == "evt"
        assert rec["x"] == 1

    def test_overflow_counts_drops_and_keeps_streaming(self):
        sim = Simulator()
        sim.trace.max_records = 3
        sink = sim.trace.add_sink(ListSink())
        for i in range(10):
            sim.trace.emit("evt", i=i)
        # In-memory list capped, drop count exact ...
        assert len(sim.trace) == 3
        assert sim.trace.dropped == 7
        # ... but the sink saw the entire stream (plus one capped-marker).
        traces = [r for r in sink.got if r["type"] == "trace"]
        assert [r["i"] for r in traces] == list(range(10))
        capped = [r for r in sink.got if r.get("event") == "trace_capped"]
        assert len(capped) == 1
        assert capped[0]["max_records"] == 3

    def test_overflow_warns_exactly_once(self, caplog):
        sim = Simulator()
        sim.trace.max_records = 1
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            for _ in range(5):
                sim.trace.emit("evt")
        warnings = [r for r in caplog.records if "trace capped" in r.message]
        assert len(warnings) == 1
        assert sim.trace.dropped == 4

    def test_ndjson_export_end_to_end(self, tmp_path):
        path = tmp_path / "run.ndjson"
        sim = Simulator(seed=1)
        sim.trace.add_sink(NdjsonSink(path))
        sim.call_in(1.0, lambda: sim.trace.emit("tick", n=1))
        sim.run()
        sim.export_obs()
        sim.trace.close_sinks()
        records, skipped = read_ndjson(path)
        assert skipped == 0
        types = {r["type"] for r in records}
        assert "trace" in types
        assert "meta" in types  # the export marker
        tick = next(r for r in records if r["type"] == "trace")
        assert tick["category"] == "tick"
        assert tick["time"] == 1.0
        # Records are valid one-object-per-line JSON.
        for line in path.read_text().splitlines():
            json.loads(line)


class TestLazySinks:
    """Every sink is fed in batches, never one write per retained record."""

    def test_lazy_sink_fills_at_flush_points(self):
        sim = Simulator()
        sink = sim.trace.add_sink(ListSink())
        sim.trace.emit("evt", i=0)
        sim.trace.emit("evt", i=1)
        # Nothing written at emit time — records are still staged.
        assert len(sink.got) == 0
        sim.trace.flush_sinks()
        assert [r["i"] for r in sink.got] == [0, 1]
        # Flush is a watermark, not a replay: no duplicates on re-flush.
        sim.trace.emit("evt", i=2)
        sim.trace.flush_sinks()
        assert [r["i"] for r in sink.got] == [0, 1, 2]

    def test_lazy_sink_drained_by_close_and_export(self, tmp_path):
        path = tmp_path / "run.ndjson"
        sim = Simulator(seed=1)
        sim.trace.add_sink(NdjsonSink(path))
        sim.trace.emit("evt", i=7)
        sim.export_obs()  # flushes the backlog before the meta record
        sim.trace.close_sinks()
        records, _ = read_ndjson(path)
        assert [r["category"] for r in records if r["type"] == "trace"] == ["evt"]

    def test_overflow_records_reach_lazy_sinks(self):
        sim = Simulator()
        sim.trace.max_records = 2
        sink = sim.trace.add_sink(ListSink())
        for i in range(6):
            sim.trace.emit("evt", i=i)
        sim.trace.flush_sinks()
        traces = [r for r in sink.got if r["type"] == "trace"]
        assert [r["i"] for r in traces] == list(range(6))

    def test_watermark_compaction_loses_nothing_from_sinks(self, monkeypatch):
        # The in-stage watermark compacts every 100 records; the sink drains
        # before each compaction, so it holds every record, in order, once.
        monkeypatch.setattr(trace_module, "COMPACT_WATERMARK", 100)
        sim = Simulator()
        sink = sim.trace.add_sink(ListSink())
        for i in range(1000):
            sim.trace.emit("evt", i=i)
        assert 900 <= len(sink.got) < 1000  # drained by the watermark alone
        sim.trace.flush_sinks()
        assert [r["i"] for r in sink.got] == list(range(1000))
        assert [r.get("i") for r in sim.trace.iter_dicts()] == list(range(1000))


class TestRotationRaceGuard:
    def test_rotation_survives_missing_generations(self, tmp_path):
        # A sibling process sharing the export dir (or an overzealous
        # cleaner) may remove rotated generations between our stat and
        # rename; rotation must carry on rather than crash the sink.
        path = tmp_path / "run.ndjson"
        sink = NdjsonSink(path, max_bytes=80, max_files=2, append=False)
        for i in range(10):
            sink.write({"i": i})
        # Yank every rotated generation out from under the sink.
        for gen in sink.rotated_paths():
            if os.path.exists(gen):
                os.remove(gen)
        for i in range(10, 20):
            sink.write({"i": i})
        sink.close()
        records, _ = read_ndjson(path)
        assert records  # still streaming after the race
        assert sink.rotations > 1
