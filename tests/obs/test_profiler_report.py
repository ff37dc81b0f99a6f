"""Tests for the kernel profiler and the run-report CLI."""

import json

import pytest

from repro.obs import NdjsonSink, summarize_run
from repro.obs.report import main as report_main
from repro.obs.profiler import KernelProfiler
from repro.sim import Simulator


def module_level_tick():
    pass


class TestKernelProfiler:
    def test_off_by_default(self):
        sim = Simulator()
        assert sim.profiler is None
        sim.call_in(1.0, lambda: None)
        sim.run()  # no profiler attached, nothing recorded anywhere

    def test_enable_is_idempotent(self):
        sim = Simulator()
        p1 = sim.enable_profiling()
        p2 = sim.enable_profiling()
        assert p1 is p2

    def test_attributes_wall_time_to_callback_labels(self):
        sim = Simulator()
        sim.enable_profiling()
        sim.call_in(1.0, module_level_tick)
        sim.call_in(2.0, module_level_tick)
        sim.run()
        rows = dict(
            (label, (calls, wall))
            for label, calls, wall in sim.profiler.hot_paths()
        )
        assert "module_level_tick" in rows
        calls, wall = rows["module_level_tick"]
        assert calls == 2
        assert wall >= 0.0

    def test_event_queued_before_profiling_keeps_its_callback_label(self):
        sim = Simulator()
        sim.call_in(1.0, module_level_tick)
        sim.enable_profiling()
        sim.run()
        assert [(label, calls) for label, calls, _ in sim.profiler.hot_paths()] == [
            ("module_level_tick", 1)
        ]

    def test_hot_paths_sorted_by_wall_desc(self):
        profiler = KernelProfiler()
        profiler.record("cold", 0.001)
        profiler.record("hot", 0.5)
        profiler.record("warm", 0.01)
        labels = [label for label, _, _ in profiler.hot_paths()]
        assert labels == ["hot", "warm", "cold"]

    def test_hot_paths_truncates_to_n(self):
        profiler = KernelProfiler()
        for i in range(20):
            profiler.record(f"l{i}", 0.001 * (i + 1))
        assert len(profiler.hot_paths(10)) == 10


class TestRunCounters:
    def test_events_processed_and_wall_elapsed(self):
        sim = Simulator()
        for i in range(5):
            sim.call_in(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5
        assert sim.wall_elapsed > 0.0
        assert sim.events_per_sec > 0.0

    def test_counters_accumulate_across_runs(self):
        sim = Simulator()
        sim.call_in(1.0, lambda: None)
        sim.run(until=2.0)
        first = sim.events_processed
        sim.call_in(1.0, lambda: None)
        sim.run(until=5.0)
        assert sim.events_processed == first + 1

    def test_events_per_sec_zero_before_any_run(self):
        assert Simulator().events_per_sec == 0.0


class TestSummarizeRun:
    def test_folds_record_types(self):
        records = [
            {"type": "trace", "category": "msg.tx", "time": 1.0},
            {"type": "trace", "category": "msg.tx", "time": 2.0},
            {"type": "trace", "category": "msg.rx", "time": 3.0},
            {"type": "span", "path": "run", "virtual_s": 3.0, "wall_s": 0.01},
            {"type": "profile", "label": "hot", "calls": 5, "wall_s": 0.2},
            {"type": "metric", "kind": "counter", "name": "net.tx", "value": 2.0},
            {"type": "meta", "event": "export"},
        ]
        summary = summarize_run(records)
        assert summary["n_records"] == 7
        assert summary["trace_counts"] == {"msg.rx": 1, "msg.tx": 2}
        assert summary["virtual_time"] == {"min": 1.0, "max": 3.0}
        assert summary["spans"]["run"]["count"] == 1
        assert summary["hot_paths"][0]["label"] == "hot"
        assert summary["metrics"]["net.tx"]["value"] == 2.0
        assert summary["meta_events"][0]["event"] == "export"

    def test_profile_snapshots_take_latest_not_sum(self):
        # export_obs can run more than once; profile rows are cumulative.
        records = [
            {"type": "profile", "label": "a", "calls": 3, "wall_s": 0.1},
            {"type": "profile", "label": "a", "calls": 8, "wall_s": 0.4},
        ]
        summary = summarize_run(records)
        (row,) = summary["hot_paths"]
        assert row["calls"] == 8
        assert row["wall_s"] == pytest.approx(0.4)

    def test_hot_paths_sorted(self):
        records = [
            {"type": "profile", "label": "b", "calls": 1, "wall_s": 0.1},
            {"type": "profile", "label": "a", "calls": 1, "wall_s": 0.9},
        ]
        summary = summarize_run(records)
        assert [r["label"] for r in summary["hot_paths"]] == ["a", "b"]


class TestReportCli:
    def _export(self, tmp_path):
        path = tmp_path / "run.ndjson"
        sim = Simulator(seed=3)
        sim.trace.add_sink(NdjsonSink(path))
        sim.enable_profiling()
        with sim.span("smoke"):
            for i in range(10):
                sim.call_in(float(i + 1), module_level_tick)
            sim.call_in(5.0, lambda: sim.trace.emit("tick", i=1))
            sim.run()
        sim.export_obs()
        sim.trace.close_sinks()
        return path

    def test_report_renders_and_writes_json(self, tmp_path, capsys):
        path = self._export(tmp_path)
        json_out = tmp_path / "report.json"
        rc = report_main(["report", str(path), "--top", "10",
                          "--json", str(json_out)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hot paths" in out
        assert "module_level_tick" in out
        assert "tick" in out  # trace category section
        summary = json.loads(json_out.read_text())
        assert summary["trace_counts"]["tick"] == 1
        assert summary["skipped_lines"] == 0
        assert any(
            row["label"] == "module_level_tick" for row in summary["hot_paths"]
        )
        assert "smoke" in summary["spans"]

    def test_report_survives_truncated_export(self, tmp_path, capsys):
        path = self._export(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the final line
        rc = report_main(["report", str(path)])
        assert rc == 0
        assert "skipped" in capsys.readouterr().out
