"""Tests for hierarchical spans: nesting, scoping, durations, trace emission."""

import pytest

from repro.sim import Simulator


class TestSpanBasics:
    def test_context_manager_closes(self):
        sim = Simulator()
        with sim.span("phase") as span:
            assert span.t_end is None
        assert span.t_end == sim.now
        assert sim.spans.finished == [span]

    def test_nesting_parent_depth_path(self):
        sim = Simulator()
        with sim.span("outer") as outer:
            with sim.span("inner") as inner:
                assert inner.parent is outer
                assert inner.depth == 1
                assert inner.path == "outer;inner"
        assert outer.depth == 0
        assert outer.path == "outer"

    def test_attributes_carried(self):
        sim = Simulator()
        with sim.span("synthesis", composer="greedy", n_assets=100) as span:
            pass
        assert span.attrs == {"composer": "greedy", "n_assets": 100}

    def test_virtual_duration_tracks_sim_clock(self):
        sim = Simulator()
        span = sim.span("run")
        sim.call_in(4.5, span.close)
        sim.run()
        assert span.virtual_s == pytest.approx(4.5)

    def test_wall_duration_positive_and_monotone(self):
        sim = Simulator()
        with sim.span("w") as span:
            acc = sum(range(1000))
        assert acc >= 0
        assert span.wall_s >= 0.0
        assert span.wall_end >= span.wall_start

    def test_double_close_is_idempotent(self):
        sim = Simulator()
        span = sim.span("once")
        span.close()
        span.close()
        assert sim.spans.finished.count(span) == 1

class TestSpanInterleaving:
    """Two callback chains holding overlapping spans across events must not
    corrupt each other's stacks — the interleave case per-scope stacks
    exist for."""

    def test_callback_chain_interleaved_spans_stay_scoped(self):
        sim = Simulator()

        def worker(name, start_delay):
            def open_outer():
                outer = sim.spans.span("work", scope=name)

                def open_inner():
                    inner = sim.spans.span("inner", scope=name)
                    sim.call_in(1.0, inner.close)
                    sim.call_in(2.0, outer.close)

                sim.call_in(1.0, open_inner)

            sim.call_in(start_delay, open_outer)

        worker("A", 0.0)
        worker("B", 0.5)  # overlaps A the whole way
        sim.run()

        finished = [(s.path, s.scope, s.virtual_s) for s in sim.spans.finished]
        assert ("work;inner", "A", pytest.approx(1.0)) in [
            (p, sc, v) for p, sc, v in finished
        ]
        by_scope = {}
        for span in sim.spans.finished:
            by_scope.setdefault(span.scope, []).append(span)
        for scope in ("A", "B"):
            paths = sorted(s.path for s in by_scope[scope])
            assert paths == ["work", "work;inner"]
            outer = next(s for s in by_scope[scope] if s.path == "work")
            inner = next(s for s in by_scope[scope] if s.path == "work;inner")
            # Nesting survived the interleave: inner's parent is its own
            # scope's outer, not the other chain's span.
            assert inner.parent is outer
            assert outer.virtual_s == pytest.approx(3.0)
            assert inner.virtual_s == pytest.approx(1.0)
        # Both scope stacks drained completely.
        assert sim.spans._stacks == {"A": [], "B": []}

    def test_out_of_order_close_removes_by_identity(self):
        sim = Simulator()
        a = sim.spans.span("a")
        b = sim.spans.span("b")
        a.close()  # misnested: outer closed while inner still open
        assert sim.spans._stacks["main"] == [b]
        b.close()
        assert sim.spans._stacks["main"] == []
        assert {s.name for s in sim.spans.finished} == {"a", "b"}


class TestSpanTraceEmission:
    def test_closed_span_emits_trace_record(self):
        sim = Simulator()
        with sim.span("phase", k=1):
            pass
        records = [r for r in sim.trace.records if r.category == "obs.span"]
        assert len(records) == 1
        rec = records[0]
        assert rec.get("name") == "phase"
        assert rec.get("path") == "phase"
        assert rec.get("k") == 1

    def test_trace_record_has_no_wall_clock(self):
        # Wall time is nondeterministic; it must stay out of the in-memory
        # trace or span-instrumented runs lose stable fingerprints.
        sim = Simulator()
        with sim.span("phase"):
            pass
        (rec,) = [r for r in sim.trace.records if r.category == "obs.span"]
        assert rec.get("wall_s") is None
        assert rec.get("virtual_s") is not None

    def test_fingerprint_stable_across_span_instrumented_runs(self):
        def run():
            sim = Simulator(seed=9)

            def step():
                span = sim.span("step", scope="p")
                sim.call_in(2.0, span.close)

            sim.call_in(0.0, step)
            sim.run()
            return sim.trace.fingerprint()

        assert run() == run()

    def test_emit_trace_off_keeps_trace_clean(self):
        sim = Simulator()
        sim.spans.emit_trace = False
        with sim.span("quiet"):
            pass
        assert all(r.category != "obs.span" for r in sim.trace.records)
        assert len(sim.spans.finished) == 1
