"""Run reports: summarize a telemetry export.

``python -m repro.obs report run.ndjson`` digests the record stream a
:class:`~repro.obs.sinks.NdjsonSink` captured — trace events, spans,
metric snapshots, profiler rows — into one run summary: per-category trace
counts, span aggregates, the top-N wall-clock hot paths, and final metric
values.  ``--json`` writes the summary machine-readably (stamped with a
``schema`` version) so CI can assert on it; the text rendering is for
humans.

``python -m repro.obs trace run.ndjson`` runs the causal packet-trace
analyzer (:mod:`repro.obs.analyze`) over the same export: per-flow latency
phase breakdowns, the delivery critical path, and optional Chrome-trace
JSON export (``--chrome out.json``).

``python -m repro.obs live run-dir --slo 'kernel.events_per_sec>=1000'``
watches an export in a snapshot loop: kernel event rate, per-router
delivery ratios, service breaker states, and shard lag in one screen,
with counter rates between samples and exit status 1 when an SLO
threshold is breached (see :mod:`repro.obs.export`).

``python -m repro.obs replay run.ndjson.manifest.json`` re-executes a run
from its RunManifest and asserts the replayed trace fingerprint matches,
checkpoint by checkpoint; ``python -m repro.obs diff A B`` locates the
first record on which two exports disagree (see
:mod:`repro.obs.forensics`).

All subcommands accept a single export file, a rotated export (the
``path.N`` generations are folded in automatically), or a directory
mixing ``*.ndjson`` exports and ``*.ring`` binary trace dumps; a missing
or empty input is a clear error with exit status 2, not a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.sinks import ndjson_parts, read_ndjson
from repro.obs.telemetry import RingFormatError, load_ring
from repro.util.tables import json_safe

__all__ = [
    "summarize_run",
    "render_report",
    "collect_export",
    "ReportInputError",
    "REPORT_SCHEMA",
    "main",
]

#: Version stamp for ``report --json`` output.  Bump when summary keys
#: change shape so downstream consumers can dispatch on it.
REPORT_SCHEMA = "obs-report/2"


class ReportInputError(Exception):
    """The CLI input path held no readable telemetry."""


def collect_export(path: str) -> Tuple[List[Dict[str, Any]], int, List[str]]:
    """Load every record the input path holds.

    ``path`` may be an export file (rotated generations are included), a
    ``*.ring`` binary trace dump, or a directory mixing ``*.ndjson``
    exports (each with its rotations) and ``*.ring`` dumps — shard
    workers and the serial path may land different formats in the same
    export directory.  Returns ``(records, skipped, parts)``, where
    ``skipped`` counts unparsable NDJSON lines.  Raises
    :class:`ReportInputError` with a human-ready message when the path is
    missing, matches nothing, holds a ``.ring`` that is not one whole dump
    (see :func:`~repro.obs.telemetry.load_ring`), or yields zero records.
    """
    if os.path.isdir(path):
        names = sorted(os.listdir(path))
        bases = [
            os.path.join(path, name) for name in names if name.endswith(".ndjson")
        ]
        rings = [
            os.path.join(path, name) for name in names if name.endswith(".ring")
        ]
        if not bases and not rings:
            raise ReportInputError(
                f"no *.ndjson or *.ring exports found in directory {path!r} — "
                "was the run started with REPRO_OBS_NDJSON_DIR or "
                "REPRO_OBS_RING_DIR set?"
            )
        parts = [part for base in bases for part in ndjson_parts(base)]
        parts.extend(rings)
    elif path.endswith(".ring"):
        parts = [path] if os.path.exists(path) else []
        if not parts:
            raise ReportInputError(f"ring dump not found: {path!r}")
    else:
        parts = ndjson_parts(path)
        if not parts:
            raise ReportInputError(
                f"export not found: {path!r} (no such file and no rotated "
                "generations next to it)"
            )
    records: List[Dict[str, Any]] = []
    skipped = 0
    for part in parts:
        if part.endswith(".ring"):
            try:
                records.extend(load_ring(part))
            except RingFormatError as exc:
                raise ReportInputError(str(exc)) from exc
            continue
        part_records, part_skipped = read_ndjson(part)
        records.extend(part_records)
        skipped += part_skipped
    if not records:
        raise ReportInputError(
            f"export at {path!r} contains no records "
            f"({len(parts)} file(s) read, {skipped} unparsable line(s)) — "
            "nothing to report"
        )
    return records, skipped, parts


def summarize_run(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold a telemetry record stream into one summary dict.

    Profiler rows are cumulative snapshots — a run that exports twice
    reports each label's *latest* (largest) totals, not their sum.
    """
    trace_counts: Dict[str, int] = {}
    span_agg: Dict[str, Dict[str, float]] = {}
    profile: Dict[str, Dict[str, float]] = {}
    metrics: Dict[str, Dict[str, Any]] = {}
    meta_events: List[Dict[str, Any]] = []
    n_records = 0
    t_min: Optional[float] = None
    t_max: Optional[float] = None

    for record in records:
        n_records += 1
        rtype = record.get("type", "trace")
        if rtype == "trace":
            category = record.get("category", "?")
            trace_counts[category] = trace_counts.get(category, 0) + 1
            t = record.get("time")
            if isinstance(t, (int, float)):
                t_min = t if t_min is None else min(t_min, t)
                t_max = t if t_max is None else max(t_max, t)
        elif rtype == "span":
            path = record.get("path", record.get("name", "?"))
            agg = span_agg.setdefault(
                path, {"count": 0, "virtual_s": 0.0, "wall_s": 0.0}
            )
            agg["count"] += 1
            agg["virtual_s"] += float(record.get("virtual_s") or 0.0)
            agg["wall_s"] += float(record.get("wall_s") or 0.0)
        elif rtype == "profile":
            label = record.get("label", "?")
            entry = profile.setdefault(label, {"calls": 0, "wall_s": 0.0})
            entry["calls"] = max(entry["calls"], int(record.get("calls") or 0))
            entry["wall_s"] = max(
                entry["wall_s"], float(record.get("wall_s") or 0.0)
            )
        elif rtype == "metric":
            name = record.get("name", "?")
            metrics[name] = {
                k: v for k, v in record.items() if k not in ("type", "name")
            }
        elif rtype == "meta":
            # Exports written by older kernels can carry inf/nan rates
            # (zero wall-elapsed runs); scrub them here so the summary —
            # printed or JSON-dumped — never propagates non-finite floats.
            meta_events.append(json_safe(record))

    hot_paths = sorted(
        (
            {"label": label, "calls": entry["calls"], "wall_s": entry["wall_s"]}
            for label, entry in profile.items()
        ),
        key=lambda row: (-row["wall_s"], row["label"]),
    )
    return {
        "schema": REPORT_SCHEMA,
        "n_records": n_records,
        "virtual_time": {"min": t_min, "max": t_max},
        "trace_counts": dict(sorted(trace_counts.items())),
        "spans": dict(sorted(span_agg.items())),
        "hot_paths": hot_paths,
        "metrics": dict(sorted(metrics.items())),
        "meta_events": meta_events,
    }


def render_report(summary: Dict[str, Any], *, top: int = 10) -> str:
    """Human-readable rendering of :func:`summarize_run` output."""
    lines: List[str] = []
    vt = summary["virtual_time"]
    lines.append(
        f"records: {summary['n_records']}  "
        f"virtual time: [{vt['min']}, {vt['max']}]"
    )

    if summary["trace_counts"]:
        lines.append("")
        lines.append("== trace records by category ==")
        width = max(len(c) for c in summary["trace_counts"])
        for category, count in summary["trace_counts"].items():
            lines.append(f"  {category.ljust(width)}  {count}")

    hot = summary["hot_paths"][:top]
    if hot:
        total = sum(row["wall_s"] for row in summary["hot_paths"])
        lines.append("")
        lines.append(f"== top {len(hot)} wall-clock hot paths ==")
        lines.append(f"  {'wall_s':>10}  {'share':>6}  {'calls':>9}  label")
        for row in hot:
            share = row["wall_s"] / total if total > 0 else 0.0
            lines.append(
                f"  {row['wall_s']:>10.4f}  {share:>6.1%}  "
                f"{row['calls']:>9d}  {row['label']}"
            )

    if summary["spans"]:
        lines.append("")
        lines.append("== spans (by path) ==")
        for path, agg in summary["spans"].items():
            lines.append(
                f"  {path}: n={int(agg['count'])} "
                f"virtual={agg['virtual_s']:.3f}s wall={agg['wall_s']:.4f}s"
            )

    if summary["metrics"]:
        lines.append("")
        lines.append("== metrics ==")
        for name, body in summary["metrics"].items():
            if body.get("kind") == "histogram":
                lines.append(
                    f"  {name}: n={body.get('count', 0):.0f} "
                    f"mean={body.get('mean', float('nan')):.6g} "
                    f"p95={body.get('p95', float('nan')):.6g}"
                )
            else:
                lines.append(f"  {name}: {body.get('value')}")

    for event in summary["meta_events"]:
        if event.get("event") == "trace_capped":
            lines.append("")
            lines.append(
                f"!! in-memory trace capped at {event.get('max_records')} "
                "records (full stream preserved in this export)"
            )
    return "\n".join(lines)


def _run_live(args: argparse.Namespace) -> int:
    """Snapshot loop behind ``python -m repro.obs live``.

    Re-reads the export each tick (sinks are cumulative, so the latest
    metric records are the current truth), derives counter rates from the
    previous sample, and evaluates ``--slo`` thresholds.  Exit status: 1
    if the final snapshot breached an SLO, 2 if the export never became
    readable, else 0.
    """
    from repro.obs.export import (
        check_slos,
        flatten_snapshot,
        live_snapshot,
        parse_slo,
        render_live,
        state_from_records,
    )

    try:
        for spec in args.slo:
            parse_slo(spec)  # fail fast on typos, before the loop
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    prev_counters: Dict[str, float] = {}
    prev_wall: Optional[float] = None
    breaches: List[str] = []
    saw_data = False
    tick = 0
    while True:
        tick += 1
        try:
            records, _, _ = collect_export(args.path)
        except ReportInputError as exc:
            if args.count and tick >= args.count:
                if not saw_data:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                break
            print(f"[waiting] {exc}", file=sys.stderr)
            time.sleep(args.interval)
            continue
        saw_data = True
        state, meta = state_from_records(records)
        now = time.monotonic()
        rates: Dict[str, float] = {}
        counters = {
            name: float(inst["value"])
            for name, inst in state.items()
            if inst.get("kind") == "counter"
        }
        if prev_wall is not None and now > prev_wall:
            dt = now - prev_wall
            for name, value in counters.items():
                delta = value - prev_counters.get(name, 0.0)
                if delta:
                    rates[name] = delta / dt
        prev_counters, prev_wall = counters, now
        snapshot = live_snapshot(state, meta, rates=rates or None)
        breaches = check_slos(flatten_snapshot(snapshot, state), args.slo)
        if tick > 1:
            print()
        print(render_live(snapshot))
        for breach in breaches:
            print(f"SLO BREACH: {breach}")
        if args.json_out:
            _write_json(
                args.json_out, {"snapshot": snapshot, "slo_breaches": breaches}
            )
        if args.count and tick >= args.count:
            break
        time.sleep(args.interval)
    return 1 if breaches else 0


def _run_replay(args: argparse.Namespace) -> int:
    """``python -m repro.obs replay <manifest>``: exit 0 when the rebuilt
    run reproduces the recorded fingerprint, 1 on divergence, 2 when the
    manifest is unreadable or not replayable."""
    from repro.obs.forensics import (
        ForensicsError,
        load_manifest,
        render_replay_report,
        replay_manifest,
    )

    try:
        manifest = load_manifest(args.manifest)
        report = replay_manifest(manifest, from_time=args.from_time)
    except ForensicsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_replay_report(report))
    if args.json_out:
        _write_json(args.json_out, report)
        print(f"wrote {args.json_out}")
    return 0 if report["match"] else 1


def _run_diff(args: argparse.Namespace) -> int:
    """``python -m repro.obs diff A B``: exit 0 identical, 1 diverged,
    2 when either export is unreadable."""
    from repro.obs.forensics import diff_exports, render_diff

    try:
        result = diff_exports(args.a, args.b, context=args.context)
    except ReportInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_diff(result, context=args.context))
    if args.json_out:
        _write_json(args.json_out, result)
        print(f"wrote {args.json_out}")
    return 0 if result["identical"] else 1


def _write_json(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(json_safe(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability utilities for repro runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="summarize an NDJSON telemetry export")
    report.add_argument("path", help="run.ndjson produced by an NdjsonSink")
    report.add_argument("--top", type=int, default=10, help="hot paths to show")
    report.add_argument("--json", dest="json_out", default=None,
                        help="also write the summary as JSON here")
    trace = sub.add_parser(
        "trace",
        help="causal packet-trace analysis: latency phases, critical path",
    )
    trace.add_argument("path", help="export file or directory of *.ndjson")
    trace.add_argument("--top", type=int, default=10, help="flows to show")
    trace.add_argument("--json", dest="json_out", default=None,
                       help="write the machine-readable digest here")
    trace.add_argument("--chrome", dest="chrome_out", default=None,
                       help="write Chrome Trace Event JSON here")
    live = sub.add_parser(
        "live",
        help="snapshot loop: event rate, delivery ratios, breakers, SLOs",
    )
    live.add_argument("path", help="export file or directory (*.ndjson/*.ring)")
    live.add_argument("--interval", type=float, default=2.0,
                      help="seconds between snapshots (default: 2)")
    live.add_argument("--count", type=int, default=0,
                      help="snapshots to take before exiting (0 = forever)")
    live.add_argument("--slo", action="append", default=[], metavar="SPEC",
                      help="threshold like 'kernel.events_per_sec>=1000' "
                           "(repeatable; breach makes the exit status 1)")
    live.add_argument("--json", dest="json_out", default=None,
                      help="also write the final snapshot as JSON here")
    replay = sub.add_parser(
        "replay",
        help="re-execute a run from its RunManifest and assert determinism",
    )
    replay.add_argument(
        "manifest", help="<export>.manifest.json stamped next to an export"
    )
    replay.add_argument(
        "--from", dest="from_time", type=float, default=None, metavar="T",
        help="only assert checkpoints at virtual time >= T",
    )
    replay.add_argument("--json", dest="json_out", default=None,
                        help="also write the replay report as JSON here")
    diff = sub.add_parser(
        "diff",
        help="first-divergence diff of two exports (exit 1 when they differ)",
    )
    diff.add_argument("a", help="first export (file, dir, or *.ring)")
    diff.add_argument("b", help="second export")
    diff.add_argument("--context", type=int, default=5,
                      help="records of context around the divergence")
    diff.add_argument("--json", dest="json_out", default=None,
                      help="also write the diff report as JSON here")
    args = parser.parse_args(argv)

    if args.command == "live":
        return _run_live(args)
    if args.command == "replay":
        return _run_replay(args)
    if args.command == "diff":
        return _run_diff(args)

    try:
        records, skipped, parts = collect_export(args.path)
    except ReportInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "trace":
        from repro.obs.analyze import (
            analyze_trace,
            chrome_trace,
            render_trace_report,
            trace_summary_json,
        )

        analysis = analyze_trace(records)
        if not analysis.packets:
            print(
                "error: export holds no pkt.* records — was the run started "
                "with packet tracing enabled (REPRO_OBS_TRACE=1 or "
                "sim.enable_packet_tracing())?",
                file=sys.stderr,
            )
            return 2
        print(render_trace_report(analysis, top=args.top))
        if skipped:
            print(f"\n({skipped} unparsable line(s) skipped)")
        if args.json_out:
            _write_json(args.json_out, trace_summary_json(analysis))
            print(f"wrote {args.json_out}")
        if args.chrome_out:
            _write_json(args.chrome_out, chrome_trace(analysis))
            print(f"wrote {args.chrome_out}")
        return 0

    summary = summarize_run(records)
    summary["skipped_lines"] = skipped
    summary["parts"] = parts
    print(render_report(summary, top=args.top))
    if skipped:
        print(f"\n({skipped} unparsable line(s) skipped — truncated export?)")
    if args.json_out:
        _write_json(args.json_out, summary)
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
