"""Observability: spans, kernel profiling, streaming telemetry, reports.

The self-monitoring substrate the paper's adaptive IoBT loop assumes
(Fig. 3: systems that observe their own behavior), and the measurement
layer every performance PR reports against:

* :mod:`repro.obs.spans` — hierarchical spans recording virtual *and*
  wall-clock durations (``with sim.span("synthesis"): ...``);
* :mod:`repro.obs.profiler` — opt-in per-event-callback wall-clock
  attribution with hot-path tables and collapsed stacks for flamegraphs;
* :mod:`repro.obs.sinks` — streaming, size-rotated NDJSON sinks, so
  traces stop silently truncating at ``max_records``;
* :mod:`repro.obs.registry` — fixed-size counter/gauge/histogram
  instruments fed by :mod:`repro.net` and :mod:`repro.faults`;
* :mod:`repro.obs.tracing` — causal (Dapper-style) packet tracing:
  per-hop ``pkt.*`` events linked by a ``(tid, span, hop)`` packet header;
* :mod:`repro.obs.analyze` — offline happens-before reconstruction,
  latency phase attribution, critical paths, Chrome-trace export;
* :mod:`repro.obs.telemetry` — the zero-tax binary trace plane: an
  append-only struct-packed store with string interning that staged
  records are compacted into, decoded lazily on first read, and its
  ``.ring`` file format;
* :mod:`repro.obs.merge` — cross-shard unification: deterministic trace
  merging plus :func:`~repro.obs.merge.merge_metrics` for registry
  states (counters summed, replicated families max-merged);
* :mod:`repro.obs.export` — OpenMetrics text rendering/parsing and the
  live snapshot/SLO layer;
* :mod:`repro.obs.forensics` (imported on its own: it pulls in the
  campaign layer) — run forensics: RunManifests stamped next
  to every export, ``python -m repro.obs replay <manifest>``
  (deterministic re-execution with checkpointed asserts), and
  ``python -m repro.obs diff A B`` (first-divergence location with
  happens-before context);
* :mod:`repro.obs.report` — ``python -m repro.obs report run.ndjson``,
  ``python -m repro.obs trace run.ndjson``, and
  ``python -m repro.obs live <export-dir>``.

:func:`wire_from_env` turns the whole stack on from the environment
(``REPRO_OBS_NDJSON=<path>``, ``REPRO_OBS_PROFILE=1``,
``REPRO_OBS_TRACE=1``), which is how the benchmark harness and CI's
obs-smoke job opt in without code changes.
"""

from __future__ import annotations

import itertools
import os
from typing import Optional

from repro.obs.analyze import (
    TraceAnalysis,
    analyze_trace,
    chrome_trace,
    render_trace_report,
    trace_summary_json,
)
from repro.obs.export import (
    check_slos,
    flatten_snapshot,
    live_snapshot,
    parse_openmetrics,
    parse_slo,
    render_live,
    render_openmetrics,
    state_from_records,
)
from repro.obs.merge import (
    merge_metrics,
    merge_traces,
    merged_fingerprint,
    payload_to_records,
)
from repro.obs.profiler import KernelProfiler
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import REPORT_SCHEMA, ReportInputError, collect_export
from repro.obs.report import main as report_main
from repro.obs.report import render_report, summarize_run
from repro.obs.telemetry import (
    BinaryTraceRing,
    RecordSchema,
    RingFormatError,
    StringTable,
    load_ring,
)
from repro.obs.sinks import NdjsonSink, Sink, ndjson_parts, read_ndjson
from repro.obs.spans import Span, SpanTracker
from repro.obs.tracing import TRACE_CATEGORIES, TRACE_HEADER, PacketTracer

__all__ = [
    "merge_traces",
    "merged_fingerprint",
    "merge_metrics",
    "payload_to_records",
    "BinaryTraceRing",
    "RecordSchema",
    "StringTable",
    "RingFormatError",
    "load_ring",
    "render_openmetrics",
    "parse_openmetrics",
    "state_from_records",
    "live_snapshot",
    "flatten_snapshot",
    "render_live",
    "parse_slo",
    "check_slos",
    "REPORT_SCHEMA",
    "Span",
    "SpanTracker",
    "KernelProfiler",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sink",
    "NdjsonSink",
    "ndjson_parts",
    "read_ndjson",
    "summarize_run",
    "render_report",
    "report_main",
    "collect_export",
    "ReportInputError",
    "PacketTracer",
    "TRACE_HEADER",
    "TRACE_CATEGORIES",
    "TraceAnalysis",
    "analyze_trace",
    "chrome_trace",
    "render_trace_report",
    "trace_summary_json",
    "wire_from_env",
]

#: Default rotation size for env-wired NDJSON sinks (64 MiB).
ENV_ROTATE_BYTES = 64 * 1024 * 1024

# Sequence for per-simulator export files under REPRO_OBS_NDJSON_DIR.
_export_seq = itertools.count(1)


def wire_from_env(sim, env: Optional[dict] = None, *, shard: Optional[int] = None):
    """Attach sinks/profiler/tracer to ``sim`` per ``REPRO_OBS_*`` variables.

    * ``REPRO_OBS_NDJSON`` — stream the trace to this NDJSON path
      (append mode, so sequential tasks of one run share the export);
    * ``REPRO_OBS_NDJSON_DIR`` — alternative to the above: each wired
      simulator gets its own ``task-<pid>-<seq>.ndjson`` file in this
      directory, so parallel campaign workers never interleave writes
      (``python -m repro.obs trace <dir>`` folds them back together);
    * ``REPRO_OBS_RING_DIR`` — like the above but binary: the simulator's
      trace is dumped as a struct-packed ``.ring`` file at export time
      (``sim.export_obs()``), the cheapest way to keep a full trace;
    * ``REPRO_OBS_PROFILE`` — any non-empty value enables the kernel
      profiler; its rows reach the sink when ``sim.export_obs()`` runs;
    * ``REPRO_OBS_TRACE`` — any non-empty value enables causal packet
      tracing (:mod:`repro.obs.tracing`) on the simulator.

    NDJSON sinks rotate at :data:`ENV_ROTATE_BYTES`.

    Sinks are fed in batches, at each trace compaction and each flush
    point, like every :class:`~repro.sim.trace.TraceLog` sink: env-wired
    telemetry rides the staging path.  Every env-wired flow already
    flushes — ``sim.export_obs()`` and ``trace.flush_sinks()`` both drain
    the backlog first.

    ``shard`` namespaces the per-simulator export files (``shard<k>-``
    prefix) so shard workers sharing one export directory can never
    collide: fork-mode siblings inherit the parent's sequence counter and
    can race the same ``task-<pid>-<seq>`` name; the shard index is
    unique by construction (:class:`~repro.shard.runtime.ShardRuntime`
    passes its shard index).

    Returns ``sim`` so builders can chain it.
    """
    env = env if env is not None else os.environ
    prefix = "" if shard is None else f"shard{shard}-"
    path = env.get("REPRO_OBS_NDJSON")
    if path:
        sim.trace.add_sink(NdjsonSink(path, max_bytes=ENV_ROTATE_BYTES, append=True))
    export_dir = env.get("REPRO_OBS_NDJSON_DIR")
    if export_dir:
        name = f"{prefix}task-{os.getpid()}-{next(_export_seq)}.ndjson"
        sim.trace.add_sink(
            NdjsonSink(os.path.join(export_dir, name), max_bytes=ENV_ROTATE_BYTES, append=True)
        )
    ring_dir = env.get("REPRO_OBS_RING_DIR")
    if ring_dir:
        name = f"{prefix}task-{os.getpid()}-{next(_export_seq)}.ring"
        sim.ring_dump_path = os.path.join(ring_dir, name)
    if env.get("REPRO_OBS_PROFILE"):
        sim.enable_profiling()
    if env.get("REPRO_OBS_TRACE"):
        sim.enable_packet_tracing()
    return sim
