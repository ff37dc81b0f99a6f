"""Run forensics: provenance manifests, deterministic replay, divergence diffing.

Three capabilities that turn "the fingerprints disagree" into an auditable
finding:

* **RunManifest** — the provenance record stamped alongside every ring and
  NDJSON export (``<export>.manifest.json``) and into campaign cache
  entries: repro version, root seed, content hashes of the specs that
  shaped the run, every named RNG stream's identity and exact draw count
  (recovered from PCG64 state via the LCG distance walk in
  :mod:`repro.util.rng` — nothing is counted on the hot path), env knobs,
  and periodic ``(time, per-stream draws)`` checkpoints.  Manifests whose
  world is fully declarative (a :class:`~repro.shard.spec.ShardScenarioSpec`)
  also embed the spec itself, making them *replayable*.
* **Deterministic replay** — ``python -m repro.obs replay <manifest>``
  rebuilds the world through the PR5 stack registry (via
  :func:`repro.shard.engine.run_serial`) and asserts that the replayed
  trace fingerprint equals the recorded one, checkpoint by checkpoint;
  ``--from T`` narrows the assertions to checkpoints at or after ``T``.
* **First-divergence diffing** — ``python -m repro.obs diff A B``
  decodes two exports, orders both streams canonically (time-major, the
  same canonical record form :func:`repro.obs.merge.merged_fingerprint`
  hashes), and walks them in lockstep to the first record present in one
  stream but not the other, printing the surrounding records and — for
  ``pkt.*`` events — the happens-before packet chain reconstructed by
  :mod:`repro.obs.analyze`.

:func:`dump_divergence` is the shard-engine integration: when a sharded
run's merged fingerprint disagrees with the serial reference,
:meth:`repro.shard.engine.ShardedSimulator.run_verified` dumps both
streams, their manifests, and a ``divergence.json`` naming the first
divergent event and its owning shard.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro._version import __version__
from repro.campaign.spec import canonical_json
from repro.obs.merge import MERGE_FIELDS, _as_dict, _canonical_entry
from repro.obs.merge import merged_fingerprint
from repro.util.tables import json_safe

__all__ = [
    "MANIFEST_SCHEMA",
    "DIVERGENCE_SCHEMA",
    "REPLAY_SCHEMA",
    "ForensicsError",
    "ReplayError",
    "RunManifest",
    "content_hash",
    "manifest_path",
    "manifest_for_sim",
    "manifest_for_shard_result",
    "write_manifest",
    "load_manifest",
    "replay_manifest",
    "render_replay_report",
    "diff_records",
    "diff_exports",
    "render_diff",
    "causal_context",
    "dump_divergence",
]

#: Schema tags; bump when payload keys change shape.
MANIFEST_SCHEMA = "run-manifest/1"
DIVERGENCE_SCHEMA = "divergence-report/1"
REPLAY_SCHEMA = "replay-report/1"


class ForensicsError(Exception):
    """A forensics input that cannot be used (unreadable, wrong schema)."""


class ReplayError(ForensicsError):
    """The manifest cannot drive a replay (missing or non-replayable)."""


def content_hash(value: Any) -> str:
    """Stable short digest of any canonically-JSON-encodable value.

    Dataclass specs (StackSpec, ShardScenarioSpec, ShardPlan) hash by
    content via :func:`repro.campaign.spec.canonical_json`, so equal specs
    hash equal across processes and repo checkouts.
    """
    encoded = canonical_json(value).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:16]


def manifest_path(export_path: str) -> str:
    """Where the manifest for an export file lives (``<export>.manifest.json``)."""
    return export_path + ".manifest.json"


# ---------------------------------------------------------------------------
# RunManifest
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    """Everything needed to reproduce and audit one run.

    ``scenario`` is the optional replay payload: present iff the whole
    world is rebuildable from a declarative spec (``kind: "shard-world"``
    embeds a :class:`~repro.shard.spec.ShardScenarioSpec` +
    :class:`~repro.shard.spec.ShardPlan`).  Manifests without it are
    provenance-only: they still identify the run but cannot drive
    ``obs replay``.
    """

    root_seed: int = 0
    #: Partition-invariant trace digest (:func:`merged_fingerprint`).
    fingerprint: str = ""
    schema: str = MANIFEST_SCHEMA
    repro_version: str = __version__
    #: name -> short sha256 of the spec that shaped the run
    #: (``stack_spec``, ``scenario_spec``, ``shard_plan``, ...).
    content_hashes: Dict[str, str] = field(default_factory=dict)
    #: One ``{"name", "seed", "draws", "state_digest"}`` row per RNG
    #: stream touched; ``draws`` is the exact number of 64-bit outputs.
    rng_streams: List[Dict[str, Any]] = field(default_factory=list)
    #: Periodic ``{"time", "draws": {stream: n}, "prefix_fingerprint"}``
    #: rows; replay asserts each one, and ``--from T`` windows them.
    checkpoints: List[Dict[str, Any]] = field(default_factory=list)
    checkpoint_interval_s: Optional[float] = None
    scenario: Optional[Dict[str, Any]] = None
    #: ``REPRO_*`` environment knobs active when the run exported.
    env: Dict[str, str] = field(default_factory=dict)
    #: Export files this manifest was stamped next to.
    exports: List[str] = field(default_factory=list)
    counters: Dict[str, Any] = field(default_factory=dict)
    created_at: float = 0.0

    @property
    def replayable(self) -> bool:
        return self.scenario is not None

    def as_dict(self) -> Dict[str, Any]:
        return json_safe(dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


def _env_knobs() -> Dict[str, str]:
    return {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}


def _record_time(record: Any) -> float:
    if isinstance(record, Mapping):
        return float(record["time"])
    return float(record.time)


def _with_prefix_fingerprints(
    checkpoints: Iterable[Mapping[str, Any]], records: List[Any]
) -> List[Dict[str, Any]]:
    """Attach the fingerprint of each checkpoint's ``time <= t`` prefix.

    One sort of the record times serves every checkpoint; the prefix
    boundary uses the same 9-decimal rounding as the fingerprint itself.
    """
    out = []
    times = [round(_record_time(r), 9) for r in records]
    for cp in checkpoints:
        row = dict(cp)
        bound = round(float(row["time"]), 9)
        prefix = [r for r, t in zip(records, times) if t <= bound]
        row["prefix_fingerprint"] = merged_fingerprint(prefix)
        out.append(row)
    return out


def manifest_for_sim(sim: Any, *, exports: Iterable[str] = ()) -> RunManifest:
    """Build a manifest from a live :class:`~repro.sim.kernel.Simulator`.

    Reads the provenance facts builders stamped on ``sim.provenance``
    (content hashes, and a ``scenario`` replay payload when the world is
    declarative), the RNG stream states, and any checkpoints captured by
    :meth:`~repro.sim.kernel.Simulator.enable_rng_checkpoints`.
    """
    provenance = dict(getattr(sim, "provenance", None) or {})
    records = list(sim.trace.records)
    scenario = provenance.get("scenario")
    if scenario is not None:
        scenario = dict(scenario)
        if scenario.get("until") is None:
            scenario["until"] = sim.now
    return RunManifest(
        root_seed=sim.rng.seed,
        fingerprint=merged_fingerprint(records),
        content_hashes=dict(provenance.get("content_hashes", {})),
        rng_streams=sim.rng.stream_states(),
        checkpoints=_with_prefix_fingerprints(
            getattr(sim, "rng_checkpoints", ()), records
        ),
        checkpoint_interval_s=getattr(sim, "rng_checkpoint_interval_s", None),
        scenario=scenario,
        env=_env_knobs(),
        exports=list(exports),
        counters={
            "events_processed": sim.events_processed,
            "n_trace_records": len(records),
        },
        created_at=_time.time(),
    )


def manifest_for_shard_result(
    spec: Any,
    plan: Any,
    until: float,
    result: Any,
    *,
    exports: Iterable[str] = (),
) -> RunManifest:
    """Build a manifest from a :class:`~repro.shard.engine.ShardRunResult`.

    Shard worlds are fully declarative, so the manifest always embeds the
    replay payload — this is the replayable manifest family.
    """
    return RunManifest(
        root_seed=spec.seed,
        fingerprint=result.fingerprint(),
        content_hashes={
            "scenario_spec": content_hash(spec),
            "shard_plan": content_hash(plan),
        },
        rng_streams=list(getattr(result, "rng_streams", ()) or ()),
        checkpoints=_with_prefix_fingerprints(
            getattr(result, "rng_checkpoints", ()) or (), result.records
        ),
        checkpoint_interval_s=getattr(result, "checkpoint_interval_s", None),
        scenario={
            "kind": "shard-world",
            "spec": json_safe(dataclasses.asdict(spec)),
            "plan": json_safe(dataclasses.asdict(plan)),
            "until": until,
        },
        env=_env_knobs(),
        exports=list(exports),
        counters={
            "events_processed": result.events_processed,
            "n_trace_records": len(result.records),
            "n_shards": result.n_shards,
            "mode": result.mode,
        },
        created_at=_time.time(),
    )


def write_manifest(manifest: RunManifest, path: str) -> str:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest.as_dict(), fh, indent=2, allow_nan=False)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def load_manifest(path: str) -> RunManifest:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        raise ForensicsError(f"manifest not found: {path!r}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ForensicsError(f"unreadable manifest {path!r}: {exc}")
    if not isinstance(payload, dict) or payload.get("schema") != MANIFEST_SCHEMA:
        raise ForensicsError(
            f"{path!r} is not a {MANIFEST_SCHEMA} manifest "
            f"(schema={payload.get('schema') if isinstance(payload, dict) else '?'!r})"
        )
    return RunManifest.from_dict(payload)


# ---------------------------------------------------------------------------
# Deterministic replay
# ---------------------------------------------------------------------------


def _spec_from_payload(payload: Mapping[str, Any]) -> Any:
    """Rebuild a ShardScenarioSpec from its JSON manifest form."""
    from repro.shard.spec import (
        ChurnSpec,
        FaultPlanSpec,
        LinkFlapSpec,
        ShardScenarioSpec,
        WorkloadSpec,
    )

    data = dict(payload)
    data["workload"] = WorkloadSpec(**data.get("workload") or {})
    faults = data.get("faults")
    if faults:
        data["faults"] = FaultPlanSpec(
            churn=ChurnSpec(**faults["churn"]) if faults.get("churn") else None,
            link_flap=(
                LinkFlapSpec(**faults["link_flap"])
                if faults.get("link_flap")
                else None
            ),
        )
    else:
        data["faults"] = None
    data["lifecycle"] = tuple(tuple(ev) for ev in data.get("lifecycle") or ())
    data["router_params"] = tuple(
        tuple(p) for p in data.get("router_params") or ()
    )
    data["mac_params"] = tuple(tuple(p) for p in data.get("mac_params") or ())
    chaos = data.get("chaos_crash")
    data["chaos_crash"] = tuple(chaos) if chaos else None
    return ShardScenarioSpec(**data)


def replay_manifest(
    manifest: RunManifest, *, from_time: Optional[float] = None
) -> Dict[str, Any]:
    """Re-execute the manifest's world and verify it bit-for-bit.

    The world is rebuilt from the embedded spec through the stack registry
    and run serially with the same checkpoint cadence; the report compares
    the final trace fingerprint and — per checkpoint — the per-stream draw
    counts and prefix fingerprints.  ``from_time`` windows the checkpoint
    assertions to ``time >= from_time`` (the final fingerprint is always
    asserted): replay always re-executes from ``t=0`` — determinism is the
    contract, not state snapshotting — but windowing localizes *where*
    divergence first appears without reading the full report.

    Raises :class:`ReplayError` when the manifest has no replay payload.
    """
    if not manifest.replayable:
        raise ReplayError(
            "manifest carries no scenario payload (provenance-only): only "
            "runs built from a declarative ShardScenarioSpec can be "
            "replayed — rerun the original entry point instead"
        )
    scenario = manifest.scenario or {}
    if scenario.get("kind") != "shard-world":
        raise ReplayError(
            f"unknown scenario kind {scenario.get('kind')!r}; this repro "
            "version can only replay 'shard-world' manifests"
        )
    from repro.shard.engine import run_serial

    spec = _spec_from_payload(scenario["spec"])
    until = float(scenario["until"])
    result = run_serial(
        spec,
        until,
        checkpoint_interval_s=manifest.checkpoint_interval_s,
    )
    replayed_fp = result.fingerprint()
    replayed_cps = _with_prefix_fingerprints(
        result.rng_checkpoints, result.records
    )
    by_time = {round(float(cp["time"]), 9): cp for cp in replayed_cps}
    rows: List[Dict[str, Any]] = []
    first_divergent: Optional[float] = None
    for expected in manifest.checkpoints:
        t = float(expected["time"])
        if from_time is not None and t < from_time:
            continue
        got = by_time.get(round(t, 9))
        row = {
            "time": t,
            "found": got is not None,
            "draws_match": bool(got)
            and dict(expected.get("draws") or {}) == dict(got.get("draws") or {}),
            "prefix_match": bool(got)
            and expected.get("prefix_fingerprint") == got.get("prefix_fingerprint"),
        }
        row["match"] = row["found"] and row["draws_match"] and row["prefix_match"]
        if not row["match"] and first_divergent is None:
            first_divergent = t
        rows.append(row)
    match = replayed_fp == manifest.fingerprint and all(r["match"] for r in rows)
    return {
        "schema": REPLAY_SCHEMA,
        "match": match,
        "expected_fingerprint": manifest.fingerprint,
        "replayed_fingerprint": replayed_fp,
        "from_time": from_time,
        "checkpoints": rows,
        "first_divergent_checkpoint": first_divergent,
        "events_processed": result.events_processed,
        "root_seed": manifest.root_seed,
        "repro_version": {
            "manifest": manifest.repro_version,
            "current": __version__,
        },
    }


def render_replay_report(report: Dict[str, Any]) -> str:
    lines = [
        f"replayed seed={report['root_seed']} "
        f"({report['events_processed']} events)",
        f"expected fingerprint: {report['expected_fingerprint']}",
        f"replayed fingerprint: {report['replayed_fingerprint']}",
    ]
    rows = report["checkpoints"]
    if rows:
        ok = sum(1 for r in rows if r["match"])
        window = (
            f" (from t={report['from_time']})"
            if report.get("from_time") is not None
            else ""
        )
        lines.append(f"checkpoints{window}: {ok}/{len(rows)} match")
        for row in rows:
            if not row["match"]:
                why = (
                    "missing"
                    if not row["found"]
                    else "draws" if not row["draws_match"] else "trace prefix"
                )
                lines.append(f"  t={row['time']:g}: DIVERGED ({why})")
    if report["first_divergent_checkpoint"] is not None:
        lines.append(
            "first divergent checkpoint: "
            f"t={report['first_divergent_checkpoint']:g}"
        )
    lines.append(
        "REPLAY OK: run reproduced bit-for-bit"
        if report["match"]
        else "REPLAY DIVERGED"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# First-divergence diffing
# ---------------------------------------------------------------------------


def _canonical_stream(
    records: Iterable[Any],
) -> List[Tuple[Tuple[float, str, Tuple], Dict[str, Any]]]:
    """Canonicalize a record stream for diffing: trace records only, each
    paired with its canonical form, sorted time-major.

    The canonical form is exactly what :func:`merged_fingerprint` hashes
    (time rounded to 9 decimals, shard bookkeeping stripped), so two
    streams diff identical iff they fingerprint identical.
    """
    out = []
    for record in records:
        rec = _as_dict(record)
        if rec.get("type", "trace") != "trace":
            continue
        out.append((_canonical_entry(rec, MERGE_FIELDS), rec))
    out.sort(key=lambda pair: (pair[0][0], pair[0][1], repr(pair[0][2])))
    return out


def _entry_summary(entry: Tuple[float, str, Tuple], rec: Dict[str, Any]) -> Dict[str, Any]:
    summary = {"time": entry[0], "category": entry[1], "fields": dict(entry[2])}
    if "shard" in rec:
        summary["shard"] = rec["shard"]
    return summary


def diff_records(
    records_a: Iterable[Any],
    records_b: Iterable[Any],
    *,
    context: int = 5,
    label_a: str = "A",
    label_b: str = "B",
) -> Dict[str, Any]:
    """Locate the first record on which two trace streams disagree.

    Both streams are canonicalized and sorted time-major, then walked in
    lockstep; the first position where the canonical records differ is the
    divergence — the earliest (in virtual time) record present in one
    stream but not the other.  The result carries ``context`` surrounding
    records from each side and, when the divergent record belongs to a
    causal packet trace (``tid``), the happens-before chain from
    :func:`causal_context`.

    Capture-quality warnings (an in-memory trace cap seen in either
    stream) are surfaced so "diverged" is never silently conflated with
    "dropped before capture".
    """
    list_a = list(records_a)
    list_b = list(records_b)
    stream_a = _canonical_stream(list_a)
    stream_b = _canonical_stream(list_b)
    warnings = _capture_warnings(list_a, label_a) + _capture_warnings(
        list_b, label_b
    )
    i = 0
    sort_key = lambda entry: (entry[0], entry[1], repr(entry[2]))  # noqa: E731
    while i < len(stream_a) and i < len(stream_b):
        if stream_a[i][0] == stream_b[i][0]:
            i += 1
            continue
        break
    if i >= len(stream_a) and i >= len(stream_b):
        first = None
    else:
        entry_a = stream_a[i] if i < len(stream_a) else None
        entry_b = stream_b[i] if i < len(stream_b) else None
        if entry_a is not None and (
            entry_b is None or sort_key(entry_a[0]) <= sort_key(entry_b[0])
        ):
            lead, lead_label = entry_a, label_a
        else:
            lead, lead_label = entry_b, label_b
        first = {
            "index": i,
            "time": lead[0][0],
            "category": lead[0][1],
            "first_in": lead_label,
            "a": _entry_summary(*entry_a) if entry_a else None,
            "b": _entry_summary(*entry_b) if entry_b else None,
            "owning_shard": lead[1].get("shard"),
            "context_a": [
                _entry_summary(*pair)
                for pair in stream_a[max(0, i - context) : i + context + 1]
            ],
            "context_b": [
                _entry_summary(*pair)
                for pair in stream_b[max(0, i - context) : i + context + 1]
            ],
        }
        tid = lead[1].get("tid")
        if tid is not None:
            source = list_a if lead_label == label_a else list_b
            first["causal_chain"] = causal_context(
                source, int(tid), max_records=2 * context + 2
            )
    return {
        "identical": first is None,
        "n_records": {"a": len(stream_a), "b": len(stream_b)},
        "labels": {"a": label_a, "b": label_b},
        "fingerprints": {
            "a": merged_fingerprint(rec for _e, rec in stream_a),
            "b": merged_fingerprint(rec for _e, rec in stream_b),
        },
        "first_divergence": first,
        "warnings": warnings,
    }


def _capture_warnings(records: List[Any], label: str) -> List[str]:
    """Flag a stream whose capture was lossy (it hit ``max_records``)."""
    for record in records:
        if (
            isinstance(record, Mapping)
            and record.get("type") == "meta"
            and record.get("event") == "trace_capped"
        ):
            return [
                f"{label}: in-memory trace hit max_records; records were "
                "dropped from memory"
            ]
    return []


def causal_context(
    records: Iterable[Any], tid: int, *, max_records: int = 12
) -> List[Dict[str, Any]]:
    """The happens-before context of packet trace ``tid``.

    Walks the parent-trace chain reconstructed by
    :func:`repro.obs.analyze.analyze_trace` (a forwarded or retried packet
    points at the attempt that caused it) and returns the chain's raw
    ``pkt.*`` records in time order, newest-bounded at ``max_records``.
    """
    from repro.obs.analyze import analyze_trace

    dicts = [_as_dict(r) for r in records]
    analysis = analyze_trace(dicts)
    chain: set = set()
    cursor: Optional[int] = tid
    while cursor is not None and cursor not in chain:
        chain.add(cursor)
        packet = analysis.packets.get(cursor)
        if packet is None:
            break
        cursor = packet.parent_tid
    related = [
        rec
        for rec in dicts
        if rec.get("type", "trace") == "trace" and rec.get("tid") in chain
    ]
    related.sort(key=lambda rec: float(rec.get("time", 0.0)))
    if len(related) > max_records:
        related = related[-max_records:]
    return [json_safe(rec) for rec in related]


def diff_exports(
    path_a: str, path_b: str, *, context: int = 5
) -> Dict[str, Any]:
    """Diff two on-disk exports (files, directories, rings, rotations)."""
    from repro.obs.report import collect_export

    records_a, _skipped_a, _ = collect_export(path_a)
    records_b, _skipped_b, _ = collect_export(path_b)
    return diff_records(
        records_a, records_b, context=context, label_a=path_a, label_b=path_b
    )


def _render_record(summary: Dict[str, Any]) -> str:
    fields = " ".join(f"{k}={v!r}" for k, v in sorted(summary["fields"].items()))
    shard = f" [shard {summary['shard']}]" if "shard" in summary else ""
    return f"t={summary['time']:g} {summary['category']}{shard} {fields}"


def render_diff(result: Dict[str, Any], *, context: int = 5) -> str:
    labels = result["labels"]
    lines = [
        f"A: {labels['a']} ({result['n_records']['a']} trace records, "
        f"fingerprint {result['fingerprints']['a']})",
        f"B: {labels['b']} ({result['n_records']['b']} trace records, "
        f"fingerprint {result['fingerprints']['b']})",
    ]
    for warning in result["warnings"]:
        lines.append(f"warning: {warning}")
    first = result["first_divergence"]
    if first is None:
        lines.append("IDENTICAL: streams agree record-for-record")
        return "\n".join(lines)
    lines.append(
        f"DIVERGED at canonical record #{first['index']}: "
        f"t={first['time']:g} {first['category']} "
        f"(first present in {first['first_in']}"
        + (
            f", shard {first['owning_shard']}"
            if first.get("owning_shard") is not None
            else ""
        )
        + ")"
    )
    for side in ("a", "b"):
        record = first[side]
        lines.append(
            f"  {labels[side]}: "
            + (_render_record(record) if record else "<stream ended>")
        )
    for side in ("a", "b"):
        rows = first[f"context_{side}"]
        if rows:
            lines.append(f"-- context around divergence in {labels[side]} --")
            for row in rows:
                lines.append(f"  {_render_record(row)}")
    chain = first.get("causal_chain")
    if chain:
        lines.append("-- happens-before chain of the divergent packet --")
        for rec in chain:
            fields = " ".join(
                f"{k}={v!r}"
                for k, v in sorted(rec.items())
                if k not in ("type", "time", "category")
            )
            lines.append(f"  t={rec['time']:g} {rec['category']} {fields}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shard-divergence dump
# ---------------------------------------------------------------------------


def _write_ndjson(records: Iterable[Mapping[str, Any]], path: str) -> str:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            payload = {"type": "trace", **record}
            fh.write(json.dumps(json_safe(payload), separators=(",", ":")))
            fh.write("\n")
    return path


def dump_divergence(
    serial_result: Any,
    sharded_result: Any,
    spec: Any,
    plan: Any,
    until: float,
    out_dir: str,
    *,
    context: int = 5,
) -> Dict[str, Any]:
    """Materialize a serial-vs-sharded mismatch as an auditable bundle.

    Writes ``serial.ndjson`` / ``sharded.ndjson`` (full merged streams),
    a RunManifest next to each, and ``divergence.json`` — the
    :func:`diff_records` result naming the first divergent event and its
    owning shard.  Returns the report dict.
    """
    os.makedirs(out_dir, exist_ok=True)
    serial_path = os.path.join(out_dir, "serial.ndjson")
    sharded_path = os.path.join(out_dir, "sharded.ndjson")
    _write_ndjson(serial_result.records, serial_path)
    _write_ndjson(sharded_result.records, sharded_path)
    write_manifest(
        manifest_for_shard_result(
            spec, plan, until, serial_result, exports=[serial_path]
        ),
        manifest_path(serial_path),
    )
    write_manifest(
        manifest_for_shard_result(
            spec, plan, until, sharded_result, exports=[sharded_path]
        ),
        manifest_path(sharded_path),
    )
    diff = diff_records(
        serial_result.records,
        sharded_result.records,
        context=context,
        label_a="serial",
        label_b="sharded",
    )
    report = {
        "schema": DIVERGENCE_SCHEMA,
        "until": until,
        "n_shards": sharded_result.n_shards,
        "mode": sharded_result.mode,
        "content_hashes": {
            "scenario_spec": content_hash(spec),
            "shard_plan": content_hash(plan),
        },
        "exports": {"serial": serial_path, "sharded": sharded_path},
        "diff": diff,
    }
    report_path = os.path.join(out_dir, "divergence.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(json_safe(report), fh, indent=2, allow_nan=False)
        fh.write("\n")
    report["report_path"] = report_path
    return report
