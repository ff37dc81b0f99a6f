"""The live SLO snapshot.

:func:`live_snapshot` folds a registry state
(:meth:`~repro.obs.registry.MetricsRegistry.state`, or the merged state a
:class:`~repro.shard.engine.ShardRunResult` carries) plus the kernel's
export meta record into one operator-facing view — kernel events/sec,
per-router delivery ratios, service breaker states, shard lag — rendered
by :func:`render_live` and policed by :func:`check_slos` (``python -m
repro.obs live``, exit-nonzero on breach, is the CLI).

SLO specs are ``<metric><=|>=><threshold>`` strings against the
flattened snapshot (``kernel.events_per_sec>=1000``,
``routers.flooding.delivery_ratio>=0.5``, ``service.breaker.greedy.state<=1``);
raw state names work too, so any counter or gauge can gate a soak.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "state_from_records",
    "live_snapshot",
    "render_live",
    "flatten_snapshot",
    "parse_slo",
    "check_slos",
]

#: Gauge code -> human breaker state (see ``SynthesisService``).
BREAKER_STATES = {0.0: "closed", 1.0: "half_open", 2.0: "open"}


# ----------------------------------------------------------------- live view


def state_from_records(
    records: Iterable[Mapping[str, Any]],
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """Fold an export's record stream into ``(state, kernel_meta)``.

    Metric records (``{"type": "metric", ...}``) become state entries —
    last write wins, matching the cumulative-snapshot export contract —
    and the latest ``export`` meta record supplies the kernel figures
    (events processed, events/sec).
    """
    state: Dict[str, Dict[str, Any]] = {}
    meta: Dict[str, Any] = {}
    for rec in records:
        rtype = rec.get("type")
        if rtype == "metric":
            name = rec.get("name", "?")
            state[name] = {
                k: v for k, v in rec.items() if k not in ("type", "name")
            }
        elif rtype == "meta" and rec.get("event") == "export":
            meta = dict(rec)
    return state, meta


def live_snapshot(
    state: Mapping[str, Mapping[str, Any]],
    meta: Optional[Mapping[str, Any]] = None,
    *,
    rates: Optional[Mapping[str, float]] = None,
) -> Dict[str, Any]:
    """One operator-facing view of every layer's health.

    ``state`` is a registry state (or merged shard state); ``meta`` the
    kernel's export meta record; ``rates`` optional per-second counter
    deltas computed by the live loop between samples.
    """
    meta = meta or {}
    snap: Dict[str, Any] = {
        "kernel": {
            "sim_now": meta.get("sim_now"),
            "events_processed": meta.get("events_processed"),
            "events_per_sec": meta.get("events_per_sec"),
        }
    }
    routers: Dict[str, Dict[str, Any]] = {}
    breakers: Dict[str, str] = {}
    for name, inst in state.items():
        m = re.fullmatch(r"route\.([^.]+)\.tx", name)
        if m:
            r = m.group(1)
            tx = float(inst.get("value", 0.0))
            delivered = float(
                state.get(f"route.{r}.delivered", {}).get("value", 0.0)
            )
            routers[r] = {
                "tx": tx,
                "delivered": delivered,
                "delivery_ratio": delivered / tx if tx else None,
            }
            continue
        m = re.fullmatch(r"service\.breaker\.([^.]+)\.state", name)
        if m:
            code = float(inst.get("value", 0.0))
            breakers[m.group(1)] = BREAKER_STATES.get(code, f"code={code:g}")
    snap["routers"] = dict(sorted(routers.items()))
    snap["breakers"] = dict(sorted(breakers.items()))
    lag = state.get("shard.lag_events")
    snap["shard"] = {
        "lag_events": float(lag["value"]) if lag is not None else None
    }
    service: Dict[str, Any] = {}
    for key, metric in (
        ("queries", "service.queries"),
        ("degraded_ratio", "service.degraded_ratio"),
        ("shed", "service.shed"),
    ):
        inst = state.get(metric)
        if inst is not None:
            service[key] = inst.get("value")
    snap["service"] = service
    if rates:
        snap["rates_per_sec"] = dict(sorted(rates.items()))
    return snap


def render_live(snapshot: Mapping[str, Any]) -> str:
    """Human-readable one-screen rendering of :func:`live_snapshot`."""
    lines: List[str] = []
    kernel = snapshot.get("kernel", {})
    eps = kernel.get("events_per_sec")
    lines.append(
        "kernel: "
        f"now={kernel.get('sim_now')} "
        f"events={kernel.get('events_processed')} "
        f"events/sec={eps:.1f}" if isinstance(eps, (int, float)) else
        "kernel: (no export meta yet)"
    )
    routers = snapshot.get("routers", {})
    if routers:
        lines.append("routers:")
        for name, row in routers.items():
            ratio = row.get("delivery_ratio")
            shown = f"{ratio:.3f}" if ratio is not None else "n/a"
            lines.append(
                f"  {name}: delivery_ratio={shown} "
                f"(delivered={row['delivered']:.0f}/tx={row['tx']:.0f})"
            )
    breakers = snapshot.get("breakers", {})
    if breakers:
        lines.append(
            "breakers: "
            + "  ".join(f"{b}={s}" for b, s in breakers.items())
        )
    lag = snapshot.get("shard", {}).get("lag_events")
    if lag is not None:
        lines.append(f"shards: lag_events={lag:.0f}")
    service = snapshot.get("service", {})
    if service:
        parts = [f"{k}={v}" for k, v in service.items() if v is not None]
        if parts:
            lines.append("service: " + "  ".join(parts))
    rates = snapshot.get("rates_per_sec", {})
    if rates:
        lines.append("rates (per wall second since last sample):")
        for name, rate in rates.items():
            lines.append(f"  {name}: {rate:.1f}/s")
    return "\n".join(lines)


# ------------------------------------------------------------------- SLOs


def flatten_snapshot(
    snapshot: Mapping[str, Any],
    state: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Dict[str, float]:
    """Dotted-path view of a snapshot (plus raw counter/gauge values) for
    SLO threshold checks."""
    flat: Dict[str, float] = {}

    def walk(prefix: str, node: Any) -> None:
        if isinstance(node, Mapping):
            for k, v in node.items():
                walk(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            flat[prefix] = float(node)

    walk("", snapshot)
    if state:
        for name, inst in state.items():
            value = inst.get("value")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                flat.setdefault(name, float(value))
    return flat


def parse_slo(spec: str) -> Tuple[str, str, float]:
    """Parse ``"<metric><=threshold>"`` / ``"<metric>>=threshold"``."""
    m = re.fullmatch(r"\s*([^<>=]+?)\s*(<=|>=)\s*([-+0-9.eE]+)\s*", spec)
    if m is None:
        raise ValueError(
            f"bad SLO {spec!r}: expected <metric><=value or <metric>>=value"
        )
    return m.group(1), m.group(2), float(m.group(3))


def check_slos(
    flat: Mapping[str, float], slos: Iterable[str]
) -> List[str]:
    """Evaluate SLO specs against a flattened snapshot; returns breach
    descriptions (empty means all good).  A metric the snapshot does not
    carry is itself a breach — a silent-miss SLO guards nothing."""
    breaches: List[str] = []
    for spec in slos:
        metric, op, threshold = parse_slo(spec)
        value = flat.get(metric)
        if value is None:
            breaches.append(f"{metric}: not present in snapshot ({spec})")
            continue
        ok = value <= threshold if op == "<=" else value >= threshold
        if not ok:
            breaches.append(f"{metric}={value:g} violates {spec}")
    return breaches
