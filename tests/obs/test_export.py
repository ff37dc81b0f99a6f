"""The live snapshot/SLO layer."""

from __future__ import annotations

import pytest

from repro.obs.export import (
    check_slos,
    flatten_snapshot,
    live_snapshot,
    parse_slo,
    render_live,
    state_from_records,
)


@pytest.fixture
def state():
    return {
        "net.tx": {"kind": "counter", "value": 321.0},
        "route.aodv.tx": {"kind": "counter", "value": 200.0},
        "route.aodv.delivered": {"kind": "counter", "value": 150.0},
        "route.geo.tx": {"kind": "counter", "value": 0.0},
        "service.breaker.greedy.state": {"kind": "gauge", "value": 0.0},
        "service.breaker.shortest.state": {"kind": "gauge", "value": 2.0},
        "shard.lag_events": {"kind": "gauge", "value": 17.0},
    }


def test_live_snapshot_surfaces_every_layer(state):
    meta = {
        "type": "meta",
        "event": "export",
        "sim_now": 120.0,
        "events_processed": 5000,
        "events_per_sec": 9000.0,
    }
    snap = live_snapshot(state, meta)
    assert snap["kernel"]["events_per_sec"] == 9000.0
    assert snap["routers"]["aodv"]["delivery_ratio"] == 0.75
    # Zero-tx router reports None, not a ZeroDivisionError.
    assert snap["routers"]["geo"]["delivery_ratio"] is None
    assert snap["breakers"] == {"greedy": "closed", "shortest": "open"}
    assert snap["shard"]["lag_events"] == 17.0
    text = render_live(snap)
    assert "events/sec=9000.0" in text
    assert "aodv: delivery_ratio=0.750" in text
    assert "shortest=open" in text
    assert "lag_events=17" in text


def test_state_from_records_folds_metrics_and_latest_meta():
    records = [
        {"type": "trace", "time": 0.1, "category": "pkt.rx"},
        {"type": "metric", "name": "net.tx", "kind": "counter", "value": 3.0},
        {"type": "meta", "event": "export", "events_per_sec": 100.0},
        # Cumulative export: later snapshot wins.
        {"type": "metric", "name": "net.tx", "kind": "counter", "value": 9.0},
        {"type": "meta", "event": "export", "events_per_sec": 450.0},
    ]
    state, meta = state_from_records(records)
    assert state["net.tx"]["value"] == 9.0
    assert meta["events_per_sec"] == 450.0


def test_parse_slo_and_check(state):
    assert parse_slo("kernel.events_per_sec>=1000") == (
        "kernel.events_per_sec", ">=", 1000.0,
    )
    assert parse_slo(" shard.lag_events <= 50 ") == (
        "shard.lag_events", "<=", 50.0,
    )
    with pytest.raises(ValueError):
        parse_slo("kernel.events_per_sec=1000")

    snap = live_snapshot(state, {"events_per_sec": 9000.0, "event": "export"})
    flat = flatten_snapshot(snap, state)
    # Raw state names are addressable too, not just snapshot paths.
    assert flat["net.tx"] == 321.0
    ok = check_slos(flat, ["kernel.events_per_sec>=1000", "shard.lag_events<=50"])
    assert ok == []
    bad = check_slos(
        flat,
        [
            "routers.aodv.delivery_ratio>=0.9",  # 0.75: breach
            "service.breaker.shortest.state<=1",  # open (2.0): breach
            "missing.metric>=1",  # absent: breach, not silence
        ],
    )
    assert len(bad) == 3
    assert any("not present" in b for b in bad)
