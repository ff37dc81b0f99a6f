"""Tests for the MetricsRegistry and the net/faults instrumentation feeding it."""

import math

import pytest

from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.sim import Simulator
from repro.faults import FaultInjector
from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.routing import AodvRouter
from repro.net.transport import MessageService
from repro.util.geometry import Point


class TestInstruments:
    def test_counter(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert c.as_dict() == {"kind": "counter", "name": "c", "value": 3.5}

    def test_gauge(self):
        g = Gauge("g")
        g.set(4.0)
        g.set(3.0)
        assert g.value == 3.0

    def test_histogram_summary(self):
        h = Histogram("h")
        for v in (0.001, 0.002, 0.004, 0.2):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4.0
        assert s["mean"] == pytest.approx(0.05175)
        assert s["min"] == 0.001
        assert s["max"] == 0.2
        assert 0.0 < s["p50"] <= s["p95"] <= 0.25

    def test_histogram_empty_is_nan(self):
        s = Histogram("h").summary()
        assert math.isnan(s["mean"])
        assert math.isnan(s["p50"])

    def test_histogram_overflow_bucket(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(50.0)
        assert h.counts[-1] == 1
        assert h.quantile(1.0) == 50.0

    def test_histogram_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_registry_caches_instruments(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")
        assert sorted(reg.state()) == ["h", "x"]

    def test_as_records_shape(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(2)
        reg.histogram("c").observe(0.01)
        records = reg.as_records()
        assert [r["name"] for r in records] == ["a", "b", "c"]
        assert all(r["type"] == "metric" for r in records)
        kinds = {r["name"]: r["kind"] for r in records}
        assert kinds == {"a": "counter", "b": "gauge", "c": "histogram"}


def _line_network(n=6, seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, Channel(shadowing_sigma_db=0, fading_sigma_db=0, seed=seed))
    for i in range(1, n + 1):
        net.create_node(i, Point(i * 75.0, 0.0))
    return sim, net


class TestNetInstrumentation:
    def test_tx_rx_counters_track_traffic(self):
        sim, net = _line_network()
        router = AodvRouter(net)
        router.attach_all(range(1, 7))
        service = MessageService(router)
        sim.call_in(1.0, lambda: service.send(1, 6))
        sim.run(until=60.0)
        reg = sim.registry
        assert reg.counter("net.tx").value > 0
        assert reg.counter("net.rx").value > 0
        # Registry tx increments lockstep with the legacy attempt counter.
        assert reg.counter("net.tx").value == sim.metrics.counter(
            "net.tx_attempts"
        )

    def test_mac_backoff_histogram_observed(self):
        sim, net = _line_network()
        router = AodvRouter(net)
        router.attach_all(range(1, 7))
        service = MessageService(router)
        sim.call_in(1.0, lambda: service.send(1, 6))
        sim.run(until=60.0)
        h = sim.registry.histogram("net.mac_backoff_s")
        assert h.count > 0

    def test_per_router_control_overhead_counted(self):
        sim, net = _line_network()
        router = AodvRouter(net)
        router.attach_all(range(1, 7))
        service = MessageService(router)
        sim.call_in(1.0, lambda: service.send(1, 6))
        sim.run(until=60.0)
        snap = sim.registry.snapshot()
        control = [n for n in snap if n.startswith("route.") and "control" in n]
        # AODV floods RREQs: control packets and bits must both register.
        assert any(n.endswith("control_tx") for n in control)
        assert any(n.endswith("control_bits") for n in control)
        tx_name = next(n for n in control if n.endswith("control_tx"))
        assert snap[tx_name]["value"] > 0


class TestFaultInstrumentation:
    def test_injections_and_recoveries_counted(self):
        sim, net = _line_network()
        injector = FaultInjector(net)
        injector.gremlin(drop_p=0.05, start_s=1.0, duration_s=10.0)
        sim.run(until=30.0)
        reg = sim.registry
        assert reg.counter("faults.injections").value >= 1
        assert reg.counter("faults.recoveries").value >= 1
        per_name = [
            n for n in reg.state()
            if n.startswith("faults.") and n.endswith(".injections")
            and n != "faults.injections"
        ]
        assert per_name  # per-fault-name counter exists alongside the total

    def test_churn_counts_crashes_and_restarts(self):
        sim, net = _line_network()
        injector = FaultInjector(net)
        injector.node_churn(mtbf_s=20.0, mean_downtime_s=5.0, start_s=0.0)
        sim.run(until=200.0)
        reg = sim.registry
        assert reg.counter("faults.crashes").value > 0
        assert reg.counter("faults.restarts").value > 0
        # Registry agrees with the legacy MetricRecorder counters.
        assert reg.counter("faults.crashes").value == sim.metrics.counter(
            "faults.crashes"
        )
