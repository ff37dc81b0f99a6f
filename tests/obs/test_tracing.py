"""Causal packet tracing: determinism, phase-sum invariant, event coverage.

The two load-bearing guarantees:

* **Non-perturbation** — tracing enabled leaves every non-``pkt.*``
  record bit-identical to a never-traced run (the tracer only ever adds
  records, never schedules events or draws RNG).
* **Exact attribution** — for every delivered packet with a complete
  chain, the five latency phases sum to the measured end-to-end delay.
"""

import pytest

from repro.faults import FaultInjector
from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.routing import AodvRouter, SprayAndWaitRouter
from repro.net.transport import MessageService, ReliableMessageService
from repro.obs.analyze import PHASES, analyze_trace
from repro.obs.tracing import TRACE_CATEGORIES, TRACE_HEADER
from repro.sim.kernel import Simulator
from repro.util.geometry import Point


def churn_aodv_scenario(seed: int, *, traced: bool):
    """The acceptance scenario: 30-node AODV + reliable transport under
    node churn, Poisson unicast workload."""
    sim = Simulator(seed=seed)
    if traced:
        sim.enable_packet_tracing()
    net = Network(
        sim, Channel(shadowing_sigma_db=0.0, fading_sigma_db=2.0, seed=seed)
    )
    topo_rng = sim.rng.get("topo")
    for i in range(1, 31):
        net.create_node(
            i,
            Point(
                float(topo_rng.uniform(0, 300.0)),
                float(topo_rng.uniform(0, 300.0)),
            ),
        )
    router = AodvRouter(net)
    router.attach_all(range(1, 31))
    service = ReliableMessageService(router)
    faults = FaultInjector(net)
    faults.node_churn(
        mtbf_s=50.0, mean_downtime_s=6.0, start_s=5.0, duration_s=150.0
    )
    workload = sim.rng.get("workload")

    def tick():
        if sim.now > 110.0:
            return
        a, b = workload.choice(range(1, 31), size=2, replace=False)
        service.send(int(a), int(b))
        sim.call_in(float(workload.exponential(2.5)), tick)

    sim.call_in(1.0, tick)
    sim.run(until=150.0)
    return sim, service


class TestNonPerturbation:
    def test_enabled_tracer_only_adds_pkt_records(self):
        sim_traced, svc_traced = churn_aodv_scenario(9, traced=True)
        sim_plain, svc_plain = churn_aodv_scenario(9, traced=False)
        non_pkt = sorted(
            {r.category for r in sim_plain.trace.records}
            | {r.category for r in sim_traced.trace.records}
            - set(TRACE_CATEGORIES)
        )
        assert sim_traced.trace.fingerprint(
            categories=non_pkt
        ) == sim_plain.trace.fingerprint(categories=non_pkt)
        # Identical behaviour, identical application outcomes.
        assert svc_traced.fate_counts() == svc_plain.fate_counts()
        # And the traced run really produced pkt.* records.
        assert any(
            r.category in TRACE_CATEGORIES for r in sim_traced.trace.records
        )
        assert not any(
            r.category in TRACE_CATEGORIES for r in sim_plain.trace.records
        )

    def test_traced_run_is_reproducible(self):
        sim_a, _ = churn_aodv_scenario(13, traced=True)
        sim_b, _ = churn_aodv_scenario(13, traced=True)
        assert sim_a.trace.fingerprint() == sim_b.trace.fingerprint()


class TestPhaseSumInvariant:
    def test_phases_sum_to_end_to_end_latency_under_churn(self):
        sim, service = churn_aodv_scenario(42, traced=True)
        assert service.delivery_ratio() > 0  # scenario actually delivered
        analysis = analyze_trace(sim.trace.iter_dicts())

        checked = 0
        for pt in analysis.packets.values():
            for delivery in pt.deliveries:
                if not delivery.complete:
                    continue
                checked += 1
                total = sum(delivery.phases.values())
                assert total == pytest.approx(
                    delivery.latency_s, rel=1e-9, abs=1e-12
                )
                for name in PHASES:
                    assert delivery.phases[name] >= -1e-12
        assert checked > 0

        # Every delivered DATA packet decomposed with a complete chain.
        data_deliveries = [
            d
            for pt in analysis.packets.values()
            if pt.kind == "data"
            for d in pt.deliveries
        ]
        assert data_deliveries
        assert all(d.complete for d in data_deliveries)

    def test_critical_path_names_slowest_hop(self):
        sim, _ = churn_aodv_scenario(42, traced=True)
        analysis = analyze_trace(sim.trace.iter_dicts())
        critical = analysis.critical_delivery()
        assert critical is not None
        pt, delivery = critical
        assert delivery.chain, "critical path must be nonempty"
        slowest = delivery.slowest_hop()
        assert slowest is not None
        assert slowest.total_s == max(h.total_s for h in delivery.chain)
        # The slowest hop is on the chain and bounded by the whole delay.
        assert slowest.total_s <= delivery.latency_s + 1e-12


class TestEventCoverage:
    def line(self, n=6, seed=3, spacing=30.0):
        sim = Simulator(seed=seed)
        sim.enable_packet_tracing()
        net = Network(
            sim, Channel(shadowing_sigma_db=0.0, fading_sigma_db=0.0, seed=seed)
        )
        for i in range(1, n + 1):
            net.create_node(i, Point(i * spacing, 0.0))
        return sim, net

    def test_transport_retransmits_are_traced(self):
        sim, net = self.line()
        router = AodvRouter(net)
        router.attach_all(range(1, 7))
        service = ReliableMessageService(router, base_rto_s=0.05)
        faults = FaultInjector(net)
        faults.gremlin(drop_p=0.6, duration_s=20.0)
        fate = service.send(1, 6)
        sim.run(until=60.0)
        retx = [r for r in sim.trace.records if r.category == "pkt.retx"]
        if fate.attempts > 1:
            transport_retx = [r for r in retx if r.get("layer") == "transport"]
            assert len(transport_retx) == fate.attempts - 1
            assert all(r.get("msg") == fate.msg_id for r in transport_retx)

    def test_dtn_custody_events(self):
        sim, net = self.line(n=4)
        router = SprayAndWaitRouter(net, copies=4, contact_period_s=1.0)
        router.attach_all(range(1, 5))
        service = MessageService(router)
        receipt = service.send(1, 4)
        sim.run(until=60.0)
        custody = [r for r in sim.trace.records if r.category == "pkt.custody"]
        assert custody, "custody transfers must be traced"
        assert receipt.delivered
        # The origin's admit records the full spray budget.
        assert any(rec.get("copies") == 4 for rec in custody)

    def test_trace_context_header_is_carried(self):
        sim, net = self.line()
        router = AodvRouter(net)
        router.attach_all(range(1, 7))
        service = MessageService(router)
        captured = []
        service.on_message(6, lambda pkt: captured.append(pkt))
        service.send(1, 6)
        sim.run(until=30.0)
        assert captured
        ctx = captured[0].headers.get(TRACE_HEADER)
        assert isinstance(ctx, tuple) and len(ctx) == 3
        tid, parent_span, hop = ctx
        assert tid >= 1 and parent_span >= 1 and hop >= 1
