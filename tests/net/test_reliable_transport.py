"""ReliableMessageService: ACKs, retransmission, give-up, dedup, fates."""

import pytest

from repro.errors import ConfigurationError
from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.packet import PacketKind
from repro.net.routing import FloodingRouter
from repro.net.transport import ReliableMessageService
from repro.sim import Simulator
from repro.util.geometry import Point


def line_network(n, spacing=100.0, seed=1):
    sim = Simulator(seed=seed)
    channel = Channel(shadowing_sigma_db=0.0, fading_sigma_db=0.0, seed=seed)
    net = Network(sim, channel)
    for i in range(1, n + 1):
        net.create_node(i, Point(i * spacing, 0.0))
    return sim, net


def reliable(net, **kwargs):
    router = FloodingRouter(net)
    router.attach_all(sorted(net.nodes))
    return ReliableMessageService(router, **kwargs)


class TestHappyPath:
    def test_delivery_is_acked(self):
        sim, net = line_network(3)
        svc = reliable(net)
        fate = svc.send(1, 3, payload="hello")
        sim.run(until=30.0)
        assert fate.state == "delivered"
        assert fate.delivered
        assert fate.attempts == 1
        assert fate.latency_s is not None and fate.latency_s > 0
        assert sim.metrics.counter("transport.reliable.ack_tx") >= 1

    def test_user_handler_called_once_with_payload(self):
        sim, net = line_network(3)
        svc = reliable(net)
        got = []
        svc.on_message(3, lambda p: got.append(p.payload))
        svc.send(1, 3, payload="situation-report")
        sim.run(until=30.0)
        assert got == ["situation-report"]

    def test_broadcast_refused(self):
        sim, net = line_network(2)
        svc = reliable(net)
        with pytest.raises(ConfigurationError):
            svc.send(1, None)


class TestRetransmission:
    def test_recovers_after_destination_downtime(self):
        # Destination is down when the message is sent; a later retry
        # lands after it restores.
        sim, net = line_network(3)
        svc = reliable(net, base_rto_s=2.0, max_retries=5)
        net.fail_node(3)
        sim.call_at(10.0, lambda: net.restore_node(3))
        fate = svc.send(1, 3)
        sim.run(until=120.0)
        assert fate.state == "delivered"
        assert fate.attempts > 1
        assert fate.retransmits >= 1
        assert sim.metrics.counter("transport.reliable.retransmit") >= 1

    def test_gives_up_after_bounded_retries(self):
        sim, net = line_network(3)
        svc = reliable(net, base_rto_s=1.0, max_retries=2)
        net.fail_node(3)  # never restored
        fate = svc.send(1, 3)
        sim.run(until=120.0)
        assert fate.state == "gave_up"
        assert fate.attempts == 3  # initial + 2 retries
        assert not fate.delivered
        assert [r.category for r in sim.trace.records].count("transport.gave_up") == 1

    def test_backoff_grows_exponentially(self):
        sim, net = line_network(2)
        svc = reliable(net, base_rto_s=1.0, backoff=2.0, jitter_s=0.0, max_retries=3)
        net.fail_node(2)
        fate = svc.send(1, 2)
        sim.run(until=60.0)
        # Give-up fires after 1 + 2 + 4 + 8 = 15 s of backoff.
        assert fate.state == "gave_up"
        assert fate.gave_up_at == pytest.approx(15.0, abs=0.5)


class TestDuplicateSuppression:
    def test_retransmitted_copies_delivered_once(self):
        # Force a retransmission race: the first copy arrives but its ACK
        # is outrun by an aggressive RTO, so the source re-sends.  The
        # receiver must deliver to the application exactly once.
        sim, net = line_network(4)
        svc = reliable(net, base_rto_s=0.001, jitter_s=0.0, max_retries=4)
        got = []
        svc.on_message(4, lambda p: got.append(p.payload))
        fate = svc.send(1, 4, payload="once")
        sim.run(until=120.0)
        assert fate.delivered
        assert fate.attempts > 1
        assert got == ["once"]
        assert sim.metrics.counter("transport.reliable.dup_suppressed") >= 1


class TestFateAccounting:
    def test_fate_counts_partition_population(self):
        sim, net = line_network(4)
        svc = reliable(net, base_rto_s=1.0, max_retries=1)
        net.fail_node(4)
        svc.send(1, 2)
        svc.send(2, 3)
        svc.send(1, 4)  # unreachable: will give up
        sim.run(until=120.0)
        counts = svc.fate_counts()
        assert counts["delivered"] == 2
        assert counts["gave_up"] == 1
        assert counts["in_flight"] == 0
        assert sum(counts.values()) == len(svc.fates)

    def test_stats_nan_conventions(self):
        sim, net = line_network(2)
        svc = reliable(net)
        assert svc.delivery_ratio() != svc.delivery_ratio()  # NaN
        assert svc.retransmit_rate() != svc.retransmit_rate()
        assert svc.transmissions_per_delivery() != svc.transmissions_per_delivery()

    def test_retransmit_rate_bounded(self):
        sim, net = line_network(3)
        svc = reliable(net, base_rto_s=1.0, max_retries=2)
        net.fail_node(3)
        svc.send(1, 3)
        svc.send(1, 2)
        sim.run(until=60.0)
        rate = svc.retransmit_rate()
        assert 0.0 < rate < 1.0


class TestAckKind:
    def test_ack_packets_on_the_wire(self):
        sim, net = line_network(3)
        kinds = []
        net.add_sniffer(lambda p, f, t: kinds.append(p.kind))
        svc = reliable(net)
        svc.send(1, 3)
        sim.run(until=30.0)
        assert PacketKind.ACK in kinds
