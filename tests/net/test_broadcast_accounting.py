"""The transmit path's registry accounting, pinned and checked for conservation.

``net.tx`` / ``net.rx`` / ``net.dropped`` and ``route.<router>.tx`` /
``.delivered`` / ``.control_tx`` are registry instruments: they are not in
``sim.metrics.counters()``, so neither a trace fingerprint nor the ledger's
``exact.counters`` sees them.  The broadcast path counts a fan-out's lost
receptions and its receptions by the batch, so their totals are pinned
here — values recorded from the per-reception code that preceded the
batching (``python -m tests.net.test_broadcast_accounting`` prints them) —
next to oracles that read none of those counters' writers:

* conservation: every neighbour slot of every transmission ends as exactly
  one reception or one drop, so the summed return values of
  ``Network.broadcast`` (plus one per unicast from a live sender) equal
  ``net.rx + net.dropped`` once the queue has drained — under churn too,
  where a receiver can go down or be removed between grant and completion;
* ``net.rx`` equals what a sniffer saw (``AppLayer.deliver`` calls, less the
  gremlin's duplicates), also when a handler raises half-way up a fan-out.

Mutations of ``FastPathDispatcher.broadcast`` these were shown to catch:
the lost counted as ``len(survivors)``, the increment-by-count skipped when
a handler raises, and the receiver-down drop left uncounted (which is how
the code stood before: ``CHURN`` records what it undercounted).
"""

import pytest

from repro.faults.gremlin import PacketGremlin
from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.routing import FloodingRouter
from repro.net.transport import MessageService
from repro.sim import Simulator
from repro.util.geometry import Point
from tests.net import stack_scenarios
from tests.net.test_gremlin_slab_pin import counters_digest

REGISTRY_COUNTERS = (
    "net.tx",
    "net.rx",
    "net.dropped",
    "route.{router}.tx",
    "route.{router}.delivered",
    "route.{router}.control_tx",
)


def accounting(sim, router_name):
    """The pinned view of one finished run."""
    names = [name.format(router=router_name) for name in REGISTRY_COUNTERS]
    out = {name: sim.registry.counter(name).value for name in names}
    out["net.tx_attempts"] = sim.metrics.counter("net.tx_attempts")
    out["net.tx_success"] = sim.metrics.counter("net.tx_success")
    return out


class Tally:
    """Fan-out width and receptions, counted from outside the dispatcher."""

    def __init__(self, net):
        self.width = 0
        self.sniffed = 0
        inner_broadcast, inner_send = net.broadcast, net.send

        def broadcast(sender_id, packet):
            width = inner_broadcast(sender_id, packet)
            self.width += width
            return width

        def send(sender_id, receiver_id, packet, on_result=None):
            self.width += net.node(sender_id).up
            return inner_send(sender_id, receiver_id, packet, on_result)

        net.broadcast, net.send = broadcast, send
        net.add_sniffer(self._sniff)

    def _sniff(self, packet, from_id, to_id):
        self.sniffed += 1


def flooding_grid(sim, side, router_cls=FloodingRouter):
    """A ``side`` x ``side`` grid, 60 m apart, every node on one router
    (a flooding router unless ``router_cls`` names another)."""
    net = Network(sim, Channel(seed=sim.rng.seed))
    for i in range(side * side):
        net.create_node(i + 1, Point((i % side) * 60.0, (i // side) * 60.0))
    ids = sorted(net.nodes)
    router = router_cls(net)
    router.attach_all(ids)
    return net, ids, MessageService(router)


def flood_world(seed, *, churn=False, gremlin=False):
    """Six floods over a static 8 x 8 grid; runs until the queue drains."""
    sim = Simulator(seed=seed)
    if churn:
        sim.enable_packet_tracing()  # the tracer names the receiver_down drops
    net, ids, svc = flooding_grid(sim, 8)
    tally = Tally(net)
    for k in range(6):
        src = ids[(11 * k + 3) % len(ids)]
        dst = None if k % 3 else ids[(17 * k + 5) % len(ids)]
        sim.call_at(1.0 + 0.5 * k, lambda s=src, d=dst, k=k: svc.send(s, d, payload=k))
    if churn:
        # A flood crosses the grid in ~25 ms of 2-4 ms hops, so flips a few
        # milliseconds into one land between a grant and its completion.
        for k in range(6):
            for j, victim in enumerate(ids[(7 * k + 9) % len(ids) :: 13]):
                at = 1.0 + 0.5 * k + 0.004 + 0.0031 * j
                sim.call_at(at, lambda v=victim: net.fail_node(v))
                sim.call_at(at + 0.2, lambda v=victim: net.restore_node(v))
        sim.call_at(2.5085, lambda: net.remove_node(ids[20]))
    if gremlin:
        mischief = PacketGremlin(
            net, drop_p=0.05, duplicate_p=0.05, corrupt_p=0.05,
            delay_p=0.1, delay_mean_s=0.01,
        )
        sim.call_at(0.5, mischief.launch)
    sim.run()
    return sim, tally


def receiver_down_on_broadcast(sim):
    """``pkt.drop`` records of a broadcast hop whose receiver was gone."""
    records = sim.trace.records
    broadcast_spans = {
        rec.get("span")
        for rec in records
        if rec.category == "pkt.enqueue" and rec.get("dst") == -1
    }
    return sum(
        rec.category == "pkt.drop"
        and rec.get("reason") == "receiver_down"
        and rec.get("span") in broadcast_spans
        for rec in records
    )


def scenario_world(name):
    """One ``stack_scenarios`` world, run as the fingerprint test runs it."""
    made = []

    class Recording(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    real = stack_scenarios.Simulator
    stack_scenarios.Simulator = Recording
    try:
        stack_scenarios.FINGERPRINT_SCENARIOS[name]()
    finally:
        stack_scenarios.Simulator = real
    (sim,) = made
    return sim


SCENARIO_ROUTERS = {
    "flooding": "flooding",
    "gossip": "gossip",
    "geo": "geo",
    "aodv_reliable": "aodv",
    "epidemic_mobile": "epidemic",
    "spray_wait_mobile": "spray_wait",
}

# Recorded from the per-reception transmit path; see the module docstring.
STATIC = {
    "net.tx": 382.0, "net.rx": 4234.0, "net.dropped": 3252.0,
    "route.flooding.tx": 382.0, "route.flooding.delivered": 4234.0,
    "route.flooding.control_tx": 0.0,
    "net.tx_attempts": 382.0, "net.tx_success": 4234.0,
}
GREMLIN = {
    "net.tx": 382.0, "net.rx": 3896.0, "net.dropped": 3590.0,
    "route.flooding.tx": 382.0, "route.flooding.delivered": 3896.0,
    "route.flooding.control_tx": 0.0,
    "net.tx_attempts": 382.0, "net.tx_success": 3896.0,
}
#: ``net.dropped`` as recorded was short by ``CHURN_RECEIVER_DOWN``: the
#: broadcast receptions whose receiver was gone at completion, which the
#: tracer was shown and no counter was.
CHURN = {
    "net.tx": 367.0, "net.rx": 3859.0, "net.dropped": 2914.0,
    "route.flooding.tx": 367.0, "route.flooding.delivered": 3859.0,
    "route.flooding.control_tx": 0.0,
    "net.tx_attempts": 367.0, "net.tx_success": 3859.0,
}
CHURN_RECEIVER_DOWN = 98
#: No broadcast reception of these six worlds finds its receiver gone.
SCENARIOS = {
    "aodv_reliable": {
        "net.tx": 696.0, "net.rx": 4177.0, "net.dropped": 3047.0,
        "route.aodv.tx": 696.0, "route.aodv.delivered": 4177.0,
        "route.aodv.control_tx": 656.0,
        "net.tx_attempts": 696.0, "net.tx_success": 4177.0,
    },
    "epidemic_mobile": {
        "net.tx": 511.0, "net.rx": 195.0, "net.dropped": 316.0,
        "route.epidemic.tx": 511.0, "route.epidemic.delivered": 195.0,
        "route.epidemic.control_tx": 0.0,
        "net.tx_attempts": 511.0, "net.tx_success": 195.0,
    },
    "flooding": {
        "net.tx": 357.0, "net.rx": 2970.0, "net.dropped": 2163.0,
        "route.flooding.tx": 357.0, "route.flooding.delivered": 2970.0,
        "route.flooding.control_tx": 0.0,
        "net.tx_attempts": 357.0, "net.tx_success": 2970.0,
    },
    "geo": {
        "net.tx": 38.0, "net.rx": 18.0, "net.dropped": 20.0,
        "route.geo.tx": 38.0, "route.geo.delivered": 18.0,
        "route.geo.control_tx": 0.0,
        "net.tx_attempts": 38.0, "net.tx_success": 18.0,
    },
    "gossip": {
        "net.tx": 299.0, "net.rx": 2568.0, "net.dropped": 1753.0,
        "route.gossip.tx": 299.0, "route.gossip.delivered": 2568.0,
        "route.gossip.control_tx": 0.0,
        "net.tx_attempts": 299.0, "net.tx_success": 2568.0,
    },
    "spray_wait_mobile": {
        "net.tx": 217.0, "net.rx": 109.0, "net.dropped": 108.0,
        "route.spray_wait.tx": 217.0, "route.spray_wait.delivered": 109.0,
        "route.spray_wait.control_tx": 0.0,
        "net.tx_attempts": 217.0, "net.tx_success": 109.0,
    },
}


#: Recorded from the code that recycled dead forwarding copies (124 of
#: them); see ``ttl_death_flood``.
TTL_DEATH = {
    "net.tx": 224.0, "net.rx": 2627.0, "net.dropped": 1922.0,
    "route.flooding.tx": 224.0, "route.flooding.delivered": 2627.0,
    "route.flooding.control_tx": 0.0,
    "net.tx_attempts": 224.0, "net.tx_success": 2627.0,
}
TTL_DEATH_EXPIRED = 124
TTL_DEATH_FINGERPRINT = "96d1ffb9b3e0dbdd9e3df4d31f595993"
TTL_DEATH_COUNTERS = "dc4870159c1fce6d"

FAULTED_FINGERPRINT = "512129f0f4ace3877ede1af55f9584f6"
FAULTED_DROP_REASONS = {"loss": 835, "gremlin": 70, "link_blocked": 140, "corrupt": 49}
FAULTED_DELAYED_RX = 124


def assert_identities(acct, router_name):
    assert acct["net.rx"] == acct["net.tx_success"]
    assert acct["net.tx"] == acct["net.tx_attempts"]
    assert acct[f"route.{router_name}.delivered"] == acct["net.rx"]
    assert acct[f"route.{router_name}.tx"] == acct["net.tx"]


@pytest.mark.parametrize(
    "kwargs, recorded",
    [({}, STATIC), ({"gremlin": True}, GREMLIN)],
    ids=["static", "gremlin"],
)
def test_flood_grid_accounting(kwargs, recorded):
    sim, tally = flood_world(21, **kwargs)
    acct = accounting(sim, "flooding")
    assert acct == recorded
    assert_identities(acct, "flooding")
    assert tally.width == acct["net.rx"] + acct["net.dropped"]
    assert tally.sniffed == acct["net.rx"] + sim.metrics.counter("net.rx_duplicated")


def test_flood_grid_accounting_under_churn():
    sim, tally = flood_world(21, churn=True)
    acct = accounting(sim, "flooding")
    gone = receiver_down_on_broadcast(sim)
    assert gone == CHURN_RECEIVER_DOWN > 0
    assert acct == {**CHURN, "net.dropped": CHURN["net.dropped"] + gone}
    assert_identities(acct, "flooding")
    assert tally.width == acct["net.rx"] + acct["net.dropped"]
    assert tally.sniffed == acct["net.rx"]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_stack_scenario_accounting(name):
    sim = scenario_world(name)
    router_name = SCENARIO_ROUTERS[name]
    acct = accounting(sim, router_name)
    assert receiver_down_on_broadcast(sim) == 0
    assert acct == SCENARIOS[name]
    assert_identities(acct, router_name)


def test_receptions_are_counted_when_a_handler_raises():
    """The batch's count lands even if the walk up the stack is cut short."""

    class Boom(Exception):
        pass

    sim = Simulator(seed=5)
    net, _, svc = flooding_grid(sim, 4)
    tally = Tally(net)
    seen = []

    def sniff(packet, from_id, to_id):
        seen.append(to_id)
        if len(seen) == 5:
            raise Boom

    net.add_sniffer(sniff)
    sim.call_at(1.0, lambda: svc.send(6, None))
    with pytest.raises(Boom):
        sim.run()
    assert tally.sniffed == len(seen) == 5
    assert sim.registry.counter("net.rx").value == 5
    assert sim.metrics.counter("net.tx_success") == 5
    assert sim.registry.counter("route.flooding.delivered").value == 5


def faulted_traced_flood():
    """A 6 x 6 flood under every fault the fan-out consults, packet-traced.

    The six golden scenarios never combine a partition with a gremlin on a
    traced broadcast; here each surviving slot of a fan-out can be cut by a
    blocked link or a partition, dropped, duplicated, corrupted or delayed,
    and the tracer records each fate in neighbour order.
    """
    sim = Simulator(seed=33)
    sim.enable_packet_tracing()
    net, ids, svc = flooding_grid(sim, 6)
    for k in range(5):
        src = ids[(13 * k + 2) % len(ids)]
        dst = None if k % 2 == 0 else ids[(19 * k + 7) % len(ids)]
        sim.call_at(1.0 + 0.6 * k, lambda s=src, d=dst, k=k: svc.send(s, d, payload=k))
    mischief = PacketGremlin(
        net, drop_p=0.06, duplicate_p=0.05, corrupt_p=0.04,
        delay_p=0.12, delay_mean_s=0.004,
    )
    sim.call_at(0.5, mischief.launch)
    net.block_link(8, 9)
    halves = {nid: int((nid - 1) % 6 >= 3) for nid in ids}
    sim.call_at(1.5, lambda: net.add_partition(halves))
    sim.call_at(2.9, lambda: net.remove_partition(halves))
    sim.run()
    reasons = {}
    for rec in sim.trace.records:
        if rec.category == "pkt.drop":
            reasons[rec.get("reason")] = reasons.get(rec.get("reason"), 0) + 1
    delayed = sum(
        rec.category == "pkt.rx" and rec.get("extra_s") > 0.0
        for rec in sim.trace.records
    )
    return sim.trace.fingerprint(), reasons, delayed


def test_faulted_traced_flood_is_bit_identical():
    fingerprint, reasons, delayed = faulted_traced_flood()
    assert reasons == FAULTED_DROP_REASONS
    assert delayed == FAULTED_DELAYED_RX
    assert fingerprint == FAULTED_FINGERPRINT


def ttl_death_flood():
    """Unicast floods on a static 8 x 8 grid whose copies die of TTL, traced.

    Every flood of ``flood_world`` carries the default TTL of 32 and none of
    its copies expires; here each unicast flood carries ``ttl=3``, so relays
    three hops out abandon their forwarding copy (``FloodingRouter``'s
    ``ttl_expired`` branch) while broadcasts and shorter unicasts still
    deliver.  The values were recorded from the code that recycled those
    copies through a free-list; a plain copy must reproduce them.
    """
    sim = Simulator(seed=41)
    sim.enable_packet_tracing()
    net, ids, svc = flooding_grid(sim, 8)
    for k in range(6):
        src = ids[(11 * k + 3) % len(ids)]
        dst = ids[(17 * k + 40) % len(ids)]
        sim.call_at(1.0 + 0.5 * k, lambda s=src, d=dst, k=k: svc.send(s, d, payload=k, ttl=3))
    sim.call_at(4.5, lambda: svc.send(ids[0], None, payload="all", ttl=3))
    sim.run()
    expired = sum(
        rec.category == "pkt.route_drop" and rec.get("reason") == "ttl_expired"
        for rec in sim.trace.records
    )
    return sim, expired


def test_ttl_death_flood_is_bit_identical():
    sim, expired = ttl_death_flood()
    acct = accounting(sim, "flooding")
    assert expired == TTL_DEATH_EXPIRED
    assert acct == TTL_DEATH
    assert_identities(acct, "flooding")
    assert sim.trace.fingerprint() == TTL_DEATH_FINGERPRINT
    assert counters_digest(sim) == TTL_DEATH_COUNTERS


if __name__ == "__main__":
    for label, kwargs in (
        ("STATIC", {}),
        ("GREMLIN", {"gremlin": True}),
        ("CHURN", {"churn": True}),
    ):
        sim, _ = flood_world(21, **kwargs)
        print(f"{label} = {accounting(sim, 'flooding')!r}")
    print(f"CHURN_RECEIVER_DOWN = {receiver_down_on_broadcast(sim)}")
    print("SCENARIOS = {")
    for name, router_name in sorted(SCENARIO_ROUTERS.items()):
        sim = scenario_world(name)
        print(f"    {name!r}: {accounting(sim, router_name)!r},")
        print(f"    # receiver_down on broadcast: {receiver_down_on_broadcast(sim)}")
    print("}")
    print("FAULTED_FINGERPRINT, FAULTED_DROP_REASONS, FAULTED_DELAYED_RX =", faulted_traced_flood())
    sim, expired = ttl_death_flood()
    print(f"TTL_DEATH = {accounting(sim, 'flooding')!r}")
    print(f"TTL_DEATH_EXPIRED = {expired}")
    print(f"TTL_DEATH_FINGERPRINT = {sim.trace.fingerprint()!r}")
    print(f"TTL_DEATH_COUNTERS = {counters_digest(sim)!r}")
