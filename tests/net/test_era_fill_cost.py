"""A moving world pays one whole-world pass per topology era, counted.

A mobility sweep starts a new ``topology_version`` era every second.  In
each era the first ``Network.neighbors`` call screens the whole world once
(``_candidate_pairs`` in its directed mode) and fills every node's
geometric list, and the first fan-out row refill fills the PHY pair cache
with both directions of every geometric pair from one
``Channel.delivery_probability_pairs`` call.  So, counted over a mobile
flood with mixed transmit power:

- each era has exactly one screen, and each era with a row refill exactly
  one pairs call;
- row refills make no ``Channel.delivery_probability_batch`` call;
- no node's list comes from a scan of its own: a per-node scan asks the
  channel for the scanned node's range, the screen once per distinct power;
- a pair only its stronger end lists is in the cache both ways.

Each count fails against the per-node scan and the per-sender refills this
replaced.
"""

import collections

from repro.net import node as node_mod
from repro.net.channel import Channel
from repro.net.mobility import MobilityManager, RandomWaypoint
from repro.net.node import Network
from repro.net.routing import FloodingRouter
from repro.net.transport import MessageService
from repro.sim import Simulator
from repro.util.geometry import Point, Region
from tests.net.frozen_oracles import frozen_delivery_probability

POWERS = (10.0, 17.5, 20.0)
SIDE, SPACING_M = 7, 55.0


def counting(monkeypatch, owner, name, record):
    """Replace ``owner.name`` with a wrapper that calls ``record()`` first."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        record()
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def mobile_flood_world(seed=7):
    sim = Simulator(seed=seed)
    net = Network(sim, Channel(seed=seed, shadowing_sigma_db=4.0))
    for k in range(SIDE * SIDE):
        position = Point((k % SIDE) * SPACING_M, (k // SIDE) * SPACING_M)
        net.create_node(k + 1, position, tx_power_dbm=POWERS[k % len(POWERS)])
    extent = (SIDE - 1) * SPACING_M
    mobility = MobilityManager(sim, net, update_period_s=1.0)
    for node_id in sorted(net.nodes):
        mobility.attach(
            node_id,
            RandomWaypoint(
                net.node(node_id).position,
                Region(0.0, 0.0, extent, extent),
                speed_range=(5.0, 15.0),
            ),
        )
    router = FloodingRouter(net)
    router.attach_all(sorted(net.nodes))
    transport = MessageService(router)
    mobility.start()
    return sim, net, transport


def test_each_topology_era_costs_one_screen_and_one_pairs_call(monkeypatch):
    sim, net, transport = mobile_flood_world()
    screens, pairs, ranges, refills, batches = (collections.Counter() for _ in range(5))

    def by_era(counter):
        return lambda: counter.update([net.topology_version])

    counting(monkeypatch, node_mod, "_candidate_pairs", by_era(screens))
    channel = net.channel
    counting(monkeypatch, channel, "delivery_probability_pairs", by_era(pairs))
    counting(monkeypatch, channel, "comm_range_m", by_era(ranges))
    counting(monkeypatch, channel, "delivery_probability_batch", by_era(batches))
    counting(monkeypatch, net.stack.phy, "delivery_probability_batch", by_era(refills))
    for k in range(24):
        src = 1 + (7 * k) % (SIDE * SIDE)
        sim.call_at(0.5 + 0.5 * k, lambda src=src: transport.send(src, None, payload=("m", src)))
    sim.run(until=13.0)

    assert len(refills) >= 10  # the floods span that many eras
    assert set(screens) >= set(refills)
    assert all(count == 1 for count in screens.values()), screens
    assert pairs == collections.Counter(set(refills)), (pairs, refills)
    assert not batches, batches
    assert all(ranges[k] <= len(POWERS) for k in screens), ranges


def test_a_pair_only_the_stronger_end_lists_is_filled_both_ways():
    sim = Simulator(seed=5)
    channel = Channel(seed=5, shadowing_sigma_db=4.0)
    net = Network(sim, channel)
    margin = -net.neighbor_margin_db
    weak, strong = (channel.comm_range_m(p, margin_db=margin) for p in (10.0, 20.0))
    net.create_node(0, Point(0.0, 0.0), tx_power_dbm=10.0)
    net.create_node(1, Point((weak + strong) / 2, 0.0), tx_power_dbm=20.0)
    net.create_node(2, Point(-0.9 * weak, 0.0), tx_power_dbm=10.0)
    assert net.neighbors(0, include_down=True) == [2]
    assert net.neighbors(1, include_down=True) == [0]
    router = FloodingRouter(net)
    router.attach_all(sorted(net.nodes))
    MessageService(router).send(2, None, payload="m")  # refills node 2's row only
    sim.run(until=1.0)

    cache = net.stack.phy._pair_cache
    for tx, rx in ((0, 1), (1, 0), (0, 2), (2, 0)):
        sender, receiver = net.nodes[tx], net.nodes[rx]
        expected = frozen_delivery_probability(
            channel, sender.tx_power_dbm, sender.position, receiver.position, tx, rx
        )
        assert cache[(tx, rx)].hex() == expected.hex(), (tx, rx)
