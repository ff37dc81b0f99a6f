"""The broadcast path's shadowing fill: one batch per era.

The first fan-out row refill of a pair-cache era (``topology_version`` and
jamming) fills the PHY pair cache whole, and first primes the channel's
shadowing memo with every geometric neighbour pair it lacks, so a flood
seeds its links in one ``Channel.prime_shadowing`` batch instead of
constructing one generator per link.  Unicast never refills a row, so a unicast-only world keeps the lazy
per-link fill.  Every value is held to ``frozen_shadowing_db`` (a fresh
generator per link) by ``float.hex``.  Mutations of the fill these were
shown to catch: the era keyed on ``liveness_version``, the fill run from the
unicast path, the fill skipped, and pairs the memo holds handed over again.
With mixed transmit power a pair may be listed by its stronger end only, so
the fill takes both directions of every neighbour list.
"""

import numpy as np

from repro.net import channel as channel_mod
from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.routing import FloodingRouter, GreedyGeoRouter
from repro.net.transport import MessageService
from repro.sim import Simulator
from repro.util.geometry import Point
from tests.net.frozen_oracles import frozen_shadowing_db

SIDE, SPACING_M = 8, 60.0


def grid_world(router_cls, shadowing_sigma_db=4.0, seed=5):
    sim = Simulator(seed=seed)
    net = Network(sim, Channel(seed=seed, shadowing_sigma_db=shadowing_sigma_db))
    for k in range(SIDE * SIDE):
        net.create_node(k + 1, Point((k % SIDE) * SPACING_M, (k // SIDE) * SPACING_M))
    router = router_cls(net)
    router.attach_all(sorted(net.nodes))
    return sim, net, MessageService(router)


def neighbour_pairs(net):
    return {(a, b) for a in net.nodes for b in net.neighbors(a, include_down=True) if a < b}


def flood(sim, transport, src, at):
    sim.call_at(at, lambda: transport.send(src, None, payload=("m", src)))
    sim.run(until=at + 30.0)


def record_fills(monkeypatch, channel):
    """Wrap the channel's ``prime_shadowing``; each call appends the pairs it
    was handed and a copy of the memo as it stands once the call returns."""
    fills = []
    prime = channel.prime_shadowing

    def recording(pairs):
        pairs = list(pairs)
        prime(pairs)
        fills.append((pairs, dict(channel._shadow_cache)))

    monkeypatch.setattr(channel, "prime_shadowing", recording)
    return fills


def count_generators(monkeypatch):
    """Count ``np.random.default_rng`` calls made from ``repro.net.channel``."""
    built = []

    class Random:
        def __getattr__(self, name):
            return getattr(np.random, name)

        def default_rng(self, *args, **kwargs):
            built.append(args)
            return np.random.default_rng(*args, **kwargs)

    class Numpy:
        random = Random()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(channel_mod, "np", Numpy())
    return built


def assert_frozen(channel):
    sigma = channel.shadowing_sigma_db
    for (a, b), value in channel._shadow_cache.items():
        assert value.hex() == frozen_shadowing_db(channel.seed, sigma, a, b).hex(), (a, b)


def test_first_broadcast_fills_every_neighbour_pair(monkeypatch):
    sim, net, transport = grid_world(FloodingRouter)
    fills = record_fills(monkeypatch, net.channel)
    flood(sim, transport, src=10, at=1.0)
    pairs = neighbour_pairs(net)
    assert len(fills) == 1  # one era, one fill
    assert set(fills[0][1]) == pairs
    assert set(net.channel._shadow_cache) == pairs  # the flood drew nothing lazily
    assert_frozen(net.channel)


def test_a_static_flood_builds_no_generator_per_link(monkeypatch):
    sim, net, transport = grid_world(FloodingRouter)
    built = count_generators(monkeypatch)
    for k, src in enumerate((10, 37, 64)):
        flood(sim, transport, src=src, at=1.0 + 40.0 * k)
    assert sim.metrics.counter("net.tx_attempts") > 3 * SIDE * SIDE // 2
    assert built == []
    assert len(net.channel._shadow_cache) == len(neighbour_pairs(net))


def test_a_unicast_world_is_never_filled_whole(monkeypatch):
    sim, net, transport = grid_world(GreedyGeoRouter)
    fills = record_fills(monkeypatch, net.channel)
    built = count_generators(monkeypatch)
    for k in range(20):
        sim.call_at(1.0 + 0.1 * k, lambda: transport.send(1, SIDE * SIDE, payload=("m", 0)))
    sim.run(until=30.0)
    assert sim.metrics.counter("net.tx_attempts") >= 20 * 3
    assert fills == []
    drawn = len(net.channel._shadow_cache)
    assert 0 < drawn < len(neighbour_pairs(net)) // 2
    assert len(built) == drawn  # the lazy fill: one generator per link it touched
    assert_frozen(net.channel)


def test_after_a_move_only_missing_pairs_reach_the_fill(monkeypatch):
    sim, net, transport = grid_world(FloodingRouter)
    flood(sim, transport, src=10, at=1.0)
    before = dict(net.channel._shadow_cache)
    net.set_position(1, Point(3.5 * SPACING_M, 9.0 * SPACING_M))
    missing = neighbour_pairs(net) - set(before)
    assert 0 < len(missing) < 10
    fills = record_fills(monkeypatch, net.channel)
    flood(sim, transport, src=10, at=40.0)
    channel = net.channel
    assert [sorted(pairs) for pairs, _ in fills] == [sorted(missing)]
    assert before.items() <= channel._shadow_cache.items()
    assert set(channel._shadow_cache) == set(before) | missing
    assert_frozen(channel)


def test_no_fill_and_no_neighbour_walk_without_shadowing(monkeypatch):
    sim, net, transport = grid_world(FloodingRouter, shadowing_sigma_db=0.0)
    fills = record_fills(monkeypatch, net.channel)
    walks = []
    neighbors = net.neighbors

    def counting(node_id, *, include_down=False):
        walks.append(include_down)
        return neighbors(node_id, include_down=include_down)

    monkeypatch.setattr(net, "neighbors", counting)
    flood(sim, transport, src=10, at=1.0)
    assert sim.metrics.counter("net.tx_attempts") > SIDE * SIDE // 2
    assert fills == [] and net.channel._shadow_cache == {}
    assert True not in walks


def test_a_pair_only_the_stronger_end_reaches_is_filled(monkeypatch):
    sim = Simulator(seed=5)
    channel = Channel(seed=5, shadowing_sigma_db=4.0)
    net = Network(sim, channel)
    margin = -net.neighbor_margin_db
    weak, strong = (channel.comm_range_m(p, margin_db=margin) for p in (10.0, 20.0))
    net.create_node(0, Point(0.0, 0.0), tx_power_dbm=10.0)
    net.create_node(1, Point((weak + strong) / 2, 0.0), tx_power_dbm=20.0)
    assert net.neighbors(0, include_down=True) == []
    assert net.neighbors(1, include_down=True) == [0]
    router = FloodingRouter(net)
    router.attach_all(sorted(net.nodes))
    built = count_generators(monkeypatch)
    flood(sim, MessageService(router), src=1, at=1.0)
    assert sim.metrics.counter("net.tx_attempts") >= 1
    assert (0, 1) in channel._shadow_cache
    assert built == []
    assert_frozen(channel)
