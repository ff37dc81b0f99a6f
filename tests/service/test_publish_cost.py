"""What a publish costs, counted rather than timed.

A cold publish of a 300-asset world measures ~900 links.  Constructing a
numpy bit generator costs more than everything else done for a link, so the
cold build may construct O(1) of them, not one per link; and a republish
after liveness churn reads every surviving link from the hub's table, so it
constructs none and asks the channel about no pair at all.  It screens no
candidate pair either, and freezes no asset that has not changed.  Counts
repeat exactly on any host, which a timing gate on a shared runner does not.
"""

import numpy as np

from repro.net import topology
from repro.scenarios.builder import ScenarioBuilder
from repro.service import SnapshotHub
from repro.service.snapshot import SnapshotAsset
from repro.sim import Simulator

N_ASSETS = 300


def world():
    return (
        ScenarioBuilder(Simulator(seed=12))
        .urban_grid(blocks=12, block_size_m=100.0, density=0.4)
        .population(n_blue=N_ASSETS, n_red=0, n_gray=0)
        .build()
    )


def some_up(network, seed):
    """2% of the up nodes, drawn with ``seed``."""
    up = sorted(node.id for node in network.up_nodes())
    picked = np.random.default_rng(seed).choice(up, size=max(1, len(up) // 50), replace=False)
    return [int(node_id) for node_id in picked]


def test_cold_publish_constructs_o1_generators_and_a_churned_republish_asks_nothing(
    monkeypatch, generators_built
):
    scenario = world()
    network, channel = scenario.network, scenario.network.channel

    asked = {"shadowing_db": 0, "prime_shadowing": 0, "scalar": 0, "batch": 0, "pairs": 0}
    real_shadowing, real_prime = channel.shadowing_db, channel.prime_shadowing
    real_scalar, real_batch = channel.delivery_probability, channel.delivery_probability_batch
    real_pairs = channel.delivery_probability_pairs

    def shadowing_db(a, b):
        asked["shadowing_db"] += 1
        return real_shadowing(a, b)

    def prime_shadowing(pairs):
        pairs = list(pairs)
        asked["prime_shadowing"] += len(pairs)
        return real_prime(pairs)

    def scalar(*args, **kwargs):
        asked["scalar"] += 1
        return real_scalar(*args, **kwargs)

    def batch(tx_power_dbm, tx_pos, rx_pos, rx_ids, *args, **kwargs):
        asked["batch"] += len(rx_ids)
        return real_batch(tx_power_dbm, tx_pos, rx_pos, rx_ids, *args, **kwargs)

    def pairs(ids, *args):
        asked["pairs"] += len(ids[0])  # each pair's two directions in one call
        return real_pairs(ids, *args)

    monkeypatch.setattr(channel, "shadowing_db", shadowing_db)
    monkeypatch.setattr(channel, "prime_shadowing", prime_shadowing)
    monkeypatch.setattr(channel, "delivery_probability", scalar)
    monkeypatch.setattr(channel, "delivery_probability_batch", batch)
    monkeypatch.setattr(channel, "delivery_probability_pairs", pairs)

    generators_built.clear()  # the scenario's own streams
    hub = SnapshotHub(scenario.inventory, min_refresh_s=3600.0)
    cold = hub.publish().topology
    links = asked["prime_shadowing"]
    assert links >= 2 * N_ASSETS and cold.edge_count >= N_ASSETS
    assert len(generators_built) <= 1, generators_built
    # Every candidate link once, both directions at a time, every shadowing
    # read a memo hit.  The pair call reads the memo in place and enters
    # shadowing_db only on a miss, so a hit costs no call: none at all means
    # no link missed.
    assert asked == {
        "shadowing_db": 0,
        "prime_shadowing": links,
        "scalar": 0,
        "batch": 0,
        "pairs": links,
    }
    assert len(channel._shadow_cache) == links

    victims = some_up(network, 4)
    generators_built.clear()
    for key in asked:
        asked[key] = 0
    for node_id in victims:
        network.fail_node(node_id)
    warm = hub.publish().topology
    assert warm.node_count == cold.node_count - len(victims)
    assert 0 < warm.edge_count < cold.edge_count
    assert generators_built == []
    assert asked == {"shadowing_db": 0, "prime_shadowing": 0, "scalar": 0, "batch": 0, "pairs": 0}


def test_a_churned_republish_screens_nothing_and_freezes_only_what_changed(monkeypatch):
    scenario = world()
    network, inventory = scenario.network, scenario.inventory
    counted = {"screens": 0, "frozen": 0, "pairs": 0}
    real_screen, real_init = topology._candidate_pairs, SnapshotAsset.__init__
    real_pairs = network.channel.delivery_probability_pairs

    def screen(*args):
        counted["screens"] += 1
        return real_screen(*args)

    def init(self, *args, **kwargs):
        counted["frozen"] += 1
        real_init(self, *args, **kwargs)

    def pairs(ids, *args):
        counted["pairs"] += len(ids[0])
        return real_pairs(ids, *args)

    monkeypatch.setattr(topology, "_candidate_pairs", screen)
    monkeypatch.setattr(SnapshotAsset, "__init__", init)
    monkeypatch.setattr(network.channel, "delivery_probability_pairs", pairs)

    def publish():
        for key in counted:
            counted[key] = 0
        return hub.publish()

    # Down at the cold publish, so outside the pairs it screens.
    (away,) = some_up(network, 7)[:1]
    network.fail_node(away)
    hub = SnapshotHub(inventory, min_refresh_s=3600.0)
    cold = publish()
    assert counted["screens"] == 1 and counted["frozen"] == len(cold.assets) == N_ASSETS - 1

    victims = some_up(network, 4)
    for node_id in victims:
        network.fail_node(node_id)
    churned = publish()
    assert counted == {"screens": 0, "frozen": 0, "pairs": 0}
    assert churned.topology.node_count == cold.topology.node_count - len(victims)
    survivors = [a for a in cold.assets if a.node_id not in victims]
    assert len(churned.assets) == len(survivors)
    assert all(new is old for new, old in zip(churned.assets, survivors))

    # A victim was screened with the rest: its asset is the one record made.
    network.restore_node(victims[0])
    publish()
    assert counted == {"screens": 0, "frozen": 1, "pairs": 0}

    # ``away`` was not: one screen, and the channel is asked for its pairs only.
    network.restore_node(away)
    publish()
    up = {node.id for node in network.up_nodes()}
    own = [n for n in network.neighbors(away) if n > away]
    own += [n for n in up if n < away and away in network.neighbors(n)]
    assert counted == {"screens": 1, "frozen": 1, "pairs": len(own)} and own
    publish()
    assert counted == {"screens": 0, "frozen": 0, "pairs": 0}

    # A capture nobody announces still reaches the next epoch, for that asset alone.
    target = inventory.by_node(sorted(up)[0])
    target.captured = True
    captured = publish()
    assert counted == {"screens": 0, "frozen": 1, "pairs": 0}
    assert [a.id for a in captured.assets if a.captured] == [target.id]
