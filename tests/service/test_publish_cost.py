"""What a publish costs, counted rather than timed.

A cold publish of a 300-asset world measures ~900 links.  Constructing a
numpy bit generator costs more than everything else done for a link, so the
cold build may construct O(1) of them, not one per link; and a republish
after liveness churn reads every surviving link from the hub's table, so it
constructs none and asks the channel about no pair at all.  Counts repeat
exactly on any host, which a timing gate on a shared runner does not.
"""

import numpy as np

from repro.scenarios.builder import ScenarioBuilder
from repro.service import SnapshotHub
from repro.sim import Simulator

N_ASSETS = 300


def test_cold_publish_constructs_o1_generators_and_a_churned_republish_asks_nothing(
    monkeypatch, generators_built
):
    scenario = (
        ScenarioBuilder(Simulator(seed=12))
        .urban_grid(blocks=12, block_size_m=100.0, density=0.4)
        .population(n_blue=N_ASSETS, n_red=0, n_gray=0)
        .build()
    )
    network, channel = scenario.network, scenario.network.channel

    asked = {"shadowing_db": 0, "prime_shadowing": 0, "scalar": 0, "batch": 0}
    real_shadowing, real_prime = channel.shadowing_db, channel.prime_shadowing
    real_scalar, real_batch = channel.delivery_probability, channel.delivery_probability_batch

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

    monkeypatch.setattr(channel, "shadowing_db", shadowing_db)
    monkeypatch.setattr(channel, "prime_shadowing", prime_shadowing)
    monkeypatch.setattr(channel, "delivery_probability", scalar)
    monkeypatch.setattr(channel, "delivery_probability_batch", batch)

    generators_built.clear()  # the scenario's own streams
    hub = SnapshotHub(scenario.inventory, min_refresh_s=3600.0)
    cold = hub.publish().topology
    links = asked["prime_shadowing"]
    assert links >= 2 * N_ASSETS and cold.edge_count >= N_ASSETS
    assert len(generators_built) <= 1, generators_built
    # Every candidate link once per direction, every shadowing read a memo hit.
    assert asked == {
        "shadowing_db": 2 * links,
        "prime_shadowing": links,
        "scalar": 0,
        "batch": 2 * links,
    }
    assert len(channel._shadow_cache) == links

    up = sorted(node.id for node in network.up_nodes())
    victims = np.random.default_rng(4).choice(up, size=max(1, len(up) // 50), replace=False)
    generators_built.clear()
    for key in asked:
        asked[key] = 0
    for node_id in victims:
        network.fail_node(int(node_id))
    warm = hub.publish().topology
    assert warm.node_count == cold.node_count - len(victims)
    assert 0 < warm.edge_count < cold.edge_count
    assert generators_built == []
    assert asked == {"shadowing_db": 0, "prime_shadowing": 0, "scalar": 0, "batch": 0}
