"""Reference implementations frozen here, sharing no cache with the code under test.

``build_topology`` answers from a cell-row neighbour scan, a batch-seeded
shadowing memo and per-transmitter channel batches.  These are the
computations as they stood before any of that existed — all-pairs geometry,
one freshly constructed generator per link, one scalar chain per direction —
reading the public parameters of the objects they are handed and, from
``src``, only ``derive_seed``, ``distance`` and ``Channel.comm_range_m``.
Do not "speed them up": each is admitted by a seeded mutation of the code it
checks that it was shown to catch (see the tests that import it).
"""

import math

import numpy as np

from repro.util.geometry import distance
from repro.util.rng import derive_seed


def frozen_neighbors(network, node_id, include_down):
    """All-pairs ``distance(a, b) <= comm_range_m(tx_power, -margin)``, sorted."""
    node = network.nodes[node_id]
    limit = network.channel.comm_range_m(
        node.tx_power_dbm, margin_db=-network.neighbor_margin_db
    )
    return sorted(
        other.id
        for other in network.nodes.values()
        if other.id != node_id
        and (include_down or other.up)
        and distance(node.position, other.position) <= limit
    )


def frozen_shadowing_db(seed, sigma_db, node_a, node_b):
    """The per-link draw: a new ``default_rng`` on the pair's derived seed."""
    if sigma_db <= 0:
        return 0.0
    a, b = (node_a, node_b) if node_a <= node_b else (node_b, node_a)
    rng = np.random.default_rng(derive_seed(seed, "shadow", str(a), str(b)))
    return float(rng.normal(0.0, sigma_db))


def frozen_delivery_probability(channel, tx_power_dbm, tx_pos, rx_pos, tx_id, rx_id):
    """``Channel.delivery_probability`` from the channel's parameters alone."""

    def path_loss_db(d):
        ref = channel.reference_distance_m
        return channel.reference_loss_db + 10.0 * channel.path_loss_exponent * math.log10(
            max(d, ref) / ref
        )

    rx_dbm = tx_power_dbm - path_loss_db(distance(tx_pos, rx_pos))
    rx_dbm += frozen_shadowing_db(channel.seed, channel.shadowing_sigma_db, tx_id, rx_id)
    interference_mw = sum(
        10.0 ** ((j.power_dbm - path_loss_db(distance(j.position, rx_pos))) / 10.0)
        if j.active
        else 0.0
        for j in channel.jammers
    )
    denom_mw = 10.0 ** (channel.noise_floor_dbm / 10.0) + interference_mw + 0.0
    sinr = rx_dbm - 10.0 * math.log10(max(denom_mw, 1e-30))
    z = (sinr - channel.sinr_threshold_db) / max(channel.sinr_softness_db, 1e-6)
    return 1.0 / (1.0 + math.exp(-min(max(z, -40.0), 40.0)))
