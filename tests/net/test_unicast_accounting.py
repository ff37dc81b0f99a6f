"""The acked unicast hop's registry accounting, pinned and checked for conservation.

The sibling of ``test_broadcast_accounting.py`` for ``FastPathDispatcher.unicast``:
the same registry view (``net.tx`` / ``net.rx`` / ``net.dropped``,
``route.<router>.tx`` / ``.delivered``) plus the hop's outcome counters —
``net.tx_failed``, ``net.link_blocked``, ``net.rx_corrupt`` and
``net.rx_duplicated`` — on static greedy-geo and AODV grids.  The totals were recorded from the
transmit path as it stood before the hop asked the fault layer only while
a fault is installed (``python -m tests.net.test_unicast_accounting``
prints them), next to identities that read none of those counters' writers:

* ``net.tx == net.tx_attempts`` and ``net.rx == net.tx_success``;
* in a unicast-only world every charged hop ends in exactly one of a
  delivery, a failure or a corrupt frame:
  ``tx_attempts == tx_success + tx_failed + rx_corrupt``;
* every hop from a live sender (and every fan-out slot) ends as one
  reception or one drop: the summed widths equal ``net.rx + net.dropped``.

The faulted world adds the full trace fingerprint of a packet-traced 6 x 6
greedy-geo grid whose traffic runs before, during and after a blocked link,
a partition and a drop/duplicate/corrupt/delay gremlin — so the hop's fault
gate is pinned both while a fault is installed and while none is.
"""

import pytest

from repro.faults.gremlin import PacketGremlin
from repro.net.routing import AodvRouter, GreedyGeoRouter
from repro.sim import Simulator
from tests.net.test_broadcast_accounting import Tally, accounting, flooding_grid

OUTCOME_COUNTERS = (
    "net.tx_failed", "net.link_blocked", "net.rx_corrupt", "net.rx_duplicated",
)


def unicast_accounting(sim, router_name):
    """The broadcast sibling's pinned view plus the hop's outcome counters."""
    out = accounting(sim, router_name)
    for name in OUTCOME_COUNTERS:
        out[name] = sim.metrics.counter(name)
    return out


def unicast_world(router_cls, seed, *, side=7, messages=40, traced=False, faults=None):
    """``messages`` point-to-point sends over a static grid, run to quiescence."""
    sim = Simulator(seed=seed)
    if traced:
        sim.enable_packet_tracing()
    net, ids, svc = flooding_grid(sim, side, router_cls)
    tally = Tally(net)
    for k in range(messages):
        src = ids[(11 * k + 3) % len(ids)]
        dst = ids[(17 * k + 5) % len(ids)]
        if dst == src:
            dst = ids[(k + 1) % len(ids)]
        sim.call_at(1.0 + 0.05 * k, lambda s=src, d=dst, k=k: svc.send(s, d, payload=k))
    if faults is not None:
        faults(sim, net, ids)
    sim.run()
    return sim, tally


def every_fault(sim, net, ids):
    """Traffic runs 1.0-4.95 s: the blocked link stands 1.5-2.4 s, the
    gremlin 2.0-3.5 s and the partition (left three columns against the
    right three) 2.6-3.4 s, so some hops see no fault, some one, some two —
    and the partition stands while no link is cut, so a gate that asked
    ``link_blocked`` only for cut links would let it through."""
    sim.call_at(1.5, lambda: net.block_link(15, 16))
    sim.call_at(2.4, lambda: net.unblock_link(15, 16))
    gremlin = PacketGremlin(
        net, drop_p=0.12, duplicate_p=0.12, corrupt_p=0.08,
        delay_p=0.25, delay_mean_s=0.005,
    )
    sim.call_at(2.0, gremlin.launch)
    sim.call_at(3.5, gremlin.cease)
    halves = {nid: int((nid - 1) % 6 >= 3) for nid in ids}
    sim.call_at(2.6, lambda: net.add_partition(halves))
    sim.call_at(3.4, lambda: net.remove_partition(halves))


def faulted_geo_world():
    """The packet-traced 6 x 6 greedy-geo grid under :func:`every_fault`."""
    return unicast_world(
        GreedyGeoRouter, 29, side=6, messages=80, traced=True, faults=every_fault
    )


def fates(sim):
    """``pkt.drop`` records by reason, plus the receptions a gremlin delayed."""
    out = {"delayed_rx": 0}
    for rec in sim.trace.records:
        if rec.category == "pkt.drop":
            out[rec.get("reason")] = out.get(rec.get("reason"), 0) + 1
        elif rec.category == "pkt.rx" and rec.get("extra_s") > 0.0:
            out["delayed_rx"] += 1
    return out


# Recorded before the hop rewrite; see the module docstring.
GEO = {
    "net.tx": 84.0, "net.rx": 48.0, "net.dropped": 36.0,
    "route.geo.tx": 84.0, "route.geo.delivered": 48.0, "route.geo.control_tx": 0.0,
    "net.tx_attempts": 84.0, "net.tx_success": 48.0,
    "net.tx_failed": 36.0, "net.link_blocked": 0.0, "net.rx_corrupt": 0.0,
    "net.rx_duplicated": 0.0,
}
AODV = {
    "net.tx": 1741.0, "net.rx": 15763.0, "net.dropped": 11042.0,
    "route.aodv.tx": 1741.0, "route.aodv.delivered": 15763.0,
    "route.aodv.control_tx": 1607.0,
    "net.tx_attempts": 1741.0, "net.tx_success": 15763.0,
    "net.tx_failed": 99.0, "net.link_blocked": 0.0, "net.rx_corrupt": 0.0,
    "net.rx_duplicated": 0.0,
}
FAULTED = {
    "net.tx": 199.0, "net.rx": 60.0, "net.dropped": 139.0,
    "route.geo.tx": 199.0, "route.geo.delivered": 60.0, "route.geo.control_tx": 0.0,
    "net.tx_attempts": 199.0, "net.tx_success": 60.0,
    "net.tx_failed": 137.0, "net.link_blocked": 12.0, "net.rx_corrupt": 2.0,
    "net.rx_duplicated": 1.0,
}
FAULTED_FINGERPRINT = "d2bceb1dd6df035f7a7bdba78980b3d7"
FAULTED_FATES = {"delayed_rx": 5, "loss": 122, "corrupt": 2, "link_blocked": 12, "gremlin": 3}


def assert_identities(acct, router_name, tally, *, unicast_only):
    assert acct["net.tx"] == acct["net.tx_attempts"]
    assert acct["net.rx"] == acct["net.tx_success"]
    assert acct[f"route.{router_name}.tx"] == acct["net.tx"]
    assert tally.width == acct["net.rx"] + acct["net.dropped"]
    if unicast_only:
        assert acct["net.tx_attempts"] == (
            acct["net.tx_success"] + acct["net.tx_failed"] + acct["net.rx_corrupt"]
        )


@pytest.mark.parametrize(
    "router_cls, recorded, unicast_only",
    [(GreedyGeoRouter, GEO, True), (AodvRouter, AODV, False)],
    ids=["geo", "aodv"],
)
def test_static_grid_unicast_accounting(router_cls, recorded, unicast_only):
    sim, tally = unicast_world(router_cls, 21)
    acct = unicast_accounting(sim, router_cls.name)
    assert acct == recorded
    assert_identities(acct, router_cls.name, tally, unicast_only=unicast_only)
    assert tally.sniffed == acct["net.rx"]


def test_faulted_traced_geo_is_bit_identical():
    sim, tally = faulted_geo_world()
    acct = unicast_accounting(sim, "geo")
    assert acct == FAULTED
    assert_identities(acct, "geo", tally, unicast_only=True)
    assert tally.sniffed == acct["net.rx"] + sim.metrics.counter("net.rx_duplicated")
    assert fates(sim) == FAULTED_FATES
    assert sim.trace.fingerprint() == FAULTED_FINGERPRINT


if __name__ == "__main__":
    for label, cls in (("GEO", GreedyGeoRouter), ("AODV", AodvRouter)):
        sim, _ = unicast_world(cls, 21)
        print(f"{label} = {unicast_accounting(sim, cls.name)!r}")
    sim, _ = faulted_geo_world()
    print(f"FAULTED = {unicast_accounting(sim, 'geo')!r}")
    print(f"FAULTED_FINGERPRINT = {sim.trace.fingerprint()!r}")
    print(f"FAULTED_FATES = {fates(sim)!r}")
