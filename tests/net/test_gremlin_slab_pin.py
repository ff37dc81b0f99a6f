"""Pin of the drop-only gremlin's fan-out slab on a mobile AODV world.

The golden scenarios of ``test_stack_fingerprint.py`` all install a gremlin
with duplicate, corrupt and delay knobs, which the per-receiver walk judges;
a ``gremlin(drop_p=...)`` alone takes ``PacketGremlin.judge_fanout``'s one
slab per broadcast.  This world — random-waypoint AODV under churn, a 5%
drop gremlin and a spatial partition, packet tracing on — is that path's
tier-1 pin.  The values were recorded at the commit before the slab existed,
when every reception drew one scalar; the slab must reproduce them.
"""

import hashlib
from dataclasses import asdict

from repro.faults import FaultInjector
from repro.net.channel import Channel
from repro.net.mobility import MobilityManager, RandomWaypoint
from repro.net.node import Network
from repro.net.routing import AodvRouter
from repro.net.transport import ReliableMessageService
from repro.sim import Simulator
from repro.util.geometry import Point, Region

FINGERPRINT = "5a351c371e1c952343dcfb1f8f339d8f"
COUNTERS = "7e114cdaa53308ef"
MISCHIEF = {
    "judged": 9058,
    "dropped": 442,
    "duplicated": 0,
    "corrupted": 0,
    "delayed": 0,
    "reordered": 0,
}


def mobile_aodv_world(seed=29):
    sim = Simulator(seed=seed)
    sim.enable_packet_tracing()
    net = Network(sim, Channel(seed=seed))
    side, spacing = 5, 75.0
    for row in range(side):
        for col in range(side):
            net.create_node(row * side + col + 1, Point(col * spacing, row * spacing))
    extent = (side - 1) * spacing
    mobility = MobilityManager(sim, net, update_period_s=1.0)
    for node_id in sorted(net.nodes):
        mobility.attach(
            node_id,
            RandomWaypoint(
                net.node(node_id).position,
                Region(0.0, 0.0, extent, extent),
                speed_range=(1.0, 4.0),
            ),
        )
    injector = FaultInjector(net)
    injector.node_churn(mtbf_s=60.0, mean_downtime_s=10.0)
    gremlin = injector.gremlin(drop_p=0.05)
    injector.partition_spatial(start_s=12.0, duration_s=10.0)
    router = AodvRouter(net)
    router.attach_all(sorted(net.nodes))
    transport = ReliableMessageService(router, base_rto_s=2.0, max_retries=3)
    mobility.start()
    ids = sorted(net.nodes)
    for i in range(30):
        src, dst = ids[(7 * i) % len(ids)], ids[(11 * i + 3) % len(ids)]
        if src != dst:
            sim.call_at(1.0 + i, lambda s=src, d=dst: transport.send(s, d))
    return sim, gremlin


def counters_digest(sim):
    counters = repr(sorted(sim.metrics.counters().items())).encode()
    return hashlib.blake2b(counters, digest_size=8).hexdigest()


def test_drop_only_gremlin_world_is_pinned():
    sim, gremlin = mobile_aodv_world()
    slabs = []
    judge_fanout = gremlin.judge_fanout

    def counted(*args):
        dropped = judge_fanout(*args)
        slabs.append(dropped)
        return dropped

    gremlin.judge_fanout = counted
    sim.run(until=45.0)
    # The world exercises what it pins: slabs that dropped, partition cuts.
    assert sum(1 for dropped in slabs if dropped) >= 5
    counters = sim.metrics.counters()
    assert counters["faults.gremlin.dropped"] >= 5
    assert counters["net.link_blocked"] > 0
    assert sim.metrics.counter("faults.crashes") > 0
    assert sim.trace.fingerprint() == FINGERPRINT
    assert counters_digest(sim) == COUNTERS
    assert asdict(gremlin.counts) == MISCHIEF
