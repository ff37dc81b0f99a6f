#!/usr/bin/env python
"""Causal packet tracing end-to-end: a 30-node AODV network under node
churn, traced hop by hop, analyzed offline.

1. build a 30-node random deployment running AODV with reliable transport,
2. enable causal packet tracing (``sim.enable_packet_tracing()``) and
   stream telemetry to an NDJSON export,
3. inject node churn with :class:`~repro.faults.FaultInjector` while a
   Poisson unicast workload runs,
4. reconstruct the happens-before graph offline, print per-flow latency
   phase breakdowns and the delivery critical path, and write a
   Chrome-trace JSON you can load in chrome://tracing or Perfetto.

Run:  python examples/traced_aodv_faults.py [out_dir]

CI's obs-smoke job runs this and then asserts
``python -m repro.obs trace <out_dir>/trace.ndjson --json digest.json``
reports a nonempty critical path, and that the export holds exactly as
many trace records as the printed in-memory count.
"""

import os
import sys

from repro import Simulator
from repro.faults import FaultInjector
from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.routing import AodvRouter
from repro.net.transport import ReliableMessageService
from repro.obs import NdjsonSink
from repro.obs.analyze import analyze_trace, render_trace_report
from repro.util.geometry import Point

N_NODES = 30
AREA_M = 300.0
HORIZON = 180.0
SEND_UNTIL = 120.0


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "trace-out"
    os.makedirs(out_dir, exist_ok=True)
    export = os.path.join(out_dir, "trace.ndjson")

    # 1-2. Simulator with causal tracing on, telemetry streamed to NDJSON.
    sim = Simulator(seed=2018)
    sim.enable_packet_tracing()
    sim.trace.add_sink(NdjsonSink(export, append=False))
    net = Network(
        sim, Channel(shadowing_sigma_db=0.0, fading_sigma_db=2.0, seed=2018)
    )
    topo_rng = sim.rng.get("topo")
    for i in range(1, N_NODES + 1):
        net.create_node(
            i,
            Point(
                float(topo_rng.uniform(0, AREA_M)),
                float(topo_rng.uniform(0, AREA_M)),
            ),
        )
    router = AodvRouter(net)
    router.attach_all(range(1, N_NODES + 1))
    service = ReliableMessageService(router)

    # 3. Node churn while a Poisson unicast workload runs.
    faults = FaultInjector(net)
    faults.node_churn(
        mtbf_s=60.0, mean_downtime_s=8.0, start_s=10.0, duration_s=HORIZON
    )
    workload_rng = sim.rng.get("workload")

    def tick() -> None:
        if sim.now > SEND_UNTIL:
            return
        a, b = workload_rng.choice(range(1, N_NODES + 1), size=2, replace=False)
        service.send(int(a), int(b), payload="situation report")
        sim.call_in(float(workload_rng.exponential(2.0)), tick)

    sim.call_in(1.0, tick)
    sim.run(until=HORIZON)
    sim.trace.flush_sinks()
    sim.trace.close_sinks()
    print(f"fates: {service.fate_counts()}  "
          f"delivery={service.delivery_ratio():.0%}")
    print(f"telemetry: {export}")
    print(f"trace records: {len(sim.trace) + sim.trace.dropped}")

    # 4. Offline analysis straight from the in-memory trace (the NDJSON
    # export feeds `python -m repro.obs trace` identically).
    analysis = analyze_trace(sim.trace.iter_dicts())
    print()
    print(render_trace_report(analysis, top=8))
    return 0


if __name__ == "__main__":
    sys.exit(main())
