"""``import repro`` loads no networkx; the first graph build does."""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_PROBE = """
import sys
import repro
import repro.core.services.evacuation, repro.core.synthesis.functional, repro.service
assert "networkx" not in sys.modules, sorted(m for m in sys.modules if "networkx" in m)[:5]
from repro import Simulator
from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.topology import build_topology
from repro.util.geometry import Point
sim = Simulator(seed=1)
net = Network(sim, Channel(seed=1))
for i in range(4):
    net.create_node(i + 1, Point(40.0 * i, 0.0))
snapshot = build_topology(net)
assert "networkx" in sys.modules
assert snapshot.node_count == 4 and snapshot.is_connected(), snapshot.graph.edges
path = snapshot.shortest_path(1, 4)
assert path[0] == 1 and path[-1] == 4, path
print("ok")
"""


def test_import_repro_leaves_networkx_unloaded_until_a_graph_is_built():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
