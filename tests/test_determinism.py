"""Whole-stack determinism: identical seeds give identical runs.

This is the invariant everything else in the library leans on — every
experiment is reproducible from its seed, and any two components drawing
from distinct named streams never perturb each other.
"""

import numpy as np

from repro import ScenarioBuilder, Simulator
from repro.faults import FaultInjector, fault_windows
from repro.net.channel import Channel
from repro.net.node import Network
from repro.net.routing import AodvRouter
from repro.net.transport import MessageService, ReliableMessageService
from repro.security.attacks import JammingAttack, NodeDestructionAttack
from repro.util.geometry import Point


def run_full_stack(seed: int):
    """A busy run touching mobility, routing, attacks, metrics, traces."""
    sim = Simulator(seed=seed)
    scenario = (
        ScenarioBuilder(sim)
        .urban_grid(blocks=5, block_size_m=90.0, density=0.4)
        .population(n_blue=40, n_red=5, n_gray=10)
        .targets(3)
        .jammers(2)
        .build()
    )
    scenario.start()
    router = AodvRouter(scenario.network)
    router.attach_all(scenario.blue_node_ids())
    service = MessageService(router)
    ids = scenario.blue_node_ids()
    rng = sim.rng.get("workload")
    for _ in range(20):
        a, b = rng.choice(ids, size=2, replace=False)
        service.send(int(a), int(b))
    JammingAttack(scenario).schedule(start_s=30.0, duration_s=30.0)
    victims = [a.id for a in scenario.inventory.blue()[:3]]
    NodeDestructionAttack(scenario, victims).schedule(start_s=45.0)
    sim.run(until=120.0)
    return {
        "trace": sim.trace.fingerprint(),
        "counters": tuple(sorted(sim.metrics.counters().items())),
        "delivery": service.delivery_ratio(),
        "positions": tuple(
            (n.id, round(n.position.x, 9), round(n.position.y, 9))
            for n in scenario.network.nodes.values()
        ),
    }


def run_chaos_stack(seed: int):
    """A run where every fault class and the reliable transport are live."""
    sim = Simulator(seed=seed)
    channel = Channel(shadowing_sigma_db=0.0, fading_sigma_db=0.0, seed=seed)
    net = Network(sim, channel)
    for i in range(1, 13):
        net.create_node(i, Point(i * 75.0, 0.0))
    injector = FaultInjector(net)
    injector.node_churn(mtbf_s=60.0, mean_downtime_s=15.0)
    injector.link_flaps(n_links=2, mtbf_s=40.0, mean_downtime_s=10.0)
    injector.partition_spatial(start_s=60.0, duration_s=30.0)
    injector.gremlin(drop_p=0.05, duplicate_p=0.02, delay_p=0.05)
    router = AodvRouter(net)
    router.attach_all(range(1, 13))
    service = ReliableMessageService(router, base_rto_s=2.0, max_retries=4)
    rng = sim.rng.get("workload")
    for _ in range(25):
        a, b = rng.choice(range(1, 13), size=2, replace=False)
        service.send(int(a), int(b))
    sim.run(until=240.0)
    return {
        "trace": sim.trace.fingerprint(),
        "counters": tuple(sorted(sim.metrics.counters().items())),
        "fates": tuple(sorted(service.fate_counts().items())),
        "mttr": injector.mttr(),
        "windows": tuple(
            (name, tuple(spans))
            for name, spans in sorted(fault_windows(sim.trace, until=sim.now).items())
        ),
    }


class TestDeterminism:
    def test_identical_seed_identical_run(self):
        assert run_full_stack(101) == run_full_stack(101)

    def test_different_seed_different_run(self):
        assert run_full_stack(101) != run_full_stack(102)

    def test_fault_schedule_identical_seed_identical_trace(self):
        """Same seed + same FaultSchedule => bit-identical traces and stats."""
        first = run_chaos_stack(31)
        second = run_chaos_stack(31)
        assert first["trace"] == second["trace"]
        assert first == second

    def test_fault_schedule_seed_sensitivity(self):
        assert run_chaos_stack(31) != run_chaos_stack(32)

    def test_stream_isolation(self):
        """Consuming an unrelated stream must not perturb others."""
        sim1 = Simulator(seed=7)
        a1 = sim1.rng.get("a").random(8)

        sim2 = Simulator(seed=7)
        sim2.rng.get("unrelated").random(1000)  # burn another stream
        a2 = sim2.rng.get("a").random(8)
        assert np.allclose(a1, a2)

    def test_component_order_independence(self):
        """Creating components in a different order gives identical draws."""
        sim1 = Simulator(seed=9)
        m1 = sim1.rng.get("mobility").random(4)
        c1 = sim1.rng.get("channel").random(4)

        sim2 = Simulator(seed=9)
        c2 = sim2.rng.get("channel").random(4)
        m2 = sim2.rng.get("mobility").random(4)
        assert np.allclose(m1, m2)
        assert np.allclose(c1, c2)
