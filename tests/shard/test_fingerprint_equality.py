"""The correctness gate: serial == sharded merged-trace fingerprint.

Five pinned scenarios cover two routers (flooding, aodv), mobility, and
both replicated fault processes; each must fingerprint identically when
run serially and when cut into four shards.  Any divergence means a
partition-coupled read leaked into the hot path — the one bug class the
sharded engine exists to exclude.
"""

from __future__ import annotations

import pytest

from repro.obs import wire_from_env
from repro.sim.kernel import Simulator

from repro.shard import (
    ChurnSpec,
    FaultPlanSpec,
    LinkFlapSpec,
    ShardPlan,
    ShardScenarioSpec,
    ShardedSimulator,
    ShardRuntime,
    WorkloadSpec,
    run_serial,
)

# Pinned worlds: low bitrate cap keeps the conservative window wide (the
# tests stay fast) without changing any ordering property under test.
S1_FLOOD_MOBILE = ShardScenarioSpec(
    seed=5,
    blocks=3,
    n_blue=20,
    bitrate_cap_bps=5e4,
    router="flooding",
    mobile_fraction=0.25,
    workload=WorkloadSpec(kind="beacons", rate_hz=1.0, ttl=4, sender_stride=2),
)
S2_AODV_UNICAST = ShardScenarioSpec(
    seed=11,
    blocks=3,
    n_blue=18,
    bitrate_cap_bps=5e4,
    router="aodv",
    workload=WorkloadSpec(
        kind="unicast", rate_hz=0.5, size_bits=4096, sender_stride=4
    ),
)
S3_FLOOD_CHURN = ShardScenarioSpec(
    seed=13,
    blocks=3,
    n_blue=18,
    bitrate_cap_bps=5e4,
    router="flooding",
    workload=WorkloadSpec(kind="beacons", rate_hz=1.0, sender_stride=3),
    faults=FaultPlanSpec(
        churn=ChurnSpec(start_s=0.5, mtbf_s=4.0, mean_downtime_s=1.5)
    ),
)
S4_AODV_LINKFLAP = ShardScenarioSpec(
    seed=17,
    blocks=3,
    n_blue=18,
    bitrate_cap_bps=5e4,
    router="aodv",
    workload=WorkloadSpec(
        kind="unicast", rate_hz=0.5, size_bits=4096, sender_stride=4
    ),
    faults=FaultPlanSpec(
        link_flap=LinkFlapSpec(
            start_s=0.5, n_links=3, mtbf_s=3.0, mean_downtime_s=1.0
        )
    ),
)

#: Flooding under link flaps: the only pinned world where the sharded
#: broadcast's fault gate cuts survivors and its cross-shard handoffs run
#: alongside.
S5_FLOOD_LINKFLAP = ShardScenarioSpec(
    seed=19,
    blocks=3,
    n_blue=18,
    bitrate_cap_bps=5e4,
    router="flooding",
    workload=WorkloadSpec(kind="beacons", rate_hz=1.0, ttl=4, sender_stride=2),
    faults=FaultPlanSpec(
        link_flap=LinkFlapSpec(
            start_s=0.5, n_links=6, mtbf_s=2.0, mean_downtime_s=1.5
        )
    ),
)

# Serial == sharded compares two runs of the same keyed hop, so on its own
# it cannot see a change to that hop.  These literals pin the hop itself:
# each scenario's serial fingerprint, and its accounting — registry
# counters plus the ``net.*`` metric counters — which the serial run and
# the merged four-shard run must both reproduce.
FLOOD_ROUTE = "route.flooding."
AODV_ROUTE = "route.aodv."
PINNED = {
    "flooding-beacons-mobility": (
        "0e8cbba4f794222b5beed8e60d5a6c3a",
        {
            "net.tx": 676,
            "net.rx": 5352,
            "net.dropped": 1596,
            "net.tx_success": 5352,
            FLOOD_ROUTE + "tx": 676,
            FLOOD_ROUTE + "delivered": 5352,
            FLOOD_ROUTE + "control_tx": 676,
            FLOOD_ROUTE + "control_bits": 1384448,
        },
    ),
    "aodv-unicast": (
        "ae1963e323497f5919d4d1c1f8a73d04",
        {
            "net.tx": 197,
            "net.rx": 884,
            "net.dropped": 371,
            "net.tx_success": 884,
            "net.tx_failed": 32,
            AODV_ROUTE + "tx": 197,
            AODV_ROUTE + "delivered": 884,
            AODV_ROUTE + "control_tx": 165,
            AODV_ROUTE + "control_bits": 42240,
        },
    ),
    "flooding-beacons-churn": (
        "df6b2d9de3798950988119cd61193001",
        {
            "net.tx": 305,
            "net.rx": 1894,
            "net.dropped": 693,
            "net.tx_success": 1894,
            FLOOD_ROUTE + "tx": 305,
            FLOOD_ROUTE + "delivered": 1894,
            FLOOD_ROUTE + "control_tx": 305,
            FLOOD_ROUTE + "control_bits": 624640,
        },
    ),
    "aodv-unicast-linkflap": (
        "417c558ebcf021189f37146597067f45",
        {
            "net.tx": 174,
            "net.rx": 1201,
            "net.dropped": 448,
            "net.tx_success": 1201,
            "net.tx_failed": 25,
            "net.link_blocked": 6,
            AODV_ROUTE + "tx": 174,
            AODV_ROUTE + "delivered": 1201,
            AODV_ROUTE + "control_tx": 163,
            AODV_ROUTE + "control_bits": 41728,
        },
    ),
    "flooding-beacons-linkflap": (
        "2c41fbf1c909859f5d1647c932366852",
        {
            "net.tx": 630,
            "net.rx": 4954,
            "net.dropped": 2296,
            "net.tx_success": 4954,
            "net.link_blocked": 27,
            FLOOD_ROUTE + "tx": 630,
            FLOOD_ROUTE + "delivered": 4954,
            FLOOD_ROUTE + "control_tx": 630,
            FLOOD_ROUTE + "control_bits": 1290240,
        },
    ),
}

#: Registry instruments and metric counters the accounting pin covers.
_REGISTRY_PINS = ("net.tx", "net.rx", "net.dropped")
_COUNTER_PINS = ("net.tx_success", "net.tx_failed", "net.link_blocked")


def accounting(result) -> dict:
    """The pinned slice of a run's merged registry and metric counters."""
    out = {
        name: inst["value"]
        for name, inst in result.metrics.items()
        if name in _REGISTRY_PINS or name.startswith("route.")
    }
    out.update(
        (name, value)
        for name, value in result.counters.items()
        if name in _COUNTER_PINS
    )
    return out


SCENARIOS = [
    pytest.param(S1_FLOOD_MOBILE, 4.0, id="flooding-beacons-mobility"),
    pytest.param(S2_AODV_UNICAST, 6.0, id="aodv-unicast"),
    pytest.param(S3_FLOOD_CHURN, 4.0, id="flooding-beacons-churn"),
    pytest.param(S4_AODV_LINKFLAP, 6.0, id="aodv-unicast-linkflap"),
    pytest.param(S5_FLOOD_LINKFLAP, 4.0, id="flooding-beacons-linkflap"),
]

PLAN = ShardPlan(n_shards=4, cell_size_m=60.0)


@pytest.mark.parametrize("spec,until", SCENARIOS)
def test_serial_equals_four_shards_inline(request, spec, until):
    serial = run_serial(spec, until)
    sharded = ShardedSimulator(spec, PLAN, mode="inline").run(until)
    assert serial.records, "pinned scenario produced an empty trace"
    assert len(serial.records) == len(sharded.records)
    assert serial.fingerprint() == sharded.fingerprint()
    # The rx stream alone must agree too (category-filtered comparison).
    assert serial.fingerprint(["app.rx"]) == sharded.fingerprint(["app.rx"])
    fingerprint, counts = PINNED[request.node.callspec.id]
    assert serial.fingerprint() == fingerprint
    assert accounting(serial) == counts
    assert accounting(sharded) == counts


def test_shard_runtime_has_no_gremlin_and_no_packet_tracer(monkeypatch):
    """The keyed hop draws nothing sequential: the spec layer admits no
    gremlin, and a replica drops ``REPRO_OBS_TRACE`` even when it is set."""
    monkeypatch.setenv("REPRO_OBS_TRACE", "1")
    # The variable does switch the tracer on for a plain simulator.
    plain = wire_from_env(Simulator(seed=0), {"REPRO_OBS_TRACE": "1"})
    assert plain.packet_tracer is not None
    runtime = ShardRuntime(S4_AODV_LINKFLAP, PLAN, 1, collect_trace=False)
    assert runtime.network.stack.faults.gremlins == []
    assert runtime.sim.packet_tracer is None


def test_serial_equals_two_shards_fork():
    """One real-pipes run: the pickled-handoff path, not just inline."""
    until = 4.0
    serial = run_serial(S1_FLOOD_MOBILE, until)
    sharded = ShardedSimulator(
        S1_FLOOD_MOBILE,
        ShardPlan(n_shards=2, cell_size_m=60.0),
        mode="fork",
    ).run(until)
    assert serial.fingerprint() == sharded.fingerprint()
    assert sharded.n_shards == 2
    assert sharded.retries == 0


def test_partition_seed_does_not_change_the_model():
    """Different cuts, same physics: fingerprints agree across partitions."""
    until = 4.0
    base = ShardedSimulator(
        S3_FLOOD_CHURN, ShardPlan(n_shards=4, cell_size_m=60.0), mode="inline"
    ).run(until)
    recut = ShardedSimulator(
        S3_FLOOD_CHURN,
        ShardPlan(n_shards=3, cell_size_m=70.0, partition_seed=9),
        mode="inline",
    ).run(until)
    assert base.fingerprint() == recut.fingerprint()


def test_different_seeds_diverge():
    """Anti-vacuity: the fingerprint actually discriminates worlds."""
    until = 3.0
    a = run_serial(S1_FLOOD_MOBILE, until)
    b = run_serial(
        ShardScenarioSpec(
            seed=6,
            blocks=3,
            n_blue=20,
            bitrate_cap_bps=5e4,
            router="flooding",
            mobile_fraction=0.25,
            workload=WorkloadSpec(
                kind="beacons", rate_hz=1.0, ttl=4, sender_stride=2
            ),
        ),
        until,
    )
    assert a.fingerprint() != b.fingerprint()
