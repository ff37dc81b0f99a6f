"""Campaign-scale integration: many subsystems, long horizon, live attacks.

One 30-minute (virtual) operation combining discovery, mission arbitration,
tracking, health monitoring, jamming, capture, and background attrition.
The assertions are *system-consistency* checks — the kind of invariants
that break when subsystems interact badly, not per-feature behavior
(covered by the unit suites).
"""

import pytest

from repro import ScenarioBuilder, Simulator
from repro.core.mission import MissionGoal, MissionType
from repro.core.services.arbiter import MissionArbiter, MissionState
from repro.core.services.health import HealthMonitorService
from repro.core.services.tracking import TrackingService
from repro.core.synthesis import DiscoveryService
from repro.net.routing import FloodingRouter
from repro.net.transport import MessageService
from repro.security.attacks import (
    AttritionProcess,
    JammingAttack,
    NodeCaptureAttack,
)
from repro.things.capabilities import SensingModality

HORIZON = 700.0


@pytest.fixture(scope="module")
def campaign():
    sim = Simulator(seed=2026)
    scenario = (
        ScenarioBuilder(sim)
        .urban_grid(blocks=6, block_size_m=100.0, density=0.4)
        .population(n_blue=60, n_red=10, n_gray=18)
        .targets(5)
        .jammers(2)
        .build()
    )
    scenario.start()

    discovery = DiscoveryService(scenario, scenario.blue_node_ids()[:15])
    discovery.start()

    arbiter = MissionArbiter(scenario)
    surveil = arbiter.submit(
        MissionGoal(
            MissionType.SURVEIL,
            scenario.region,
            min_coverage=0.5,
            duration_s=HORIZON,
            modalities=frozenset(
                {SensingModality.SEISMIC, SensingModality.ACOUSTIC,
                 SensingModality.CAMERA}
            ),
        )
    )

    router = FloodingRouter(scenario.network)
    router.attach_all(scenario.blue_node_ids())
    service = MessageService(router)

    sensors = [a for a in scenario.inventory.blue() if a.sensors][:14]
    sink = scenario.blue_node_ids()[0]
    tracking = TrackingService(scenario, sensors, sink, service)
    tracking.start()

    wearers = [
        a
        for a in scenario.inventory.blue()
        if a.profile.can_sense(SensingModality.PHYSIOLOGICAL)
    ][:6]
    health = None
    if len(wearers) >= 2:
        health = HealthMonitorService(scenario, wearers, sink, service)
        health.start()

    JammingAttack(scenario).schedule(start_s=200.0, duration_s=200.0)
    captured = [a.id for a in scenario.inventory.blue()[:4]]
    NodeCaptureAttack(scenario, captured).schedule(start_s=250.0)
    attrition = AttritionProcess(scenario, mtbf_s=2500.0)
    attrition.schedule(start_s=0.0)

    sim.run(until=HORIZON)
    return {
        "sim": sim,
        "scenario": scenario,
        "discovery": discovery,
        "arbiter": arbiter,
        "surveil": surveil,
        "tracking": tracking,
        "health": health,
        "attrition": attrition,
    }


class TestCampaign:
    def test_simulation_reached_horizon(self, campaign):
        assert campaign["sim"].now == HORIZON

    def test_mission_lifecycle_completed(self, campaign):
        assert campaign["surveil"].state in (
            MissionState.COMPLETED,
            MissionState.ACTIVE,  # completes exactly at the horizon
        )

    def test_discovery_stays_useful_under_attrition(self, campaign):
        # Recall is over *alive* assets, so attrition must not corrupt it.
        recall = campaign["discovery"].recall()
        assert 0.3 <= recall <= 1.0

    def test_attrition_killed_someone_but_not_everyone(self, campaign):
        rate = campaign["attrition"].loss_rate()
        assert 0.0 < rate < 0.9

    def test_tracking_survived_the_jamming_window(self, campaign):
        tracking = campaign["tracking"]
        assert tracking.tracks  # produced tracks
        assert tracking.reports_received > 0
        error = tracking.mean_track_error()
        assert error == error  # not NaN

    def test_health_monitor_consistent(self, campaign):
        health = campaign["health"]
        if health is None:
            pytest.skip("no wearables in draw")
        stats = health.detection_stats()
        # No casualties inflicted through the service API; any alerts must
        # come from silence (attrition victims), never negative counts.
        assert stats["casualties"] == 0.0
        assert stats["false_alarms"] >= 0.0

    def test_captured_assets_flagged_hostile(self, campaign):
        scenario = campaign["scenario"]
        captured = [a for a in scenario.inventory if a.captured]
        assert captured
        assert all(a.hostile for a in captured)

    def test_metrics_and_traces_recorded(self, campaign):
        sim = campaign["sim"]
        assert sim.metrics.counter("net.tx_attempts") > 100
        assert [r.category for r in sim.trace.records].count("attack.launch") >= 2
        assert sim.metrics.series("discovery.recall").values

    def test_no_dangling_allocations(self, campaign):
        arbiter = campaign["arbiter"]
        if campaign["surveil"].state is MissionState.COMPLETED:
            assert not arbiter.allocated_assets()
