"""Tests for tracking and surveillance services."""

import pytest

from repro import ScenarioBuilder, Simulator
from repro.core.services.surveillance import SurveillanceService
from repro.core.services.tracking import TrackingService
from repro.errors import ConfigurationError
from repro.net.routing import FloodingRouter
from repro.net.transport import MessageService


@pytest.fixture
def tracking_world():
    sim = Simulator(seed=23)
    scenario = (
        ScenarioBuilder(sim)
        .urban_grid(blocks=4, block_size_m=80.0, density=0.2)
        .population(n_blue=40, n_red=0, n_gray=0)
        .mobility(mobile_fraction=0.0)
        .targets(4)
        .build()
    )
    sensors = [a for a in scenario.inventory.blue() if a.sensors][:15]
    sink = scenario.blue_node_ids()[0]
    router = FloodingRouter(scenario.network)
    router.attach_all(scenario.blue_node_ids())
    service = MessageService(router)
    return scenario, sensors, sink, service


class TestTrackingService:
    def test_requires_targets(self, sim):
        scenario = ScenarioBuilder(sim).urban_grid(blocks=3).population(10, 0, 0).build()
        router = FloodingRouter(scenario.network)
        router.attach_all(scenario.blue_node_ids())
        with pytest.raises(ConfigurationError):
            TrackingService(
                scenario, [], scenario.blue_node_ids()[0], MessageService(router)
            )

    def test_builds_tracks_over_time(self, tracking_world):
        scenario, sensors, sink, service = tracking_world
        tracking = TrackingService(scenario, sensors, sink, service)
        tracking.start()
        scenario.start()
        scenario.sim.run(until=120.0)
        assert tracking.tracks
        assert tracking.reports_received > 0

    def test_track_error_bounded(self, tracking_world):
        scenario, sensors, sink, service = tracking_world
        tracking = TrackingService(scenario, sensors, sink, service)
        tracking.start()
        scenario.start()
        scenario.sim.run(until=120.0)
        error = tracking.mean_track_error()
        assert error == error  # not NaN
        assert error < 200.0   # far better than random (region ~450m wide)

    def test_custody_fraction_in_unit_interval(self, tracking_world):
        scenario, sensors, sink, service = tracking_world
        tracking = TrackingService(scenario, sensors, sink, service)
        tracking.start()
        scenario.start()
        scenario.sim.run(until=60.0)
        assert 0.0 <= tracking.custody_fraction() <= 1.0

    def test_dead_sensors_stop_reporting(self, tracking_world):
        scenario, sensors, sink, service = tracking_world
        tracking = TrackingService(scenario, sensors, sink, service)
        tracking.start()
        scenario.start()
        for asset in sensors:
            scenario.network.fail_node(asset.node_id)
        scenario.sim.run(until=60.0)
        assert tracking.reports_sent == 0


class TestSurveillance:
    def _world(self, sim):
        scenario = (
            ScenarioBuilder(sim)
            .urban_grid(blocks=4, block_size_m=80.0)
            .population(n_blue=40, n_red=0, n_gray=0)
            .build()
        )
        sensors = [a for a in scenario.inventory.blue() if a.sensors]
        return scenario, sensors

    def test_coverage_in_unit_interval(self, sim):
        scenario, sensors = self._world(sim)
        service = SurveillanceService(scenario, sensors)
        assert 0.0 <= service.coverage() <= 1.0

    def test_losing_sensors_drops_coverage(self, sim):
        scenario, sensors = self._world(sim)
        service = SurveillanceService(scenario, sensors)
        before = service.coverage()
        for asset in sensors[: len(sensors) * 3 // 4]:
            scenario.network.fail_node(asset.node_id)
        assert service.coverage() <= before

    def test_series_recorded(self, sim):
        scenario, sensors = self._world(sim)
        service = SurveillanceService(scenario, sensors, sample_period_s=5.0)
        service.start()
        sim.run(until=30.0)
        series = sim.metrics.series("surveillance.coverage")
        assert len(series.values) >= 5

    def test_recovery_time_detection(self, sim):
        scenario, sensors = self._world(sim)
        service = SurveillanceService(scenario, sensors, sample_period_s=2.0)
        service.start()
        baseline = service.coverage()
        # Fail EVERY sensor (partial loss may not dent coverage when
        # long-range drones remain); restore them all at t=60.
        sim.call_at(
            20.0, lambda: [scenario.network.fail_node(a.node_id) for a in sensors]
        )
        sim.call_at(
            60.0,
            lambda: [scenario.network.restore_node(a.node_id) for a in sensors],
        )
        sim.run(until=120.0)
        recovery = service.recovery_time_s(20.0, baseline * 0.9)
        assert recovery is not None
        assert 38.0 <= recovery <= 44.0

    def test_disabled_sensors_excluded(self, sim):
        scenario, sensors = self._world(sim)
        service = SurveillanceService(scenario, sensors)
        before = service.coverage()
        for asset in sensors:
            for sensor in asset.sensors:
                sensor.enabled = False
        assert service.coverage() == 0.0 <= before

    def test_replace_sensors(self, sim):
        scenario, sensors = self._world(sim)
        service = SurveillanceService(scenario, sensors)
        service.replace_sensors(sensors[:1])
        assert len(service.sensor_assets) == 1
