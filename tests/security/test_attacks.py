"""Tests for attack injection."""

import pytest

from repro import ScenarioBuilder
from repro.errors import SecurityError
from repro.security.attacks import (
    AttackSchedule,
    DataPoisoningAttack,
    JammingAttack,
    NodeCaptureAttack,
    NodeDestructionAttack,
    SybilAttack,
)
from repro.things.asset import Affiliation


@pytest.fixture
def scenario(sim):
    return (
        ScenarioBuilder(sim)
        .urban_grid(blocks=4)
        .population(n_blue=20, n_red=3, n_gray=5)
        .jammers(2)
        .build()
    )


class TestJamming:
    def test_requires_jammers(self, sim):
        sc = ScenarioBuilder(sim).urban_grid(blocks=3).population(5, 0, 0).build()
        with pytest.raises(SecurityError):
            JammingAttack(sc)

    def test_launch_activates_and_cease_reverts(self, scenario):
        attack = JammingAttack(scenario)
        attack.launch()
        assert all(j.active for j in scenario.jammers)
        assert scenario.environment.rf_interference == 1.0
        attack.cease()
        assert not any(j.active for j in scenario.jammers)
        assert scenario.environment.rf_interference == 0.0

    def test_schedule_timing(self, scenario):
        attack = JammingAttack(scenario)
        attack.schedule(start_s=10.0, duration_s=20.0)
        scenario.sim.run(until=5.0)
        assert not attack.active
        scenario.sim.run(until=15.0)
        assert attack.active
        scenario.sim.run(until=40.0)
        assert not attack.active

    def test_launch_idempotent(self, scenario):
        attack = JammingAttack(scenario)
        attack.launch()
        attack.launch()
        assert [r.category for r in scenario.sim.trace.records].count("attack.launch") == 1


class TestCapture:
    def test_capture_makes_hostile(self, scenario):
        victim = scenario.inventory.blue()[0]
        attack = NodeCaptureAttack(scenario, [victim.id])
        attack.launch()
        assert victim.captured
        assert victim.hostile
        attack.cease()
        assert not victim.hostile

    def test_capture_flips_human_source(self, scenario):
        humans = [a for a in scenario.inventory.blue() if a.human]
        if not humans:
            pytest.skip("no blue humans in this draw")
        victim = humans[0]
        NodeCaptureAttack(scenario, [victim.id]).launch()
        assert victim.human.malicious

    def test_empty_target_list_rejected(self, scenario):
        with pytest.raises(SecurityError):
            NodeCaptureAttack(scenario, [])


class TestDestruction:
    def test_destroy_takes_node_down(self, scenario):
        victim = scenario.inventory.blue()[0]
        NodeDestructionAttack(scenario, [victim.id]).launch()
        assert not victim.alive


class TestSybil:
    def test_creates_red_assets_claiming_gray_class(self, scenario):
        before = len(scenario.inventory)
        attack = SybilAttack(scenario, 5)
        attack.launch()
        assert len(scenario.inventory) == before + 5
        for asset in attack.created:
            assert asset.affiliation is Affiliation.RED
            assert asset.profile.device_class == "smartphone"

    def test_cease_removes_sybils_from_network(self, scenario):
        attack = SybilAttack(scenario, 3)
        attack.launch()
        attack.cease()
        assert all(not a.alive for a in attack.created)


class TestPoisoning:
    def test_displaces_only_compromised_reports(self, scenario):
        import numpy as np

        from repro.things.capabilities import SensingModality
        from repro.things.sensors import Detection
        from repro.util.geometry import Point

        rng = np.random.default_rng(0)
        attack = DataPoisoningAttack(scenario, [1], displacement_m=100.0)
        attack.launch()
        detections = [
            Detection(1, SensingModality.CAMERA, 9, 0.0, Point(0, 0), 0.9),
            Detection(2, SensingModality.CAMERA, 9, 0.0, Point(0, 0), 0.9),
        ]
        out = attack.poison(detections, rng)
        assert out[0].measured_position.distance_to(Point(0, 0)) == pytest.approx(
            100.0
        )
        assert out[1].measured_position == Point(0, 0)

    def test_inactive_passthrough(self, scenario):
        import numpy as np

        attack = DataPoisoningAttack(scenario, [1])
        assert attack.poison([], np.random.default_rng(0)) == []


class TestSchedule:
    def test_schedule_tracks_entries(self, scenario):
        schedule = AttackSchedule(scenario)
        attack = schedule.add(JammingAttack(scenario), start_s=5.0)
        scenario.sim.run(until=10.0)
        assert attack.active
        assert schedule.active_attacks() == ["jamming"]


class TestAttrition:
    def test_losses_accumulate_over_time(self, scenario):
        from repro.security.attacks import AttritionProcess

        attrition = AttritionProcess(scenario, mtbf_s=50.0)
        attrition.launch()
        scenario.sim.run(until=500.0)
        # With MTBF 50 s over 500 s, essentially everything targeted dies.
        assert attrition.loss_rate() > 0.9

    def test_cease_stops_further_losses(self, scenario):
        from repro.security.attacks import AttritionProcess

        attrition = AttritionProcess(scenario, mtbf_s=100.0)
        attrition.schedule(start_s=0.0, duration_s=20.0)
        scenario.sim.run(until=1000.0)
        # Only failures drawn inside the 20 s window land.
        assert 0.0 <= attrition.loss_rate() < 0.5

    def test_invalid_parameters(self, scenario):
        import pytest as _pytest

        from repro.errors import SecurityError
        from repro.security.attacks import AttritionProcess

        with _pytest.raises(SecurityError):
            AttritionProcess(scenario, mtbf_s=0.0)
        with _pytest.raises(SecurityError):
            AttritionProcess(scenario, asset_ids=[])
