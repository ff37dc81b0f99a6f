"""Tests for assets, inventory, actuators, humans, energy."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.channel import Channel
from repro.net.node import Network
from repro.sim import Simulator
from repro.things.actuators import ActuationRequest, Actuator, SafetyInterlock
from repro.things.asset import Affiliation, AssetInventory
from repro.things.capabilities import ActuationType, SensingModality, make_profile
from repro.things.energy import Battery
from repro.things.humans import HumanSource
from repro.util.geometry import Point


@pytest.fixture
def world():
    sim = Simulator(seed=5)
    net = Network(sim, Channel(shadowing_sigma_db=0, fading_sigma_db=0, seed=5))
    return sim, net, AssetInventory(net)


class TestAssetCreation:
    def test_create_binds_node(self, world):
        sim, net, inv = world
        asset = inv.create(make_profile("drone"), Point(10, 10))
        assert asset.node_id in net.nodes
        assert asset.position == Point(10, 10)
        assert asset.alive

    def test_battery_death_takes_node_down(self, world):
        sim, net, inv = world
        asset = inv.create(make_profile("occupancy_tag"), Point(0, 0))
        asset.battery.drain_radio(bits_tx=1e12, bits_rx=0)
        assert asset.battery.depleted
        assert not asset.node.up
        assert not asset.alive

    def test_sensor_attachment_respects_profile(self, world):
        sim, net, inv = world
        tag = inv.create(make_profile("occupancy_tag"), Point(0, 0))
        tag.add_sensor(SensingModality.OCCUPANCY)
        with pytest.raises(ConfigurationError):
            tag.add_sensor(SensingModality.RADAR)

    def test_default_sensors_cover_profile(self, world):
        sim, net, inv = world
        drone = inv.create(make_profile("drone"), Point(0, 0))
        sensors = drone.add_default_sensors()
        assert {s.modality for s in sensors} == set(drone.profile.sensing)

    def test_actuator_attachment_respects_profile(self, world):
        sim, net, inv = world
        charge = inv.create(make_profile("demolition_charge"), Point(0, 0))
        charge.add_actuator(ActuationType.DEMOLITION)
        with pytest.raises(ConfigurationError):
            charge.add_actuator(ActuationType.VEHICLE)

    def test_hostility(self, world):
        sim, net, inv = world
        blue = inv.create(make_profile("drone"), Point(0, 0), Affiliation.BLUE)
        red = inv.create(make_profile("drone"), Point(0, 0), Affiliation.RED)
        assert not blue.hostile
        assert red.hostile
        blue.captured = True
        assert blue.hostile

    def test_duty_cycle_bounds(self, world):
        sim, net, inv = world
        with pytest.raises(ConfigurationError):
            inv.create(make_profile("drone"), Point(0, 0), duty_cycle=0.0)

    def test_is_awake_statistics(self, world):
        sim, net, inv = world
        asset = inv.create(make_profile("smartphone"), Point(0, 0), duty_cycle=0.3)
        rng = np.random.default_rng(0)
        awake = sum(asset.is_awake(rng) for _ in range(2000))
        assert 0.25 < awake / 2000 < 0.35


class TestInventoryQueries:
    def test_select_by_modality(self, world):
        sim, net, inv = world
        inv.create(make_profile("camera_pole"), Point(0, 0))
        inv.create(make_profile("ground_sensor"), Point(0, 0))
        cams = inv.select(modality=SensingModality.CAMERA)
        assert len(cams) == 1
        assert cams[0].profile.device_class == "camera_pole"

    def test_select_by_compute(self, world):
        sim, net, inv = world
        inv.create(make_profile("occupancy_tag"), Point(0, 0))
        inv.create(make_profile("edge_cloud"), Point(0, 0))
        big = inv.select(min_compute_flops=1e12)
        assert [a.profile.device_class for a in big] == ["edge_cloud"]

    def test_select_alive_only(self, world):
        sim, net, inv = world
        a = inv.create(make_profile("drone"), Point(0, 0))
        net.fail_node(a.node_id)
        assert inv.select() == []
        assert len(inv.select(alive_only=False)) == 1

    def test_affiliation_counts(self, world):
        sim, net, inv = world
        inv.create(make_profile("drone"), Point(0, 0), Affiliation.BLUE)
        inv.create(make_profile("smartphone"), Point(0, 0), Affiliation.GRAY)
        inv.create(make_profile("smartphone"), Point(0, 0), Affiliation.RED)
        counts = inv.counts()
        assert counts == {"blue": 1, "red": 1, "gray": 1}

    def test_by_node_lookup(self, world):
        sim, net, inv = world
        a = inv.create(make_profile("drone"), Point(0, 0))
        assert inv.by_node(a.node_id) is a
        assert inv.by_node(9999) is None


class TestBattery:
    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            Battery(0.0)

    def test_drain_accounting(self):
        b = Battery(1.0, tx_j_per_bit=0.001, rx_j_per_bit=0.0005)
        b.drain_radio(bits_tx=100, bits_rx=100)
        assert b.consumed_j() == pytest.approx(0.15)

    def test_depletion_callback_fires_once(self):
        calls = []
        b = Battery(1.0, tx_j_per_bit=1.0, on_depleted=lambda: calls.append(1))
        b.drain_radio(10, 0)
        b.drain_radio(10, 0)
        assert calls == [1]
        assert b.remaining_j == 0.0

    def test_fraction_remaining(self):
        b = Battery(10.0, sense_j_per_sample=1.0)
        b.drain_sense(5)
        assert b.fraction_remaining == pytest.approx(0.5)

    def test_idle_drain(self):
        b = Battery(10.0, idle_w=1.0)
        b.drain_idle(4.0)
        assert b.remaining_j == pytest.approx(6.0)


class TestHumanSource:
    def test_reliable_source_mostly_truthful(self):
        src = HumanSource(1, reliability=0.9, report_rate=1.0)
        rng = np.random.default_rng(0)
        claims = [src.report(1, True, rng) for _ in range(1000)]
        true_count = sum(1 for c in claims if c.value)
        assert 850 < true_count < 950

    def test_malicious_source_inverts(self):
        src = HumanSource(1, reliability=0.9, report_rate=1.0, malicious=True)
        rng = np.random.default_rng(0)
        claims = [src.report(1, True, rng) for _ in range(1000)]
        false_count = sum(1 for c in claims if not c.value)
        assert false_count > 850

    def test_report_rate_skips(self):
        src = HumanSource(1, report_rate=0.2)
        rng = np.random.default_rng(0)
        reported = sum(
            1 for _ in range(1000) if src.report(1, True, rng) is not None
        )
        assert 150 < reported < 250

    def test_report_all_batches(self):
        src = HumanSource(1, report_rate=1.0)
        rng = np.random.default_rng(0)
        claims = src.report_all({1: True, 2: False, 3: True}, rng)
        assert [c.event_id for c in claims] == [1, 2, 3]

    def test_invalid_reliability(self):
        with pytest.raises(ConfigurationError):
            HumanSource(1, reliability=1.5)


class TestActuators:
    def test_lethal_requires_human(self):
        act = Actuator(1, ActuationType.DEMOLITION)
        req = ActuationRequest(kind=ActuationType.DEMOLITION, human_decision=False)
        assert not act.fire(req)
        assert act.blocked
        ok = ActuationRequest(kind=ActuationType.DEMOLITION, human_decision=True)
        assert act.fire(ok)

    def test_nonlethal_no_human_needed(self):
        act = Actuator(1, ActuationType.ALARM)
        assert act.fire(ActuationRequest(kind=ActuationType.ALARM))

    def test_interlock_veto_blocks(self):
        interlock = SafetyInterlock()
        interlock.add_guard(
            "humans_present", lambda req: "humans in blast radius"
        )
        act = Actuator(1, ActuationType.DEMOLITION, interlock=interlock)
        req = ActuationRequest(kind=ActuationType.DEMOLITION, human_decision=True)
        assert not act.fire(req)
        assert interlock.vetoes

    def test_guard_order_first_veto_wins(self):
        interlock = SafetyInterlock()
        interlock.add_guard("first", lambda r: "no")
        interlock.add_guard("second", lambda r: "also no")
        veto = interlock.check(ActuationRequest(kind=ActuationType.ALARM))
        assert veto.startswith("first")

    def test_wrong_kind_raises(self):
        act = Actuator(1, ActuationType.ALARM)
        with pytest.raises(ConfigurationError):
            act.fire(ActuationRequest(kind=ActuationType.DOOR))
