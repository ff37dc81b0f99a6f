"""Tests for scenario construction."""

import pytest

from repro import ScenarioBuilder, Simulator
from repro.errors import ConfigurationError
from repro.scenarios.urban import UrbanGrid


class TestUrbanGrid:
    def test_region_size(self):
        grid = UrbanGrid(blocks=5, block_size_m=100.0)
        assert grid.region.width == 500.0

    def test_intersections_count(self):
        grid = UrbanGrid(blocks=3)
        assert len(grid.intersections()) == 16

    def test_channel_density_scaling(self):
        grid = UrbanGrid()
        open_ch = grid.channel(density=0.0)
        dense_ch = grid.channel(density=1.0)
        assert dense_ch.path_loss_exponent > open_ch.path_loss_exponent
        assert dense_ch.shadowing_sigma_db > open_ch.shadowing_sigma_db

    def test_bad_density(self):
        with pytest.raises(ConfigurationError):
            UrbanGrid().channel(density=1.5)

    def test_street_points_on_grid(self):
        import numpy as np

        grid = UrbanGrid(blocks=4, block_size_m=100.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = grid.random_street_point(rng)
            assert grid.region.contains(p)
            assert p.x % 100 == 0 or p.y % 100 == 0


class TestScenarioBuilder:
    def test_population_counts(self, sim):
        sc = (
            ScenarioBuilder(sim)
            .urban_grid(blocks=4)
            .population(n_blue=20, n_red=4, n_gray=6)
            .build()
        )
        counts = sc.inventory.counts()
        assert counts == {"blue": 20, "red": 4, "gray": 6}
        assert len(sc.network.nodes) == 30

    def test_red_sources_are_malicious(self, sim):
        sc = (
            ScenarioBuilder(sim)
            .urban_grid(blocks=4)
            .population(n_blue=0, n_red=20, n_gray=0)
            .build()
        )
        humans = [a.human for a in sc.inventory.all() if a.human is not None]
        assert humans  # red mix includes smartphones
        assert all(h.malicious for h in humans)

    def test_assets_inside_region(self, sim):
        sc = ScenarioBuilder(sim).urban_grid(blocks=3).population(30, 3, 5).build()
        for asset in sc.inventory:
            assert sc.region.contains(asset.position)

    def test_default_sensors_attached(self, sim):
        sc = ScenarioBuilder(sim).urban_grid(blocks=3).population(20, 0, 0).build()
        sensed = [a for a in sc.inventory if a.profile.sensing]
        assert sensed
        assert all(a.sensors for a in sensed)

    def test_jammers_start_inactive(self, sim):
        sc = (
            ScenarioBuilder(sim)
            .urban_grid(blocks=3)
            .population(10, 0, 0)
            .jammers(3)
            .build()
        )
        assert len(sc.jammers) == 3
        assert all(not j.active for j in sc.jammers)

    def test_targets_and_events(self, sim):
        sc = (
            ScenarioBuilder(sim)
            .urban_grid(blocks=3)
            .population(10, 0, 0)
            .targets(5)
            .events(7)
            .build()
        )
        assert len(sc.targets) == 5
        assert len(sc.events) == 7

    def test_negative_population_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            ScenarioBuilder(sim).population(n_blue=-1)

    def test_deterministic_given_seed(self):
        def fingerprint(seed):
            sim = Simulator(seed=seed)
            sc = ScenarioBuilder(sim).urban_grid(blocks=4).population(25, 3, 5).build()
            return [
                (a.profile.device_class, round(a.position.x, 6), round(a.position.y, 6))
                for a in sc.inventory
            ]

        assert fingerprint(9) == fingerprint(9)
        assert fingerprint(9) != fingerprint(10)

    def test_start_runs_dynamics(self, sim):
        sc = (
            ScenarioBuilder(sim)
            .urban_grid(blocks=3)
            .population(10, 0, 0)
            .targets(2)
            .build()
        )
        sc.start()
        before = dict(sc.targets.positions())
        sim.run(until=60.0)
        after = sc.targets.positions()
        assert any(before[k] != after[k] for k in before)


class TestWorkloads:
    def test_event_field_refresh_partial(self, sim):
        from repro.scenarios.workloads import EventField
        from repro.util.geometry import Region

        field = EventField(sim, Region(0, 0, 100, 100), n_events=50)
        before = dict(field.truth)
        field.refresh(fraction=0.0)
        assert field.truth == before
