"""Tests for resource allocation and controller teams."""

import numpy as np
import pytest

from repro.core.adaptation.controllers import (
    ControllerTeam,
    TrackingController,
    make_diverse_team,
    make_homogeneous_team,
)
from repro.core.adaptation.resources import (
    AdaptiveRateController,
    CoordinatedRateControllers,
)
from repro.errors import AdaptationError


class TestRateControl:
    def test_reduces_rate_when_over_setpoint(self):
        ctrl = AdaptiveRateController(setpoint_s=1.0, rate=2.0, gain=0.5)
        new_rate = ctrl.update(observed_delay_s=4.0)
        assert new_rate < 2.0

    def test_raises_rate_when_under_setpoint(self):
        ctrl = AdaptiveRateController(setpoint_s=1.0, rate=2.0, gain=0.5)
        assert ctrl.update(observed_delay_s=0.1) > 2.0

    def test_rate_bounds_respected(self):
        ctrl = AdaptiveRateController(rate=0.1, rate_bounds=(0.05, 1.0), gain=2.0)
        for _ in range(50):
            ctrl.update(0.0)  # keeps pushing the rate up
        assert ctrl.rate <= 1.0

    def test_uncoordinated_oscillates_more(self):
        def run(coordinated):
            controllers = [
                AdaptiveRateController(setpoint_s=1.0, rate=1.0, gain=1.5)
                for _ in range(5)
            ]
            shared = CoordinatedRateControllers(
                controllers, capacity=10.0, coordinated=coordinated
            )
            return shared.run(epochs=80)

        coord = run(True)
        uncoord = run(False)
        assert uncoord["delay_rmse"] > 2 * coord["delay_rmse"]
        assert uncoord["oscillation"] > coord["oscillation"]

    def test_empty_controllers_rejected(self):
        with pytest.raises(AdaptationError):
            CoordinatedRateControllers([])


class TestControllerTeams:
    def _drive(self, team, seed=3, regime_change=True):
        rng = np.random.default_rng(seed)
        for t in range(800):
            if regime_change and t >= 400:
                truth = float(np.sign(np.sin(t * 0.6)) * 10.0)  # fast square
            else:
                truth = float(np.sin(t * 0.01) * 10.0)          # slow drift
            team.step(truth + float(rng.normal(0, 1.0)), truth)
        return team.team_rmse

    def test_invalid_alpha(self):
        with pytest.raises(AdaptationError):
            TrackingController(0.0)

    def test_diverse_beats_homogeneous_across_regimes(self):
        homogeneous = self._drive(make_homogeneous_team(7, alpha=0.2))
        diverse = self._drive(make_diverse_team(7))
        assert diverse < homogeneous

    def test_imitation_moves_alphas(self):
        team = make_diverse_team(5, imitate=True, imitation_period=10)
        before = team.alphas()
        self._drive(team)
        assert team.alphas() != before

    def test_no_imitation_keeps_alphas(self):
        team = make_diverse_team(5, imitate=False)
        before = team.alphas()
        self._drive(team)
        assert team.alphas() == before

    def test_empty_team_rejected(self):
        with pytest.raises(AdaptationError):
            ControllerTeam([])

    def test_fused_estimate_is_member_mean(self):
        team = make_homogeneous_team(3, alpha=0.5, imitate=False)
        team.step(10.0, 10.0)
        assert team.fused_estimate() == pytest.approx(
            np.mean([c.estimate for c in team.controllers])
        )
