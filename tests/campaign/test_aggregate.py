"""Aggregation: grouping, CI columns, passthrough, NaN handling."""

import math

import pytest

from repro.campaign import CampaignRunner, SweepSpec, aggregate
from repro.campaign.runner import CampaignResult, TaskOutcome
from repro.util.stats import mean_confidence_interval

from tests.campaign.taskfns import affine_noise_task


def _result_from(spec, metric_rows):
    """Hand-build a CampaignResult: metric_rows[i] is task i's result dict."""
    tasks = spec.tasks()
    outcomes = [
        TaskOutcome(task, row, False, 1, 0.0)
        for task, row in zip(tasks, metric_rows)
    ]
    return CampaignResult(spec, outcomes, 0.0, 1)


class TestAggregate:
    def test_one_row_per_sweep_point_mean_over_replicates(self):
        spec = SweepSpec("t", grid={"a": (1, 2)}, replicates=2)
        result = _result_from(
            spec, [{"m": 1.0}, {"m": 3.0}, {"m": 10.0}, {"m": 20.0}]
        )
        table = aggregate(result, metrics=["m"])
        assert table.columns == ["a", "m"]
        assert [row["m"] for row in table.rows] == [2.0, 15.0]

    def test_ci_columns_match_stats_helper(self):
        spec = SweepSpec("t", grid={"a": (1,)}, replicates=3)
        values = [1.0, 2.0, 4.0]
        result = _result_from(spec, [{"m": v} for v in values])
        table = aggregate(result, metrics=["m"], ci=True)
        mean, half = mean_confidence_interval(values)
        row = table.to_dicts()[0]
        assert row["m"] == pytest.approx(mean)
        assert row["m_ci95"] == pytest.approx(half)
        assert row["n"] == 3

    def test_constant_non_float_passes_through(self):
        spec = SweepSpec("t", grid={"a": (1,)}, replicates=2)
        result = _result_from(
            spec,
            [{"label": "greedy", "flag": True}, {"label": "greedy", "flag": True}],
        )
        table = aggregate(result, metrics=["label", "flag"])
        row = table.to_dicts()[0]
        assert row["label"] == "greedy"
        assert row["flag"] is True

    def test_varying_bools_average_to_a_rate(self):
        spec = SweepSpec("t", grid={"a": (1,)}, replicates=4)
        result = _result_from(spec, [{"ok": v} for v in (True, True, True, False)])
        assert [row["ok"] for row in aggregate(result, metrics=["ok"]).rows] == [0.75]

    def test_nan_replicates_are_omitted_not_poisonous(self):
        spec = SweepSpec("t", grid={"a": (1,)}, replicates=3)
        result = _result_from(
            spec, [{"m": 2.0}, {"m": math.nan}, {"m": 4.0}]
        )
        assert [row["m"] for row in aggregate(result, metrics=["m"]).rows] == [3.0]

    def test_all_nan_stays_nan(self):
        spec = SweepSpec("t", grid={"a": (1,)}, replicates=2)
        result = _result_from(spec, [{"m": math.nan}, {"m": math.nan}])
        assert math.isnan([row["m"] for row in aggregate(result, metrics=["m"]).rows][0])

    def test_default_metrics_are_numeric_keys_in_order(self):
        spec = SweepSpec("t", grid={"a": (1,)})
        result = _result_from(spec, [{"x": 1.0, "name": "s", "y": 2}])
        table = aggregate(result)
        assert table.columns == ["a", "x", "y"]

    def test_string_metrics_must_be_explicit(self):
        spec = SweepSpec("t", grid={"a": (1,)})
        result = _result_from(spec, [{"fingerprint": "abc", "m": 1.0}])
        table = aggregate(result, metrics=["m", "fingerprint"])
        assert table.to_dicts()[0]["fingerprint"] == "abc"

    def test_param_cols_order_respected(self):
        spec = SweepSpec("t", grid={"a": (1,), "b": (2,)})
        result = _result_from(spec, [{"m": 1.0}])
        table = aggregate(result, metrics=["m"], param_cols=["b", "a"])
        assert table.columns == ["b", "a", "m"]

    def test_end_to_end_through_runner(self):
        spec = SweepSpec(
            "t", grid={"gain": (1.0, 2.0)}, fixed={"offset": 1.0}, replicates=3
        )
        table = CampaignRunner(affine_noise_task).run(spec).table(ci=True)
        assert len(table) == 2
        assert "value_ci95" in table.columns
