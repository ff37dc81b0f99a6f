"""Tests for statistics helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import (
    RunningStats,
    mean_confidence_interval,
    summarize,
)

samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=80
)


class TestRunningStats:
    def test_empty(self):
        rs = RunningStats()
        assert rs.count == 0
        assert math.isnan(rs.mean)

    def test_single(self):
        rs = RunningStats()
        rs.add(4.0)
        assert rs.mean == 4.0
        assert rs.variance == 0.0

    @given(samples)
    def test_matches_numpy(self, values):
        rs = RunningStats()
        rs.extend(values)
        assert rs.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-9)
        assert rs.variance == pytest.approx(np.var(values, ddof=1), rel=1e-6, abs=1e-6)
        assert rs.min == min(values)
        assert rs.max == max(values)



class TestConfidenceInterval:
    def test_empty(self):
        mean, hw = mean_confidence_interval([])
        assert math.isnan(mean)

    def test_single_value(self):
        mean, hw = mean_confidence_interval([5.0])
        assert mean == 5.0
        assert hw == 0.0

    def test_constant_sample_zero_width(self):
        mean, hw = mean_confidence_interval([2.0] * 10)
        assert mean == 2.0
        assert hw == pytest.approx(0.0)

    def test_width_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = rng.normal(0, 1, 10)
        large = rng.normal(0, 1, 1000)
        _, hw_small = mean_confidence_interval(small)
        _, hw_large = mean_confidence_interval(large)
        assert hw_large < hw_small


class TestSummaries:
    def test_summarize_keys(self):
        s = summarize([1.0, 2.0, 3.0])
        assert set(s) == {"mean", "std", "min", "p50", "p95", "max"}
        assert s["mean"] == pytest.approx(2.0)

    def test_summarize_empty_all_nan(self):
        s = summarize([])
        assert all(math.isnan(v) for v in s.values())
