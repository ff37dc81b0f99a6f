"""Tests for result tables."""

import pytest

from repro.util.tables import ResultTable


class TestResultTable:
    def test_requires_columns(self):
        with pytest.raises(ValueError):
            ResultTable("t", [])

    def test_add_and_column(self):
        t = ResultTable("t", ["n", "v"])
        t.add_row(n=1, v=0.5)
        t.add_row(n=2, v=0.75)
        assert [row["n"] for row in t.rows] == [1, 2]
        assert len(t) == 2

    def test_unknown_column_rejected(self):
        t = ResultTable("t", ["n"])
        with pytest.raises(KeyError):
            t.add_row(bogus=1)

    def test_missing_column_blank(self):
        t = ResultTable("t", ["a", "b"])
        t.add_row(a=1)
        assert t.rows[0]["b"] == ""

    def test_render_contains_title_and_values(self):
        t = ResultTable("my experiment", ["metric"])
        t.add_row(metric=3.14159)
        text = t.render()
        assert "my experiment" in text
        assert "3.142" in text

    def test_float_formatting_extremes(self):
        t = ResultTable("t", ["x"])
        t.add_row(x=1.23e-9)
        t.add_row(x=float("nan"))
        text = t.render()
        assert "1.230e-09" in text
        assert "nan" in text
