"""Unit tests for paper-style reporting."""

import pytest

from repro.report import (
    Comparison,
    Table,
    area_table,
    frequency_table,
    shape_verdict,
)


class TestTable:
    def test_render_alignment(self):
        table = Table("T", ["a", "bb"])
        table.add_row("xxx", 1)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "xxx" in text and "bb" in text

    def test_row_arity_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_area_table_layout(self):
        table = area_table("Table 1", [("1/2", 130, 66, 77)])
        text = table.render()
        assert "P/C" in text and "Slices" in text
        assert "1/2" in text and "66" in text

    def test_frequency_table_handles_missing_paper_value(self):
        table = frequency_table("freq", [("1/2", 160.7, 125.0, None)])
        assert "n/a" in table.render()


class TestComparison:
    def test_render(self):
        comp = Comparison("E1", "FF count", "66", "66", "match")
        assert "paper 66" in comp.render()


class TestShapeVerdict:
    def test_exact_match(self):
        assert shape_verdict([158, 130, 125], [158, 130, 125]) == "match"

    def test_close_match(self):
        assert shape_verdict([158, 130, 125], [160, 133, 120]) == "match"

    def test_shape_match_when_offset(self):
        assert (
            shape_verdict([158, 130, 125], [200, 170, 160]) == "shape-match"
        )

    def test_mismatch_on_direction(self):
        assert shape_verdict([158, 130, 125], [120, 130, 140]) == "mismatch"

    def test_invalid_series(self):
        with pytest.raises(ValueError):
            shape_verdict([1, 2], [1])
        with pytest.raises(ValueError):
            shape_verdict([], [])
