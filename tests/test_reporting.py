"""Tests for the text reporting helpers."""

import pytest

from repro.reporting import (
    format_percent,
    format_series,
    format_table,
)


class TestFormatPercent:
    def test_positive_sign(self):
        assert format_percent(0.12) == "+12.0%"

    def test_negative_sign(self):
        assert format_percent(-0.055) == "-5.5%"

    def test_decimals(self):
        assert format_percent(0.12345, decimals=2) == "+12.35%"


class TestFormatTable:
    def test_headers_and_rows_align(self):
        text = format_table(["metric", "value"], [["throughput", "+12%"]])
        lines = text.splitlines()
        assert len(lines) == 3
        assert "metric" in lines[0]
        assert "throughput" in lines[2]

    def test_row_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])

    def test_empty_headers_raise(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_wide_cells_extend_columns(self):
        text = format_table(["h"], [["a-very-long-cell-value"]])
        assert "a-very-long-cell-value" in text


class TestFormatSeries:
    def test_sorted_by_hour(self):
        text = format_series({20: 0.5, 3: 1.0})
        assert text.index("03:") < text.index("20:")

    def test_decimals(self):
        assert "03:1.00" in format_series({3: 1.0}, decimals=2)
