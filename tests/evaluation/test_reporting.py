"""Tests for the plain-text reporting helpers."""

from __future__ import annotations

import pytest

from repro.evaluation.reporting import format_table, normalize_to


class TestFormatTable:
    def test_renders_headers_and_rows(self):
        text = format_table(["name", "value"], [["a", 1.0], ["b", 2.5]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "value" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert "a" in lines[2] and "1.000" in lines[2]
        assert "b" in lines[3] and "2.500" in lines[3]

    def test_columns_are_aligned(self):
        text = format_table(["col", "x"], [["long-entry", 1.0], ["s", 2.0]])
        lines = text.splitlines()
        assert lines[2].index("1.000") == lines[3].index("2.000")

    def test_custom_float_format(self):
        text = format_table(["v"], [[1.23456]], float_format="{:.1f}")
        assert "1.2" in text
        assert "1.2345" not in text

    def test_non_float_values_use_str(self):
        text = format_table(["a", "b"], [[7, None]])
        assert "7" in text
        assert "None" in text

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one-cell"]])

    def test_empty_rows_render_headers_only(self):
        text = format_table(["a", "b"], [])
        assert len(text.splitlines()) == 2


class TestNormalizeTo:
    def test_reference_becomes_one(self):
        normalized = normalize_to({"baseline": 4.0, "asp": 6.0, "spikedyn": 2.0},
                                  "baseline")
        assert normalized["baseline"] == 1.0
        assert normalized["asp"] == pytest.approx(1.5)
        assert normalized["spikedyn"] == pytest.approx(0.5)

    def test_missing_reference_rejected(self):
        with pytest.raises(KeyError):
            normalize_to({"a": 1.0}, "missing")

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroDivisionError):
            normalize_to({"a": 0.0, "b": 1.0}, "a")
