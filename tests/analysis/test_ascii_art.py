"""Tests for the ASCII rendering helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.ascii_art import ascii_bar_chart, ascii_heatmap


class TestAsciiBarChart:
    def test_renders_every_label(self):
        chart = ascii_bar_chart({"baseline": 1.0, "asp": 2.5, "spikedyn": 0.7})
        assert "baseline" in chart and "asp" in chart and "spikedyn" in chart
        assert chart.count("\n") == 2

    def test_largest_value_spans_the_width(self):
        chart = ascii_bar_chart({"a": 1.0, "b": 2.0}, width=10)
        lines = chart.splitlines()
        assert "#" * 10 in lines[1]
        assert "#" * 5 in lines[0]

    def test_zero_values_render_empty_bars(self):
        chart = ascii_bar_chart({"a": 0.0, "b": 0.0})
        assert "#" not in chart

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            ascii_bar_chart({})
        with pytest.raises(ValueError):
            ascii_bar_chart({"a": -1.0})
        with pytest.raises(ValueError):
            ascii_bar_chart({"a": 1.0}, width=0)


class TestAsciiHeatmap:
    def test_shape_of_the_rendering(self):
        matrix = np.arange(12, dtype=float).reshape(3, 4)
        text = ascii_heatmap(matrix)
        lines = text.splitlines()
        assert len(lines) == 3
        assert all(len(line) == 4 for line in lines)

    def test_extremes_use_the_ramp_ends(self):
        matrix = np.array([[0.0, 10.0]])
        text = ascii_heatmap(matrix, ramp=" @")
        assert text == " @"

    def test_row_and_column_labels(self):
        matrix = np.eye(2)
        text = ascii_heatmap(matrix, row_labels=["r0", "r1"],
                             column_labels=["c0", "c1"])
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("r0")

    def test_all_zero_matrix(self):
        text = ascii_heatmap(np.zeros((2, 2)))
        assert set(text.replace("\n", "")) == {" "}

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            ascii_heatmap(np.zeros(3))
        with pytest.raises(ValueError):
            ascii_heatmap(np.array([[-1.0]]))
        with pytest.raises(ValueError):
            ascii_heatmap(np.ones((2, 2)), row_labels=["only-one"])
        with pytest.raises(ValueError):
            ascii_heatmap(np.ones((2, 2)), ramp="x")
