from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import pytest

from fabcarbon import sweep_grid
from fabcarbon.svg import grouped_bar_chart, line_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def _elements(svg_text, tag, cls):
    root = ET.fromstring(svg_text)
    return [e for e in root.iter(f"{SVG_NS}{tag}") if e.get("class") == cls]


@pytest.fixture
def four_curves():
    return sweep_grid([0.3, 0.5, 0.7, 0.9], [0.25, 0.45], [0.25, 0.45])


class TestLineChart:
    def test_one_path_per_series(self, four_curves):
        svg = line_chart(four_curves)
        assert len(_elements(svg, "path", "series")) == 4

    def test_legend_matches_series_labels(self, four_curves):
        svg = line_chart(four_curves)
        legend = [e.text for e in _elements(svg, "text", "legend")]
        assert legend == [
            "A=0.25,E=0.25",
            "A=0.25,E=0.45",
            "A=0.45,E=0.25",
            "A=0.45,E=0.45",
        ]

    def test_axes_are_labeled(self, four_curves):
        svg = line_chart(four_curves)
        assert "alpha_e2o (dimensionless)" in svg
        assert "critical DSA count (dimensionless)" in svg

    def test_deterministic(self, four_curves):
        assert line_chart(four_curves) == line_chart(four_curves)

    def test_no_timestamp_or_randomness_markers(self, four_curves):
        svg = line_chart(four_curves)
        assert "date" not in svg.lower()

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            line_chart([])


class TestGroupedBarChart:
    def test_three_cases_by_four_alphas_gives_twelve_bars(self):
        groups = ["CASE-I", "CASE-II", "CASE-III"]
        series = [
            ("alpha=0.3", [9.77, 7.66, 6.59]),
            ("alpha=0.5", [6.32, 5.04, 4.21]),
            ("alpha=0.7", [4.84, 3.91, 3.39]),
            ("alpha=0.9", [4.01, 3.29, 2.93]),
        ]
        svg = grouped_bar_chart(groups, series)
        assert len(_elements(svg, "rect", "bar")) == 12

    def test_deterministic(self):
        args = (["a", "b"], [("s", [1.0, 2.0])])
        assert grouped_bar_chart(*args) == grouped_bar_chart(*args)

    def test_ragged_series_rejected(self):
        with pytest.raises(ValueError):
            grouped_bar_chart(["a", "b"], [("s", [1.0])])


    def test_all_zero_series_is_drawn_on_a_unit_scale(self):
        svg = grouped_bar_chart(["a", "b"], [("s", [0.0, 0.0])])
        assert [bar.get("height") for bar in _elements(svg, "rect", "bar")] == ["0.00", "0.00"]
        assert ">1</text>" in svg  # the top y tick

    def test_a_zero_bar_next_to_a_positive_one_has_no_height(self):
        svg = grouped_bar_chart(["a", "b"], [("s", [0.0, 2.0])])
        heights = [float(bar.get("height")) for bar in _elements(svg, "rect", "bar")]
        assert heights[0] == 0.0 and heights[1] > 0.0

    @pytest.mark.parametrize("bad", [-1.0, -0.5e-300, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_value_is_one_line_naming_the_series(self, bad):
        with pytest.raises(ValueError) as caught:
            grouped_bar_chart(["a", "b"], [("ok", [1.0, 2.0]), ("two\nlines", [bad, 2.0])])
        message = str(caught.value)
        assert message == f"series 'two\\nlines' has a value that is negative or not finite: {bad!r}"
        assert "\n" not in message

    def test_no_groups_rejected(self):
        with pytest.raises(ValueError, match="^at least one group required$"):
            grouped_bar_chart([], [("s", [])])
