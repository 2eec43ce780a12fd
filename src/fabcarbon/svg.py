"""Static SVG charts for sweep curves and grouped bars.

Self-contained documents, no scripts, no timestamps: rendering the same
input twice yields byte-identical output. Coordinates are formatted to two
decimals to keep the files stable across platforms.
"""

from __future__ import annotations

from html import escape
from typing import Sequence

from .engine import SweepResult
from .report import series_label

_WIDTH = 640
_HEIGHT = 400
_MARGIN_LEFT = 62
_MARGIN_RIGHT = 150
_MARGIN_TOP = 32
_MARGIN_BOTTOM = 48

_CDC_LABEL = "critical DSA count (dimensionless)"
_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#9a7d0a", "#6c3483", "#117a65", "#a04000", "#5d6d7e")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_values(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = span / (count - 1)
    return [lo + i * step for i in range(count)]


class _Canvas:
    def __init__(self):
        self.parts: list[str] = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
            f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        ]

    def add(self, element: str) -> None:
        self.parts.append(element)

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _plot_area() -> tuple[float, float, float, float]:
    return (
        _MARGIN_LEFT,
        _MARGIN_TOP,
        _WIDTH - _MARGIN_RIGHT,
        _HEIGHT - _MARGIN_BOTTOM,
    )


def _axes(canvas: _Canvas, x_label: str, y_label: str) -> None:
    x0, y0, x1, y1 = _plot_area()
    canvas.add(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y1)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" stroke="black"/>'
    )
    canvas.add(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" stroke="black"/>'
    )
    canvas.add(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_HEIGHT - 10}" text-anchor="middle">'
        f"{escape(x_label, quote=False)}</text>"
    )
    canvas.add(
        f'<text x="16" y="{_fmt((y0 + y1) / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt((y0 + y1) / 2)})">{escape(y_label, quote=False)}</text>'
    )


def _legend(canvas: _Canvas, labels: Sequence[str]) -> None:
    x = _WIDTH - _MARGIN_RIGHT + 14
    for i, label in enumerate(labels):
        y = _MARGIN_TOP + 14 + i * 18
        color = _PALETTE[i % len(_PALETTE)]
        canvas.add(f'<rect x="{x}" y="{y - 9}" width="10" height="10" fill="{color}"/>')
        canvas.add(f'<text class="legend" x="{x + 16}" y="{y}">{escape(label, quote=False)}</text>')


def line_chart(series: Sequence[SweepResult]) -> str:
    """One path per sweep curve, legend entries matching series labels."""
    if not series:
        raise ValueError("at least one series required")
    canvas = _Canvas()
    x0, y0, x1, y1 = _plot_area()
    xs = [p for s in series for p in s.parameters]
    ys = [v for s in series for v in s.values]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.05
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def sx(v: float) -> float:
        return x0 + (v - x_lo) / (x_hi - x_lo) * (x1 - x0)

    def sy(v: float) -> float:
        return y1 - (v - y_lo) / (y_hi - y_lo) * (y1 - y0)

    _axes(canvas, "alpha_e2o (dimensionless)", _CDC_LABEL)
    for tick in _tick_values(x_lo, x_hi):
        canvas.add(
            f'<text x="{_fmt(sx(tick))}" y="{_fmt(y1 + 16)}" text-anchor="middle">{tick:.2g}</text>'
        )
    for tick in _tick_values(y_lo, y_hi):
        canvas.add(
            f'<text x="{_fmt(x0 - 6)}" y="{_fmt(sy(tick) + 4)}" text-anchor="end">{tick:.3g}</text>'
        )
    labels = []
    for i, sweep in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        first_p, first_v = sweep.samples[0]
        path = f"M {_fmt(sx(first_p))},{_fmt(sy(first_v))}"
        for p, v in sweep.samples[1:]:
            path += f" L {_fmt(sx(p))},{_fmt(sy(v))}"
        canvas.add(
            f'<path class="series" d="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        labels.append(series_label(sweep))
    _legend(canvas, labels)
    return canvas.finish()


def grouped_bar_chart(
    group_labels: Sequence[str],
    series: Sequence[tuple[str, Sequence[float]]],
    *,
    y_label: str = _CDC_LABEL,
    x_label: str = "scenario",
) -> str:
    """One rect per value, grouped by position; legend names the series."""
    if not series:
        raise ValueError("at least one series required")
    for label, values in series:
        if len(values) != len(group_labels):
            raise ValueError(f"series {label!r} has {len(values)} values for {len(group_labels)} groups")
    canvas = _Canvas()
    x0, y0, x1, y1 = _plot_area()
    y_hi = max(v for _, values in series for v in values) * 1.1
    group_width = (x1 - x0) / len(group_labels)
    bar_width = group_width * 0.8 / len(series)

    def sy(v: float) -> float:
        return y1 - v / y_hi * (y1 - y0)

    _axes(canvas, x_label, y_label)
    for tick in _tick_values(0.0, y_hi):
        canvas.add(
            f'<text x="{_fmt(x0 - 6)}" y="{_fmt(sy(tick) + 4)}" text-anchor="end">{tick:.3g}</text>'
        )
    for g, group in enumerate(group_labels):
        base = x0 + g * group_width + group_width * 0.1
        canvas.add(
            f'<text x="{_fmt(x0 + (g + 0.5) * group_width)}" y="{_fmt(y1 + 16)}" '
            f'text-anchor="middle">{escape(str(group), quote=False)}</text>'
        )
        for s, (_, values) in enumerate(series):
            color = _PALETTE[s % len(_PALETTE)]
            height = y1 - sy(values[g])
            canvas.add(
                f'<rect class="bar" x="{_fmt(base + s * bar_width)}" y="{_fmt(sy(values[g]))}" '
                f'width="{_fmt(bar_width)}" height="{_fmt(height)}" fill="{color}"/>'
            )
    _legend(canvas, [label for label, _ in series])
    return canvas.finish()

