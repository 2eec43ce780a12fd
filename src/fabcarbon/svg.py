"""Static SVG charts for sweep curves and grouped bars.

Self-contained documents, no scripts, no timestamps: rendering the same
input twice yields byte-identical output. Coordinates are formatted to two
decimals to keep the files stable across platforms.

Both charts share one frame: `_frame` opens the document with its axes,
axis labels and y ticks, each chart adds its x labels and marks, and
`_close` appends the legend.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from html import escape

from .engine import SweepResult

_WIDTH = 640
_HEIGHT = 400
# The plot area's corners: margins of 62 (left), 150 (right), 32 (top) and 48 (bottom).
_X0, _Y0, _X1, _Y1 = 62, 32, _WIDTH - 150, _HEIGHT - 48

_CDC_LABEL = "critical DSA count (dimensionless)"
_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#9a7d0a", "#6c3483", "#117a65", "#a04000", "#5d6d7e")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _tick_values(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _frame(
    x_label: str, y_label: str, y_hi: float, x_ticks: Sequence[str] = ()
) -> tuple[list[str], Callable[[float], float]]:
    """The document's head, axes, axis labels, `x_ticks` and y ticks from 0 to `y_hi`, and the y scale."""

    def sy(v: float) -> float:
        return _Y1 - v / y_hi * (_Y1 - _Y0)

    mid_y = _fmt((_Y0 + _Y1) / 2)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_fmt(_X0)}" y1="{_fmt(_Y1)}" x2="{_fmt(_X1)}" y2="{_fmt(_Y1)}" stroke="black"/>',
        f'<line x1="{_fmt(_X0)}" y1="{_fmt(_Y0)}" x2="{_fmt(_X0)}" y2="{_fmt(_Y1)}" stroke="black"/>',
        f'<text x="{_fmt((_X0 + _X1) / 2)}" y="{_HEIGHT - 10}" text-anchor="middle">'
        f"{escape(x_label, quote=False)}</text>",
        f'<text x="16" y="{mid_y}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mid_y})">{escape(y_label, quote=False)}</text>',
        *x_ticks,
    ]
    parts += [
        f'<text x="{_fmt(_X0 - 6)}" y="{_fmt(sy(tick) + 4)}" text-anchor="end">{tick:.3g}</text>'
        for tick in _tick_values(0.0, y_hi)
    ]
    return parts, sy


def _close(parts: list[str], labels: Sequence[str]) -> str:
    """The finished document: `parts`, then one legend entry per label in palette order."""
    x = _X1 + 14
    for i, label in enumerate(labels):
        y = _Y0 + 14 + i * 18
        parts.append(f'<rect x="{x}" y="{y - 9}" width="10" height="10" fill="{_PALETTE[i % len(_PALETTE)]}"/>')
        parts.append(f'<text class="legend" x="{x + 16}" y="{y}">{escape(label, quote=False)}</text>')
    return "\n".join(parts + ["</svg>"]) + "\n"


def line_chart(series: Sequence[SweepResult]) -> str:
    """One path per sweep curve, legend entries matching series labels."""
    if not series:
        raise ValueError("at least one series required")
    xs = [p for s in series for p in s.parameters]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def sx(v: float) -> float:
        return _X0 + (v - x_lo) / (x_hi - x_lo) * (_X1 - _X0)

    x_ticks = [
        f'<text x="{_fmt(sx(tick))}" y="{_fmt(_Y1 + 16)}" text-anchor="middle">{tick:.2g}</text>'
        for tick in _tick_values(x_lo, x_hi)
    ]
    y_hi = max(v for s in series for v in s.values) * 1.05
    parts, sy = _frame("alpha_e2o (dimensionless)", _CDC_LABEL, y_hi, x_ticks)
    for i, sweep in enumerate(series):
        path = "M " + " L ".join(
            f"{_fmt(sx(p))},{_fmt(sy(v))}" for p, v in zip(sweep.parameters, sweep.values)
        )
        parts.append(
            f'<path class="series" d="{path}" fill="none" '
            f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="1.5"/>'
        )
    return _close(parts, [sweep.label for sweep in series])


def grouped_bar_chart(
    group_labels: Sequence[str],
    series: Sequence[tuple[str, Sequence[float]]],
    *,
    y_label: str = _CDC_LABEL,
    x_label: str = "scenario",
) -> str:
    """One rect per value, grouped by position; legend names the series.

    Bars rise from 0, so each value must be finite and not negative. A
    chart whose values are all 0 is drawn on a y scale from 0 to 1.
    """
    if not series:
        raise ValueError("at least one series required")
    if not group_labels:
        raise ValueError("at least one group required")
    for label, values in series:
        if len(values) != len(group_labels):
            raise ValueError(f"series {label!r} has {len(values)} values for {len(group_labels)} groups")
        for value in values:
            if not 0.0 <= value < math.inf:  # NaN fails both comparisons
                raise ValueError(f"series {label!r} has a value that is negative or not finite: {value!r}")
    top = max(v for _, values in series for v in values)
    parts, sy = _frame(x_label, y_label, top * 1.1 if top else 1.0)
    group_width = (_X1 - _X0) / len(group_labels)
    bar_width = group_width * 0.8 / len(series)
    for g, group in enumerate(group_labels):
        base = _X0 + g * group_width + group_width * 0.1
        parts.append(
            f'<text x="{_fmt(_X0 + (g + 0.5) * group_width)}" y="{_fmt(_Y1 + 16)}" '
            f'text-anchor="middle">{escape(str(group), quote=False)}</text>'
        )
        for s, (_, values) in enumerate(series):
            parts.append(
                f'<rect class="bar" x="{_fmt(base + s * bar_width)}" y="{_fmt(sy(values[g]))}" '
                f'width="{_fmt(bar_width)}" height="{_fmt(_Y1 - sy(values[g]))}" '
                f'fill="{_PALETTE[s % len(_PALETTE)]}"/>'
            )
    return _close(parts, [label for label, _ in series])
