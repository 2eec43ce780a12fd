"""Report rendering: aligned tables, CSV, and JSON.

Display rounding lives here and only here: threshold and savings ratios are
shown to 2 decimals, fabric scales to 1 decimal. Machine formats carry the
untouched engine output next to the display cells, so nothing downstream
ever has to re-derive a number from its rounded form.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .engine import SweepResult

# Column kinds map to display formatting; raw values are emitted as-is.
_FORMATS = {
    "ratio": lambda v: f"{v:.2f}",  # CDC and savings factors
    "scale": lambda v: f"{v:.1f}",  # fabric scaling n'
    "num": lambda v: f"{v:g}",
    "int": lambda v: str(int(v)),
    "plain": str,
}

MISSING_CELL = "-"


@dataclass(frozen=True)
class Column:
    """One report column: its display header, its JSON field name and its display kind."""

    header: str
    key: str
    kind: str = "plain"

    @property
    def numeric(self) -> bool:
        return self.kind in ("ratio", "scale", "num")


@dataclass(frozen=True)
class RenderedReport:
    """Raw values, one tuple per row in column order, plus footnotes.

    Rendering formats them; nothing here is rounded.
    """

    columns: tuple[Column, ...]
    records: tuple[tuple, ...]
    footnotes: tuple[str, ...] = ()

    def cell(self, value: object, column: Column) -> str:
        """The display form of one value of `column`."""
        if value is None:
            return MISSING_CELL
        return _FORMATS[column.kind](value)


def _display_columns(report: RenderedReport) -> list[list[str]]:
    """Display cells column by column, looking up each column's formatter once."""
    cells = []
    for i, column in enumerate(report.columns):
        fmt = _FORMATS[column.kind]
        cells.append([MISSING_CELL if r[i] is None else fmt(r[i]) for r in report.records])
    return cells


def _raw_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_table(report: RenderedReport, format: str = "table") -> str:
    """Render a report; identical input yields byte-identical output."""
    headers = [c.header for c in report.columns]
    if format == "table":
        cells = _display_columns(report)
        widths = [max(len(h), max(map(len, col), default=0)) for h, col in zip(headers, cells)]
        row_template = "  ".join(f"{{:>{w}}}" for w in widths)
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        lines.extend(row_template.format(*row).rstrip() for row in zip(*cells))
        lines.extend(f"note: {note}" for note in report.footnotes)
        return "\n".join(lines) + "\n"
    if format == "csv":
        exact = [i for i, c in enumerate(report.columns) if c.numeric]
        buf = io.StringIO()
        for note in report.footnotes:
            buf.write(f"# {note}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers + [f"{headers[i]}_exact" for i in exact])
        exact_cells = [[_raw_cell(r[i]) for r in report.records] for i in exact]
        writer.writerows(zip(*_display_columns(report), *exact_cells))
        return buf.getvalue()
    if format == "json":
        keys = [c.key for c in report.columns]
        doc = {
            "title": "",  # no report has a title; the key stays for readers of the format
            "columns": headers,
            "records": [dict(zip(keys, r)) for r in report.records],
            "footnotes": list(report.footnotes),
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown report format: {format!r}")


def emit_curve_csv(sweeps: Sequence[SweepResult]) -> str:
    """Long-format CSV of sweep curves: one row per sampled point."""
    buf = io.StringIO()
    for note in _curve_footnotes(sweeps):
        buf.write(f"# {note}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "parameter", "value"])
    for sweep in sweeps:
        label = series_label(sweep)
        writer.writerows((label, repr(parameter), repr(value)) for parameter, value in sweep.samples)
    return buf.getvalue()


def series_label(sweep: SweepResult) -> str:
    meta = sweep.metadata
    if "scenario" in meta:
        return str(meta["scenario"])
    if "area" in meta and "energy" in meta:
        return f"A={meta['area']:g},E={meta['energy']:g}"
    return sweep.axis_name


def estimated_inputs_footnote(names: Iterable[str]) -> tuple[str, ...]:
    """The footnote naming kernels whose utilization is estimated; empty when none is."""
    unique = sorted(set(names))
    if not unique:
        return ()
    return ("estimated inputs: utilization values for " + ", ".join(unique) + " are constrained estimates",)


def _curve_footnotes(sweeps: Sequence[SweepResult]) -> tuple[str, ...]:
    return estimated_inputs_footnote(
        name for sweep in sweeps for name in sweep.metadata.get("estimated_kernels", ())
    )


def sweep_report(sweeps: Sequence[SweepResult]) -> RenderedReport:
    """Long-format report over one or more sweep curves."""
    records = []
    for sweep in sweeps:
        label = series_label(sweep)
        n = sweep.metadata.get("n")
        scale = sweep.metadata.get("scale")
        records.extend((label, parameter, value, n, scale) for parameter, value in sweep.samples)
    axis = sweeps[0].axis_name if sweeps else "parameter"
    columns = (
        Column("series", "series"),
        Column(axis, axis, "num"),
        Column("cdc", "cdc", "ratio"),
        Column("n", "n", "int"),
        Column("n_prime", "scale", "scale"),
    )
    return RenderedReport(columns, tuple(records), _curve_footnotes(sweeps))
