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
from itertools import repeat
from typing import IO, Iterable, Iterator, Sequence

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


# The long-format columns of sweep curves, one row per sampled point.
_CURVE_COLUMNS = (
    Column("series", "series"),
    Column("alpha_e2o", "alpha_e2o", "num"),
    Column("cdc", "cdc", "ratio"),
    Column("n", "n", "int"),
    Column("n_prime", "scale", "scale"),
)


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
        return _cell(value, column.kind)


def _cell(value: object, kind: str) -> str:
    return MISSING_CELL if value is None else _FORMATS[kind](value)


def _display_columns(report: RenderedReport) -> list[list[str]]:
    """Display cells column by column, looking up each column's formatter once."""
    cells = []
    for i, column in enumerate(report.columns):
        fmt = _FORMATS[column.kind]
        cells.append([MISSING_CELL if r[i] is None else fmt(r[i]) for r in report.records])
    return cells


def _write_framed_table(
    out: IO[str], headers: Sequence[str], widths: Sequence[int], body: Iterable[str], footnotes: Iterable[str]
) -> None:
    """Write a table: header line, `---` rule, the body's newline-ended lines, one `note:` line per footnote.

    Each body string is written as soon as `body` yields it.
    """
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    rule = "  ".join("-" * w for w in widths)
    out.write(f"{head}\n{rule}\n")
    out.writelines(body)
    out.writelines(f"note: {note}\n" for note in footnotes)


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
        rows = [row_template.format(*row).rstrip() + "\n" for row in zip(*cells)]
        buf = io.StringIO()
        _write_framed_table(buf, headers, widths, rows, report.footnotes)
        return buf.getvalue()
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


def write_curve_csv(sweeps: Sequence[SweepResult], out: IO[str]) -> None:
    """Write the long-format CSV of sweep curves to `out`: one row per sampled point.

    Each curve's rows are written as one string as soon as they are
    formatted, so only one curve's text is alive at a time. Only the
    series label can need CSV quoting, so each label is quoted once.
    Parameter cells are formatted once per parameters column: the curves
    of one grid share one tuple. The test is identity, not equality, so
    that -0.0 never reuses the cell of 0.0.
    """
    out.writelines(f"# {note}\n" for note in _curve_footnotes(sweeps))
    out.write("series,parameter,value\n")
    parameters = None
    cells: list[str] = []
    for sweep in sweeps:
        if sweep.parameters is not parameters:
            parameters = sweep.parameters
            cells = [f"{p!r}," for p in parameters]
        label = _csv_field(sweep.label) + ","
        out.write("".join([f"{label}{cell}{value!r}\n" for cell, value in zip(cells, sweep.values)]))


def emit_curve_csv(sweeps: Sequence[SweepResult]) -> str:
    """The text `write_curve_csv` writes, as one string."""
    buf = io.StringIO()
    write_curve_csv(sweeps, buf)
    return buf.getvalue()


def _csv_field(text: str) -> str:
    """`text` as the csv module writes it as one field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, "-"))
    return buf.getvalue()[: -len(",-\n")]


def estimated_inputs_footnote(names: Iterable[str]) -> tuple[str, ...]:
    """The footnote naming kernels whose utilization is estimated; empty when none is."""
    unique = sorted(set(names))
    if not unique:
        return ()
    return ("estimated inputs: utilization values for " + ", ".join(unique) + " are constrained estimates",)


def _curve_footnotes(sweeps: Sequence[SweepResult]) -> tuple[str, ...]:
    return estimated_inputs_footnote(name for sweep in sweeps for name in sweep.estimated_kernels)


def sweep_report(sweeps: Sequence[SweepResult]) -> RenderedReport:
    """Long-format report over one or more sweep curves."""
    records = []
    for sweep in sweeps:
        records.extend(zip(repeat(sweep.label), sweep.parameters, sweep.values, repeat(sweep.n), repeat(sweep.scale)))
    return RenderedReport(_CURVE_COLUMNS, tuple(records), _curve_footnotes(sweeps))


def write_curve_table(sweeps: Sequence[SweepResult], out: IO[str]) -> None:
    """Write the table of `sweep_report(sweeps)` to `out`, formatting each cell only as often as it is distinct.

    A first pass takes every column width from the curves' values and
    shared cells; a second writes each curve's rows as one string as soon
    as they are formatted, so no row string outlives its curve. The
    label, n and n' cells are formatted once per curve and the parameter
    cells once per parameters column, tested by identity as in
    `write_curve_csv`. Only the cdc cell is formatted per point, and only
    once: each curve's rows are one printf-style template, filled with the
    curve's values by one `%`. The cdc column is as wide as the largest
    value's cell, since a positive value's fixed-point form never gets
    shorter as the value grows.
    """
    widths = [len(c.header) for c in _CURVE_COLUMNS]
    curves = []  # (sweep, n cell, n' cell, parameter cells) per curve with points
    parameters = None
    param_cells: list[str] = []
    for sweep in sweeps:
        if not sweep.values:
            continue  # a curve without points adds no row, so it widens no column
        if sweep.parameters is not parameters:
            parameters = sweep.parameters
            param_cells = [_cell(p, "num") for p in parameters]
            widths[1] = max(widths[1], *map(len, param_cells))
        n = _cell(sweep.n, "int")
        scale = _cell(sweep.scale, "scale")
        curves.append((sweep, n, scale, param_cells))
        widths[0] = max(widths[0], len(sweep.label))
        widths[2] = max(widths[2], len(_cell(max(sweep.values), "ratio")))
        widths[3] = max(widths[3], len(n))
        widths[4] = max(widths[4], len(scale))
    body = _curve_table_rows(curves, widths)
    _write_framed_table(out, [c.header for c in _CURVE_COLUMNS], widths, body, _curve_footnotes(sweeps))


def _curve_table_rows(curves: list, widths: Sequence[int]) -> Iterator[str]:
    """Each curve's table rows as one string, formatted only when the writer asks for it."""
    label_w, param_w, cdc_w, n_w, scale_w = widths
    shared = None
    pieces: list[str] = []
    for sweep, n, scale, cells in curves:
        if cells is not shared:
            shared = cells
            # "%.2f" is the "ratio" display rule; of all cells only a label can hold a "%"
            pieces = [f"{cell:>{param_w}}  %{cdc_w}.2f" for cell in cells]
        head = f"{sweep.label:>{label_w}}  ".replace("%", "%%")
        # a row ends in the n' cell, which ends in a digit, so `emit_table`'s rstrip is a no-op
        tail = f"  {n:>{n_w}}  {scale:>{scale_w}}\n"
        yield (head + (tail + head).join(pieces) + tail) % tuple(sweep.values)


def emit_curve_table(sweeps: Sequence[SweepResult]) -> str:
    """The text `write_curve_table` writes, as one string."""
    buf = io.StringIO()
    write_curve_table(sweeps, buf)
    return buf.getvalue()
