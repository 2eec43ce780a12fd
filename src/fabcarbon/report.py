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
from collections.abc import Iterable, Sequence
from itertools import repeat

from .core import Record
from .engine import SweepResult

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import IO

# Column kinds map to display formatting; raw values are emitted as-is.
_FORMATS = {
    "ratio": lambda v: f"{v:.2f}",  # CDC and savings factors
    "scale": lambda v: f"{v:.1f}",  # fabric scaling n'
    "num": lambda v: f"{v:g}",
    "int": lambda v: str(int(v)),
    "plain": str,
}

MISSING_CELL = "-"


class Column(Record):
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


class RenderedReport(Record):
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


def _table_head(headers: Sequence[str], widths: Sequence[int]) -> str:
    """A table's header line and `---` rule."""
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    return f"{head}\n" + "  ".join("-" * w for w in widths) + "\n"


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
        notes = [f"note: {note}\n" for note in report.footnotes]
        return _table_head(headers, widths) + "".join(rows + notes)
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
    """The text `write_curves` writes as CSV, as one string."""
    buf = io.StringIO()
    write_curves(sweeps, "csv", buf)
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
    """Long-format report over one or more sweep curves: the per-point reference for `write_curves`."""
    records = []
    for sweep in sweeps:
        records.extend(zip(repeat(sweep.label), sweep.parameters, sweep.values, repeat(sweep.n), repeat(sweep.scale)))
    return RenderedReport(_CURVE_COLUMNS, tuple(records), _curve_footnotes(sweeps))


def write_curves(sweeps: Sequence[SweepResult], format: str, out: IO[str]) -> None:
    """Write sweep curves to `out` as CSV, a table or JSON: one row per sampled point.

    The CSV is long-format (series, parameter, value); the table and the
    JSON are byte for byte those of `emit_table(sweep_report(sweeps), format)`.
    A row is a head (the label), a parameter cell, the value slot and a
    tail (n and n'). Heads and tails are formatted once per curve, and
    parameter cells once per parameters column: the curves of one grid
    share one tuple. The test is identity, not equality, so that -0.0
    never reuses the cell of 0.0. Each curve's rows are one printf-style
    template, filled with the curve's values by one `%` and written as one
    string. Only the table needs a first pass, for its column widths; the
    cdc column is as wide as the largest value's cell, since a positive
    value's fixed-point form never gets shorter as the value grows.
    """
    headers = [c.header for c in _CURVE_COLUMNS]
    footnotes = _curve_footnotes(sweeps)
    sep = end = ""  # `sep` goes between rows, `end` after the last
    if format == "csv":
        out.writelines(f"# {note}\n" for note in footnotes)
        out.write("series,parameter,value\n")

        def cells(parameters):
            return [f"{p!r},%r" for p in parameters]

        def ends(sweep):
            return _csv_field(sweep.label) + ",", "\n"

    elif format == "table":
        widths = [len(h) for h in headers]
        shown = {}  # id of each parameters tuple -> its cells; `sweeps` keeps every tuple alive
        for sweep in sweeps:
            if not sweep.values:
                continue  # a curve without points adds no row, so it widens no column
            if id(sweep.parameters) not in shown:
                shown[id(sweep.parameters)] = [_cell(p, "num") for p in sweep.parameters]
                widths[1] = max(widths[1], *map(len, shown[id(sweep.parameters)]))
            widths[0] = max(widths[0], len(sweep.label))
            widths[2] = max(widths[2], len(_cell(max(sweep.values), "ratio")))
            widths[3] = max(widths[3], len(_cell(sweep.n, "int")))
            widths[4] = max(widths[4], len(_cell(sweep.scale, "scale")))
        label_w, param_w, cdc_w, n_w, scale_w = widths
        out.write(_table_head(headers, widths))
        end = "".join(f"note: {note}\n" for note in footnotes)

        def cells(parameters):
            # "%.2f" is the "ratio" display rule
            return [f"{cell:>{param_w}}  %{cdc_w}.2f" for cell in shown[id(parameters)]]

        def ends(sweep):
            # a row ends in the n' cell, which ends in a digit, so `emit_table`'s rstrip is a no-op
            n, scale = _cell(sweep.n, "int"), _cell(sweep.scale, "scale")
            return f"{sweep.label:>{label_w}}  ", f"  {n:>{n_w}}  {scale:>{scale_w}}\n"

    elif format == "json":
        doc = {"title": "", "columns": headers, "records": [], "footnotes": list(footnotes)}
        if not any(sweep.values for sweep in sweeps):
            out.write(json.dumps(doc, indent=2) + "\n")
            return
        # the text around the records is the document's own, cut at a null record: nothing before it reads null
        doc["records"] = [None]
        start, _, end = json.dumps(doc, indent=2).partition("null")
        out.write(start)
        sep, end = ",\n    ", end + "\n"

        def cells(parameters):
            # a finite float's `%r` is its JSON text
            return [f'{json.dumps(p)},\n      "cdc": %r' for p in parameters]

        def ends(sweep):
            label, n, scale = map(json.dumps, (sweep.label, sweep.n, sweep.scale))
            return f'{{\n      "series": {label},\n      "alpha_e2o": ', f',\n      "n": {n},\n      "scale": {scale}\n    }}'

    else:
        raise ValueError(f"unknown report format: {format!r}")
    parameters = None
    pieces: list[str] = []
    between = ""
    for sweep in sweeps:
        if not sweep.values:
            continue
        if sweep.parameters is not parameters:
            parameters = sweep.parameters
            pieces = cells(parameters)
        # of all cells only a label can hold a "%"
        head, tail = (text.replace("%", "%%") for text in ends(sweep))
        out.write((between + head + (tail + sep + head).join(pieces) + tail) % tuple(sweep.values))
        between = sep
    out.write(end)
