"""Output checks that recompute every answer without the program's code.

The reference below is the paper's closed form, CDC = (n' - (1-a)*n*E) / (a*A),
plus the plain means of the generated kernels. Checks compare at a stated
tolerance, count rows exactly, and skip provenance the program may add
(`#` lines in CSV, `note:` lines in tables, extra keys in JSON).
"""

from __future__ import annotations

import csv
import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Iterator, Sequence

# Exact values (JSON, CSV `*_exact` columns) agree with the reference to
# this relative tolerance; the program sums exactly, the reference with fsum.
REL_TOL = 1e-9
# Display cells are rounded: ratios to 2 decimals, scales to 1 decimal,
# `num` cells to 6 significant digits. A cell may sit half a unit away.
DISPLAY_ABS_TOL = {"ratio": 0.005, "scale": 0.05}
DISPLAY_REL_TOL_NUM = 5e-6
MAX_REPORTED = 5

# Reference data from the paper, used as inputs, never as outputs.
BUNDLED_KERNELS = (
    # name, domain, area_norm, energy_norm, utilization, memory_kb, estimated
    ("GeMM", "machine learning", 0.41, 0.541, 1.0, 108.0, False),
    ("FFT", "signal processing", 0.291, 0.283, 0.66, 1.5, True),
    ("Conv2D", "machine learning", 0.202, 0.410, 0.45, 72.0, True),
    ("Stencil3D", "image processing", 0.502, 0.511, 0.45, 256.0, True),
    ("Viterbi", "speech recognition", 0.128, 0.091, 0.45, 52.0, True),
    ("FIR", "signal processing", 0.396, 0.395, 1.0, 108.0, False),
    ("AESEncrypt", "security", 0.03, 0.04, 0.45, 0.5, True),
    ("KNN", "machine learning", 0.241, 0.479, 0.66, 22.0, True),
)
CASE_EXCLUSIONS = {"I": (), "II": ("AESEncrypt",), "III": ("AESEncrypt", "Viterbi")}
CALIBRATION_ANCHORS = {
    "I": ((0.3, 9.773), (0.9, 4.01)),
    "II": ((0.3, 7.66), (0.9, 3.29)),
    "III": ((0.3, 6.59), (0.9, 2.93)),
}
CALIBRATED_UTILIZATION_CASE_I = 0.63
DEVICE_BANDS = {
    "watch": (0.80, 0.85),
    "smartphone": (0.80, 0.85),
    "laptop": (0.70, 0.75),
    "medium_desktop": (0.55, 0.60),
    "high_end_desktop": (0.20, 0.25),
    "console": (0.20, 0.25),
}


@dataclass(frozen=True)
class Kernel:
    name: str
    domain: str
    area: float
    energy: float
    utilization: float
    memory_kb: float
    estimated: bool


def bundled_kernels() -> list[Kernel]:
    return [Kernel(*row) for row in BUNDLED_KERNELS]


# --- the reference model ---------------------------------------------------


def mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def cdc(alpha: float, area: float, energy: float, n: int = 1, scale: float | None = None) -> float:
    n_prime = float(n) if scale is None else scale
    return (n_prime - (1.0 - alpha) * n * energy) / (alpha * area)


@dataclass(frozen=True)
class Aggregates:
    area: float
    energy: float
    utilization: float


def kernel_means(kernels: Sequence[Kernel]) -> Aggregates:
    return Aggregates(
        mean([k.area for k in kernels]),
        mean([k.energy for k in kernels]),
        mean([k.utilization for k in kernels]),
    )


def included(kernels: Sequence[Kernel], excluded: Iterable[str]) -> list[Kernel]:
    dropped = set(excluded)
    return [k for k in kernels if k.name not in dropped]


def fit_two_points(points: Sequence[tuple[float, float]], n: int = 1) -> tuple[float, float]:
    """(A, E) whose curve passes through both (alpha, CDC) points, by Cramer's rule.

    Each point reads alpha*CDC = n*x - (1-alpha)*n*y with x = 1/A, y = E/A.
    """
    (a1, c1), (a2, c2) = points
    det = n * (-(1 - a2) * n) - (-(1 - a1) * n) * n
    x = (a1 * c1 * (-(1 - a2) * n) - (-(1 - a1) * n) * a2 * c2) / det
    y = (n * a2 * c2 - n * a1 * c1) / det
    return 1.0 / x, y / x


def case_aggregates(kernels: Sequence[Kernel], case: str, calibrated: bool) -> Aggregates:
    members = included(kernels, CASE_EXCLUSIONS[case])
    if not calibrated:
        return kernel_means(members)
    area, energy = fit_two_points(CALIBRATION_ANCHORS[case])
    if case == "I":
        utilization = CALIBRATED_UTILIZATION_CASE_I
    else:
        utilization = mean([k.utilization for k in members])
    return Aggregates(area, energy, utilization)


def avg_scale(n: int, utilization: float) -> float:
    return max(1.0, n * utilization)


def dsa_footprint(alpha: float, dsas: int, n: int, agg: Aggregates) -> float:
    return alpha * dsas * agg.area + (1.0 - alpha) * n * agg.energy


def estimated_note(kernels: Iterable[Kernel]) -> str:
    names = sorted(k.name for k in kernels if k.estimated)
    return "estimated inputs: utilization values for " + ", ".join(names) + " are constrained estimates"


# --- parsing the three report formats --------------------------------------


@dataclass(frozen=True)
class Col:
    """One report column: table/CSV header, JSON key, display kind."""

    header: str
    key: str
    kind: str  # "ratio", "scale", "num", "int" or "str"

    @property
    def exact_header(self) -> str | None:
        return f"{self.header}_exact" if self.kind in ("ratio", "scale", "num") else None


class OutputError(Exception):
    """The output cannot be parsed as the expected format."""


def _is_dash_line(line: str) -> bool:
    return bool(line.strip()) and set(line) <= {"-", " "}


def _table_lines(lines: Iterable[str]) -> Iterator[list[str]]:
    """Cells of each table row, cut at the column spans of the dash line."""
    header = None
    spans = None
    for raw in lines:
        line = raw.rstrip("\n")
        if line.startswith("note:"):
            continue
        if spans is None:
            if _is_dash_line(line):
                if header is None:
                    raise OutputError("table has no header line")
                spans = [m.span() for m in re.finditer(r"-+", line)]
                yield [header[a:b].strip() if i < len(spans) - 1 else header[a:].strip()
                       for i, (a, b) in enumerate(spans)]
            else:
                header = line
            continue
        cells = []
        for i, (a, b) in enumerate(spans):
            end = b if i < len(spans) - 1 else None
            cells.append(line[a:end].strip())
        yield cells
    if spans is None:
        raise OutputError("table has no dash line under its header")


def _csv_lines(lines: Iterable[str]) -> Iterator[list[str]]:
    return csv.reader(line for line in lines if not line.startswith("#"))


def _footnotes(fmt: str, text: str) -> list[str]:
    if fmt == "table":
        return [line[len("note: "):] for line in text.splitlines() if line.startswith("note: ")]
    if fmt == "csv":
        return [line[len("# "):] for line in text.splitlines() if line.startswith("# ")]
    return list(json.loads(text).get("footnotes", []))


# --- comparing cells ---------------------------------------------------------


def close(expected: float, got: float, rel: float = REL_TOL) -> bool:
    return math.isclose(got, expected, rel_tol=rel, abs_tol=rel * 1e-3)


def display_ok(kind: str, expected, cell: str) -> bool:
    """Whether a rounded display cell shows `expected`."""
    if expected is None:
        return cell == "-"
    if kind == "str":
        return cell == str(expected)
    try:
        got = float(cell)
    except ValueError:
        return False
    if kind == "int":
        return got == expected
    if kind == "num":
        return close(expected, got, DISPLAY_REL_TOL_NUM)
    return abs(got - expected) <= DISPLAY_ABS_TOL[kind] + 1e-9 * max(1.0, abs(expected))


def exact_ok(kind: str, expected, value) -> bool:
    """Whether a full-precision value (JSON field or CSV `*_exact` cell) equals `expected`."""
    if expected is None:
        return value in (None, "")
    if kind == "str":
        return value == expected
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return False
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    if kind == "int":
        return value == expected
    return close(expected, float(value))


class Errors:
    """First few mismatches plus a total, so a bad output stays readable."""

    def __init__(self):
        self.items: list[str] = []
        self.total = 0

    def add(self, message: str) -> None:
        self.total += 1
        if len(self.items) < MAX_REPORTED:
            self.items.append(message)

    def result(self) -> list[str]:
        if self.total > len(self.items):
            return self.items + [f"... {self.total - len(self.items)} more"]
        return self.items


def check_report(
    fmt: str,
    text: str,
    cols: Sequence[Col],
    rows: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
) -> list[str]:
    """Compare a rendered report (table, csv or json) with the expected rows.

    Each expected row gives one value per column in `cols`, None for a
    missing cell. Every note in `notes` must appear among the footnotes.
    """
    errors = Errors()
    try:
        if fmt == "json":
            records = json.loads(text)["records"]
            if len(records) != len(rows):
                return [f"expected {len(rows)} records, got {len(records)}"]
            for i, (record, row) in enumerate(zip(records, rows)):
                for col, expected in zip(cols, row):
                    if not exact_ok(col.kind, expected, record.get(col.key)):
                        errors.add(f"record {i} {col.key}: expected {expected!r}, got {record.get(col.key)!r}")
        else:
            parsed = list(_table_lines(text.splitlines()) if fmt == "table" else _csv_lines(text.splitlines()))
            header, body = parsed[0], parsed[1:]
            index = {h: j for j, h in enumerate(header)}
            wanted = [c.header for c in cols] + [c.exact_header for c in cols if fmt == "csv" and c.exact_header]
            missing = [h for h in wanted if h not in index]
            if missing:
                return [f"missing column(s) {missing} in header {header}"]
            if len(body) != len(rows):
                return [f"expected {len(rows)} rows, got {len(body)}"]
            for i, (cells, row) in enumerate(zip(body, rows)):
                for col, expected in zip(cols, row):
                    cell = cells[index[col.header]]
                    if not display_ok(col.kind, expected, cell):
                        errors.add(f"row {i} {col.header}: expected {expected!r}, got {cell!r}")
                    if fmt == "csv" and col.exact_header:
                        exact = cells[index[col.exact_header]]
                        if not exact_ok(col.kind, expected, exact):
                            errors.add(f"row {i} {col.exact_header}: expected {expected!r}, got {exact!r}")
        present = _footnotes(fmt, text)
    except (OutputError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable {fmt} report: {exc}"]
    for note in notes:
        if note not in present:
            errors.add(f"missing footnote {note[:80]!r}")
    return errors.result()


# --- sweep curves, streamed ---------------------------------------------------


def sweep_label(area: float, energy: float) -> str:
    return f"A={area:g},E={energy:g}"


def sweep_points(
    alphas: Sequence[float], areas: Sequence[float], energies: Sequence[float], n: int
) -> Iterator[tuple[str, float, float]]:
    """(series, alpha, CDC) in the CLI's order: areas, then energies, then alphas."""
    for area in areas:
        for energy in energies:
            label = sweep_label(area, energy)
            for alpha in alphas:
                yield label, alpha, cdc(alpha, area, energy, n)


def alpha_steps(lo: float, step: float, count: int) -> list[float]:
    return [lo + i * step for i in range(count)]


def check_curve_csv(lines: Iterable[str], expected: Iterable[tuple[str, float, float]]) -> list[str]:
    """Long-format curve CSV (series,parameter,value) against expected points."""
    errors = Errors()
    reader = _csv_lines(lines)
    header = next(reader, None)
    if header != ["series", "parameter", "value"]:
        return [f"unexpected curve CSV header {header!r}"]
    count = 0
    for row, point in zip_longest(reader, expected):
        if row is None or point is None:
            return [f"row count differs from expected after {count} rows"]
        count += 1
        label, alpha, value = point
        try:
            ok = (
                len(row) == 3
                and row[0] == label
                and close(alpha, float(row[1]))
                and close(value, float(row[2]))
            )
        except ValueError:
            ok = False
        if not ok:
            errors.add(f"row {count}: expected {label},{alpha!r},{value!r}, got {','.join(row)}")
    return errors.result()


SWEEP_COLS = (
    Col("series", "series", "str"),
    Col("alpha_e2o", "alpha_e2o", "num"),
    Col("cdc", "cdc", "ratio"),
    Col("n", "n", "int"),
    Col("n_prime", "scale", "scale"),
)


def check_sweep_table(lines: Iterable[str], expected: Iterable[tuple[str, float, float]], n: int) -> list[str]:
    """Sweep report rendered as a table, streamed row by row."""
    errors = Errors()
    try:
        rows = _table_lines(lines)
        header = next(rows)
        if header != [c.header for c in SWEEP_COLS]:
            return [f"unexpected sweep table header {header!r}"]
        count = 0
        for cells, point in zip_longest(rows, expected):
            if cells is None or point is None:
                return [f"row count differs from expected after {count} rows"]
            count += 1
            label, alpha, value = point
            row = (label, alpha, value, n, float(n))
            for col, want, cell in zip(SWEEP_COLS, row, cells):
                if not display_ok(col.kind, want, cell):
                    errors.add(f"row {count} {col.header}: expected {want!r}, got {cell!r}")
    except OutputError as exc:
        return [f"unparsable sweep table: {exc}"]
    return errors.result()


def check_svg(text: str, series: int) -> list[str]:
    """Well-formed SVG with a legend entry per plotted series."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"plot is not well-formed XML: {exc}"]
    if root.tag != "{http://www.w3.org/2000/svg}svg":
        return [f"plot root is {root.tag!r}, not svg"]
    shapes = root.findall("{http://www.w3.org/2000/svg}path") + root.findall("{http://www.w3.org/2000/svg}rect")
    if len(shapes) < series:
        return [f"plot draws {len(shapes)} shapes for {series} series"]
    return []


def run_ok(exit_code: int, stderr: str) -> list[str]:
    """Process-level failure: a nonzero exit or a traceback on stderr."""
    errors = []
    if exit_code != 0:
        errors.append(f"exit code {exit_code}: {stderr.strip()[-300:]}")
    if "Traceback (most recent call last)" in stderr:
        errors.append("traceback on stderr")
    return errors
