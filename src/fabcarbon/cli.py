"""Command-line front end.

Exit codes: 0 on success, 1 on data or validation errors, 2 on usage
errors: a malformed flag, or one value outside its domain as the model's
types report it. Diagnostics go to the error stream, one line each, data
to stdout or the --out path.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Callable, Sequence
from itertools import compress

from . import scenarios as scen_mod
from .concurrency import ScaleMode, scale_factor
from .core import (
    KERNEL_BOUNDS,
    AggregateRatios,
    DeviceBreakdown,
    FootprintWeights,
    aggregate,
    alpha_from_breakdown,
    device_preset,
    require_alpha,
    weights_for_device,
)
from .dataset import KERNEL_COLUMNS, KernelDataset, _plain_text, builtin_dataset, load_dataset
from .engine import (
    CdcQuery,
    SweepResult,
    cdc as compute_cdc,
    fit_aggregates,
    float_steps,
    grid_curves,
    min_dsas_to_replace,
    step_count,
)
from .errors import DatasetError, InvalidRange, InvalidValue, ModelError
from .report import (
    Column,
    RenderedReport,
    curve_footnotes,
    emit_table,
    estimated_inputs_footnote,
    write_curves,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable
    from typing import IO, NoReturn

    # a command's curves, drawn as they are written, and the report's footnotes
    Curves = tuple[Iterable[SweepResult], tuple[str, ...]]

DATASET_ENV_VAR = "FABCARBON_DATASET"
# Above this many points a sweep is refused before any is computed. Every
# grid streams: all three formats are written from one curve at a time, in
# slices of rows, the table taking its column widths from the grid's axes
# and curve ends, and a grid that `engine.grid_curves` cannot prove is
# checked one curve at a time first. So memory grows with the longest
# curve, not with the grid. Time grows with the point count in all three.
MAX_SWEEP_POINTS = 2_000_000
# `savings --n LO:HI` computes one row per n, about 25 us each on a 2-CPU
# host, so the cap keeps one call near 2.5 s.
MAX_SAVINGS_ROWS = 100_000

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Flag combination or value rejected before computation."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose every fault reaches `run` as one `UsageError`, not a usage block and an exit."""

    def error(self, message: str) -> NoReturn:
        # argparse quotes most argv text with `repr`, but not all: "unrecognized arguments" joins it as it is
        raise UsageError(message.replace("\n", "\\n"))


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    parser.add_argument("--out", metavar="PATH", help="write data here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fabcarbon",
        description=(
            "Decide whether replacing dedicated accelerators with a reconfigurable "
            "fabric lowers a device's carbon footprint."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cdc", help="critical DSA count for explicit parameters")
    p.add_argument("--alpha", type=_number, required=True)
    p.add_argument("--area", type=_number, required=True)
    p.add_argument("--energy", type=_number, required=True)
    p.add_argument("--n", type=_count, default=1)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--scale", type=_number, help="explicit fabric scaling factor n'")
    group.add_argument("--util-mode", choices=("avg", "conservative"), default="conservative")
    p.add_argument("--dataset", metavar="PATH", help="kernel dataset for --util-mode avg")
    _add_output_flags(p)

    p = sub.add_parser("sweep", help="CDC curves over an alpha range")
    p.add_argument("--alpha", type=_span, metavar="LO:HI:STEP", required=True)
    p.add_argument("--areas", type=_number_list, metavar="LIST", default="0.35")
    p.add_argument("--energies", type=_number_list, metavar="LIST", default="0.35")
    p.add_argument("--n", type=_count, default=1)
    _add_output_flags(p)

    p = sub.add_parser("scenario", help="CDC table for the built-in cases")
    p.add_argument("--case", type=_names, metavar="I|II|III", default="I", help="one case or a comma list")
    p.add_argument("--dataset", metavar="PATH")
    p.add_argument("--alphas", type=_number_list, metavar="LIST", required=True)
    p.add_argument("--n", type=_count, default=1)
    p.add_argument("--calibrated", action="store_true", help="use curve-fitted aggregates")
    p.add_argument("--util-mode", choices=("avg", "conservative"), default="conservative")
    _add_output_flags(p)

    p = sub.add_parser("savings", help="footprint improvement over a DSA population")
    p.add_argument("--dsas", type=_count, default=scen_mod.DEFAULT_DSA_POPULATION)
    p.add_argument("--alpha", type=_number, default=scen_mod.DEFAULT_ALPHA)
    p.add_argument("--n", type=_int_span, metavar="LO:HI", default="1:5")
    p.add_argument("--dataset", metavar="PATH")
    p.add_argument("--calibrated", action="store_true")
    _add_output_flags(p)

    p = sub.add_parser("hybrid", help="savings when some kernels stay dedicated")
    p.add_argument("--retain", type=_names, metavar="NAMES", required=True)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--dsas", type=_count, default=scen_mod.DEFAULT_DSA_POPULATION)
    p.add_argument("--alpha", type=_number, default=scen_mod.DEFAULT_ALPHA)
    p.add_argument("--dataset", metavar="PATH")
    p.add_argument("--calibrated", action="store_true")
    _add_output_flags(p)

    p = sub.add_parser("alpha", help="embodied weight from a breakdown or device class")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--breakdown", type=_breakdown, metavar="K=V,...")
    group.add_argument("--device", metavar="CLASS")
    _add_output_flags(p)

    p = sub.add_parser("calibrate", help="fit aggregates to two (alpha, CDC) points")
    p.add_argument("--points", type=_points, metavar="A1:C1,A2:C2", required=True)
    p.add_argument("--n", type=_count, default=1)
    _add_output_flags(p)

    p = sub.add_parser("dataset", help="inspect or validate a kernel dataset")
    p.add_argument("action", choices=("validate", "show"))
    p.add_argument("path", nargs="?", metavar="PATH")
    _add_output_flags(p)

    # the alpha, calibrate and dataset reports have no curve or ratio column to chart
    for name in ("cdc", "sweep", "scenario", "savings", "hybrid"):
        sub.choices[name].add_argument("--plot", metavar="PATH.svg", help="also render an SVG chart")
    return parser


def _plain(parse: Callable[[str], float], text: str, what: str) -> float:
    """`parse(text)` over ASCII text without `_`."""
    if _plain_text(text):
        with contextlib.suppress(ValueError):
            return parse(text)
    raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")


def _number(text: str) -> float:
    """One argv number, in Python's float grammar less `_` and non-ASCII text."""
    return _plain(float, text, "a number")


def _count(text: str) -> int:
    """One argv integer, in Python's int grammar less `_` and non-ASCII text."""
    return _plain(int, text, "an integer")


def _names(text: str) -> list[str]:
    """A comma list, blank entries dropped."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError("empty list")
    return names


def _number_list(text: str) -> list[float]:
    return [_number(part) for part in _names(text)]


def _span(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected LO:HI:STEP, got {text!r}")
    return tuple(map(_number, parts))


def _int_span(text: str) -> tuple[int, int]:
    """`LO:HI`, or one `N` for `N:N`."""
    parts = text.split(":")
    if len(parts) == 1:
        parts *= 2
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    lo, hi = map(_count, parts)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"need LO <= HI, got {text!r}")
    return lo, hi


def _points(text: str) -> list[tuple[float, float]]:
    points = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"expected ALPHA:CDC pairs, got {chunk!r}")
        points.append((_number(parts[0]), _number(parts[1])))
    return points


def _breakdown(text: str) -> dict[str, float]:
    """`DeviceBreakdown`'s fields; the command builds it, so that its faults stay data errors."""
    expected = {"production", "transport", "use", "eol"}
    values: dict[str, float] = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise argparse.ArgumentTypeError(f"expected K=V, got {chunk!r}")
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key not in expected:
            raise argparse.ArgumentTypeError(f"unknown phase {key!r} (expected {sorted(expected)})")
        values[key] = _plain(float, value, f"a number for {key}")
    missing = expected - values.keys()
    if missing:
        raise argparse.ArgumentTypeError(f"missing phase(s): {sorted(missing)}")
    return {f"{phase}_pct": value for phase, value in values.items()}


def _dataset_format(path: str) -> str:
    suffix = os.path.splitext(path)[1].lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".json":
        return "json"
    raise DatasetError(f"cannot infer dataset format from {path!r} (expected .csv or .json)")


def _resolve_dataset(path: str | None, calibrated: bool = False) -> KernelDataset:
    path = path or os.environ.get(DATASET_ENV_VAR)
    if calibrated and path:  # the fit is the bundled set's: its numbers would be credited to the user's kernels
        raise UsageError(f"--calibrated fits the bundled kernels' reference curves; it takes no --dataset or {DATASET_ENV_VAR}")
    if not path:
        return builtin_dataset()
    try:
        return load_dataset(path, _dataset_format(path))
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path!r}: {exc}") from None


def _case_i_aggregates(ds: KernelDataset, calibrated: bool) -> AggregateRatios:
    """CASE-I's aggregates: fitted to its reference anchors, or the means of every kernel, as CASE-I excludes none."""
    return scen_mod.calibrated_aggregates("I", kernels=ds) if calibrated else aggregate(ds)


def _dataset_footnote(ds: KernelDataset) -> tuple[str, ...]:
    return estimated_inputs_footnote(compress(ds.names(), ds.column("estimated")))


def _cmd_cdc(args: argparse.Namespace) -> RenderedReport:
    footnotes: tuple[str, ...] = ()
    scale = args.scale
    if args.util_mode == "avg":
        ds = _resolve_dataset(args.dataset)
        scale = scale_factor(args.n, ScaleMode.AVERAGE_UTILIZATION, kernels=ds)
        footnotes = _dataset_footnote(ds)
    elif args.dataset is not None:
        raise UsageError("--dataset applies only with --util-mode avg")
    agg = AggregateRatios(area=args.area, energy=args.energy, utilization=1.0, kernel_count=1)
    query = CdcQuery(FootprintWeights(args.alpha), agg, n=args.n, scale=scale)
    value = compute_cdc(query)
    return RenderedReport(
        columns=(
            Column("alpha_e2o", "alpha_e2o", "num"),
            Column("area", "area", "num"),
            Column("energy", "energy", "num"),
            Column("n", "n", "int"),
            Column("n_prime", "scale", "scale"),
            Column("cdc", "cdc", "ratio"),
            Column("min_replace", "min_replace", "int"),
        ),
        records=(
            (args.alpha, args.area, args.energy, args.n, query.effective_scale, value, min_dsas_to_replace(query)),
        ),
        footnotes=footnotes,
    )


def _cmd_sweep(args: argparse.Namespace) -> Curves:
    lo, hi, step = args.alpha
    require_alpha(lo)
    require_alpha(hi)
    points = step_count(lo, hi, step) * len(args.areas) * len(args.energies)
    if points > MAX_SWEEP_POINTS:
        raise InvalidRange(f"sweep of {points} points exceeds the cap of {MAX_SWEEP_POINTS} points")
    return grid_curves(float_steps(lo, hi, step), args.areas, args.energies, n=args.n), ()  # a grid estimates nothing


def _cmd_scenario(args: argparse.Namespace) -> Curves:
    ds = _resolve_dataset(args.dataset, args.calibrated)
    mode = ScaleMode.AVERAGE_UTILIZATION if args.util_mode == "avg" else ScaleMode.CONSERVATIVE
    population = max(args.n, scen_mod.DEFAULT_DSA_POPULATION)  # the curve never reads it, so it must not refuse n
    sweeps = []
    cases: dict[str, str] = {}
    for case in args.case:  # a repeated case, in any letter case, is drawn once
        cases.setdefault(case.upper(), case)
    for case in cases.values():
        spec = scen_mod.builtin_case(case, n=args.n, scale_mode=mode, dsa_population=population)
        kernels = scen_mod.scenario_kernels(spec, ds)  # resolved once, for the fit and the curve
        agg = scen_mod.calibrated_aggregates(case, kernels=kernels) if args.calibrated else None
        sweeps.append(scen_mod.evaluate_cdc_table(spec, args.alphas, kernels=kernels, aggregates=agg))
    return sweeps, curve_footnotes(sweeps)


def _cmd_savings(args: argparse.Namespace) -> RenderedReport:
    n_lo, n_hi = args.n
    rows = n_hi - n_lo + 1
    if rows > MAX_SAVINGS_ROWS:
        raise InvalidRange(f"savings over {rows} values of n exceeds the cap of {MAX_SAVINGS_ROWS} rows")
    ds = _resolve_dataset(args.dataset, args.calibrated)
    # every n maps the same kernels, so one aggregate serves all rows
    agg = _case_i_aggregates(ds, args.calibrated)
    records = []
    for n in range(n_lo, n_hi + 1):
        spec = scen_mod.builtin_case("I", n=n, alpha=args.alpha, dsa_population=args.dsas)
        result = scen_mod.savings_factor(spec, aggregates=agg)
        records.append(
            (result.n, result.scale_avg_util, result.improvement_avg_util, result.improvement_conservative)
        )
    return RenderedReport(
        columns=(
            Column("n", "n", "int"),
            Column("n_prime_avg", "scale_avg_util", "scale"),
            Column("improvement_avg_util", "improvement_avg_util", "ratio"),
            Column("improvement_conservative", "improvement_conservative", "ratio"),
        ),
        records=tuple(records),
        footnotes=_dataset_footnote(ds),
    )


def _cmd_hybrid(args: argparse.Namespace) -> RenderedReport:
    retained = sorted(set(args.retain))
    ds = _resolve_dataset(args.dataset, args.calibrated)
    spec = scen_mod.builtin_case(
        "I",
        n=args.n,
        alpha=args.alpha,
        dsa_population=args.dsas,
        scale_mode=ScaleMode.AVERAGE_UTILIZATION,
    )
    # both cover the full kernel list, so one aggregate serves both
    agg = _case_i_aggregates(ds, args.calibrated)
    improvement = scen_mod.hybrid_retained_savings(spec, retained, dataset=ds, aggregates=agg)
    baseline = scen_mod.savings_factor(spec, aggregates=agg)
    return RenderedReport(
        columns=(
            Column("retained", "retained"),
            Column("n", "n", "int"),
            Column("dsas", "dsa_population", "int"),
            Column("alpha_e2o", "alpha_e2o", "num"),
            Column("improvement", "improvement", "ratio"),
            Column("baseline_avg_util", "baseline_avg_util", "ratio"),
        ),
        records=(
            (",".join(retained), args.n, args.dsas, args.alpha, improvement,
             baseline.improvement_avg_util),
        ),
        footnotes=_dataset_footnote(ds),
    )


def _cmd_alpha(args: argparse.Namespace) -> RenderedReport:
    if args.breakdown:
        weights = alpha_from_breakdown(DeviceBreakdown(**args.breakdown))
        record = ("breakdown", weights.alpha_e2o, None, None)
    else:
        low, high = device_preset(args.device)
        record = (args.device, weights_for_device(args.device).alpha_e2o, low, high)
    return RenderedReport(
        columns=(
            Column("source", "source"),
            Column("alpha_e2o", "alpha_e2o", "num"),
            Column("alpha_low", "alpha_low", "num"),
            Column("alpha_high", "alpha_high", "num"),
        ),
        records=(record,),
    )


def _cmd_calibrate(args: argparse.Namespace) -> RenderedReport:
    agg = fit_aggregates(args.points, n=args.n)
    return RenderedReport(
        columns=(
            Column("area", "area", "num"),
            Column("energy", "energy", "num"),
            Column("points", "points"),
        ),
        records=((agg.area, agg.energy, ";".join(f"{a:g}:{c:g}" for a, c in args.points)),),
    )


def _cmd_dataset(args: argparse.Namespace) -> RenderedReport:
    ds = _resolve_dataset(args.path)
    if args.action == "validate":
        # `load_dataset` has validated the file, and the bundled set is valid
        return RenderedReport(
            columns=(Column("dataset", "dataset"), Column("status", "status")),
            records=((ds.provenance or "(unnamed)", "ok"),),
        )
    agg = aggregate(ds)
    fabric = ds.fabric
    notes = (
        f"fabric: {fabric.rows}x{fabric.cols} PEs, {fabric.memory_banks} banks, "
        f"{fabric.memory_kb:g} KB, {fabric.clock_mhz:g} MHz",
        f"means: area {agg.area:g}, energy {agg.energy:g}, utilization {agg.utilization:g}",
    )
    return RenderedReport(
        columns=tuple(
            Column(field, field, "num" if field in KERNEL_BOUNDS else "plain") for field in KERNEL_COLUMNS
        ),
        # one row per kernel in KERNEL_COLUMNS order, `estimated` last
        records=tuple((*row[:-1], "yes" if row[-1] else "no") for row in zip(*ds.columns)),
        footnotes=notes + _dataset_footnote(ds),
    )


_COMMANDS = {
    "cdc": _cmd_cdc,
    "sweep": _cmd_sweep,
    "scenario": _cmd_scenario,
    "savings": _cmd_savings,
    "hybrid": _cmd_hybrid,
    "alpha": _cmd_alpha,
    "calibrate": _cmd_calibrate,
    "dataset": _cmd_dataset,
}


def _render(result: RenderedReport | Curves, format: str, out: IO[str]) -> None:
    """Write `result` to `out`; curves are written as they are drawn."""
    if isinstance(result, RenderedReport):
        out.write(emit_table(result, format))
    else:
        curves, footnotes = result
        write_curves(curves, format, out, footnotes)


def _render_plot(result: RenderedReport | Curves, scenario_curves: bool) -> str:
    """The SVG chart of `result`: grouped bars for several scenario curves, else lines or the report's ratios."""
    from .svg import grouped_bar_chart, line_chart

    if not isinstance(result, RenderedReport):
        curves = result[0]
        if scenario_curves and len(curves) > 1:
            groups = [s.label for s in curves]
            series = [
                (f"alpha={alpha:g}", [s.values[i] for s in curves])
                for i, alpha in enumerate(curves[0].parameters)
            ]
            return grouped_bar_chart(groups, series)
        return line_chart(curves)
    label_col = result.columns[0]
    groups = [result.cell(r[0], label_col) for r in result.records]
    series = []
    for i, column in enumerate(result.columns):
        values = [r[i] for r in result.records]
        if column.kind == "ratio" and None not in values:
            series.append((column.header, [float(v) for v in values]))
    if [label for label, _ in series] == ["cdc"]:  # the chart's own y label is the CDC's
        return grouped_bar_chart(groups, series, x_label=label_col.header)
    return grouped_bar_chart(groups, series, y_label="improvement (x)", x_label=label_col.header)


def _same_file(a: str, b: str) -> bool:
    """Whether paths `a` and `b` name one file: the same file when both exist, else the same absolute path."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.abspath(a) == os.path.abspath(b)


def _write_file(path: str, write: Callable[[IO[str]], object]) -> None:
    """Call `write` on `path` opened for UTF-8 text, so that a failed write leaves no partial file.

    A regular file, or a path that does not exist yet, is written as
    `<path>.<pid>.tmp` in the same directory, which `os.replace` moves onto
    `path` once `write` returns; the file keeps its permission bits. On any
    exception the temporary file is removed and the old file is left as it
    was. Any other path (a symlink, a device such as /dev/stdout or
    /dev/null, a FIFO) is written in place, since replacing it would put a
    regular file where the link or device was.
    """
    if os.path.islink(path) or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
        if os.path.exists(path):
            os.chmod(tmp, os.stat(path).st_mode & 0o7777)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            exc.filename = path  # the diagnostic names the path the user gave
        raise


def run(argv: Sequence[str], stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        with contextlib.redirect_stdout(out):  # where `-h` prints its help
            args = build_parser().parse_args(list(argv))
        plot, data = getattr(args, "plot", None), getattr(args, "out", None)
        if plot and data and _same_file(plot, data):  # the data would replace the chart
            raise UsageError(f"--plot and --out name the same file: {plot!r}")
        result = _COMMANDS[args.command](args)
        if plot:
            if not isinstance(result, RenderedReport):  # the chart reads every curve before the data is written
                result = list(result[0]), result[1]
            chart = _render_plot(result, scenario_curves=args.command == "scenario")
            _write_file(plot, lambda fh: fh.write(chart))
        if data:
            _write_file(data, lambda fh: _render(result, args.format, fh))
        else:
            _render(result, args.format, out)
        return EXIT_OK
    except SystemExit as exc:  # `-h` exits after its help
        return int(exc.code or 0)
    except (UsageError, InvalidValue) as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    except (ModelError, DatasetError, KeyError, ValueError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=err)
        return EXIT_DATA_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
