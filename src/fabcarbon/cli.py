"""Command-line front end.

Exit codes: 0 on success, 1 on data or validation errors, 2 on usage
errors: a malformed flag, or one value outside its domain as the model's
types report it. Diagnostics go to the error stream, data to stdout or the
--out path.
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
from .dataset import KERNEL_COLUMNS, KernelDataset, builtin_dataset, load_dataset
from .engine import (
    CdcQuery,
    SweepResult,
    cdc as compute_cdc,
    fit_aggregates,
    float_steps,
    min_dsas_to_replace,
    step_count,
    sweep_grid,
)
from .errors import DatasetError, InvalidRange, InvalidValue, ModelError
from .report import (
    Column,
    RenderedReport,
    emit_table,
    estimated_inputs_footnote,
    write_curves,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import IO

DATASET_ENV_VAR = "FABCARBON_DATASET"
# Above this many points a sweep is refused before any is computed. Rows
# are written curve by curve, so the curves' values, not their text, set
# the peak memory; it still grows with the point count, as does the time.
MAX_SWEEP_POINTS = 2_000_000
# `savings --n LO:HI` computes one row per n, about 25 us each on a 2-CPU
# host, so the cap keeps one call near 2.5 s.
MAX_SAVINGS_ROWS = 100_000

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Flag combination or value rejected before computation."""


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    parser.add_argument("--out", metavar="PATH", help="write data here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fabcarbon",
        description=(
            "Decide whether replacing dedicated accelerators with a reconfigurable "
            "fabric lowers a device's carbon footprint."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cdc", help="critical DSA count for explicit parameters")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--area", type=float, required=True)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--n", type=int, default=1)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--scale", type=float, help="explicit fabric scaling factor n'")
    group.add_argument("--util-mode", choices=("avg", "conservative"), default="conservative")
    p.add_argument("--dataset", metavar="PATH", help="kernel dataset for --util-mode avg")
    _add_output_flags(p)

    p = sub.add_parser("sweep", help="CDC curves over an alpha range")
    p.add_argument("--alpha", metavar="LO:HI:STEP", required=True)
    p.add_argument("--areas", metavar="LIST", default="0.35")
    p.add_argument("--energies", metavar="LIST", default="0.35")
    p.add_argument("--n", type=int, default=1)
    _add_output_flags(p)

    p = sub.add_parser("scenario", help="CDC table for the built-in cases")
    p.add_argument("--case", metavar="I|II|III", default="I", help="one case or a comma list")
    p.add_argument("--dataset", metavar="PATH")
    p.add_argument("--alphas", metavar="LIST", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--calibrated", action="store_true", help="use curve-fitted aggregates")
    p.add_argument("--util-mode", choices=("avg", "conservative"), default="conservative")
    _add_output_flags(p)

    p = sub.add_parser("savings", help="footprint improvement over a DSA population")
    p.add_argument("--dsas", type=int, default=scen_mod.DEFAULT_DSA_POPULATION)
    p.add_argument("--alpha", type=float, default=scen_mod.DEFAULT_ALPHA)
    p.add_argument("--n", metavar="LO:HI", default="1:5")
    p.add_argument("--dataset", metavar="PATH")
    p.add_argument("--calibrated", action="store_true")
    _add_output_flags(p)

    p = sub.add_parser("hybrid", help="savings when some kernels stay dedicated")
    p.add_argument("--retain", metavar="NAMES", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dsas", type=int, default=scen_mod.DEFAULT_DSA_POPULATION)
    p.add_argument("--alpha", type=float, default=scen_mod.DEFAULT_ALPHA)
    p.add_argument("--dataset", metavar="PATH")
    p.add_argument("--calibrated", action="store_true")
    _add_output_flags(p)

    p = sub.add_parser("alpha", help="embodied weight from a breakdown or device class")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--breakdown", metavar="K=V,...")
    group.add_argument("--device", metavar="CLASS")
    _add_output_flags(p)

    p = sub.add_parser("calibrate", help="fit aggregates to two (alpha, CDC) points")
    p.add_argument("--points", metavar="A1:C1,A2:C2", required=True)
    p.add_argument("--n", type=int, default=1)
    _add_output_flags(p)

    p = sub.add_parser("dataset", help="inspect or validate a kernel dataset")
    p.add_argument("action", choices=("validate", "show"))
    p.add_argument("path", nargs="?", metavar="PATH")
    _add_output_flags(p)

    # the alpha, calibrate and dataset reports have no curve or ratio column to chart
    for name in ("cdc", "sweep", "scenario", "savings", "hybrid"):
        sub.choices[name].add_argument("--plot", metavar="PATH.svg", help="also render an SVG chart")
    return parser


def _parse_float_list(raw: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"{flag}: expected a comma-separated number list, got {raw!r}") from None
    if not values:
        raise UsageError(f"{flag}: empty list")
    return values


def _parse_span(raw: str, flag: str) -> tuple[float, float, float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise UsageError(f"{flag}: expected LO:HI:STEP, got {raw!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"{flag}: expected numbers in LO:HI:STEP, got {raw!r}") from None
    return lo, hi, step


def _parse_int_span(raw: str, flag: str) -> tuple[int, int]:
    parts = raw.split(":")
    if len(parts) == 1:
        parts = [parts[0], parts[0]]
    if len(parts) != 2:
        raise UsageError(f"{flag}: expected LO:HI, got {raw!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"{flag}: expected integers in LO:HI, got {raw!r}") from None
    if hi < lo:
        raise UsageError(f"{flag}: need LO <= HI, got {raw!r}")
    return lo, hi


def _parse_points(raw: str) -> list[tuple[float, float]]:
    points = []
    for chunk in raw.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise UsageError(f"--points: expected ALPHA:CDC pairs, got {chunk!r}")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise UsageError(f"--points: expected numbers in {chunk!r}") from None
    return points


def _parse_breakdown(raw: str) -> DeviceBreakdown:
    expected = {"production", "transport", "use", "eol"}
    values: dict[str, float] = {}
    for chunk in raw.split(","):
        if "=" not in chunk:
            raise UsageError(f"--breakdown: expected K=V, got {chunk!r}")
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key not in expected:
            raise UsageError(f"--breakdown: unknown phase {key!r} (expected {sorted(expected)})")
        try:
            values[key] = float(value)
        except ValueError:
            raise UsageError(f"--breakdown: {key} is not a number: {value!r}") from None
    missing = expected - values.keys()
    if missing:
        raise UsageError(f"--breakdown: missing phase(s): {sorted(missing)}")
    return DeviceBreakdown(**{f"{phase}_pct": value for phase, value in values.items()})


def _dataset_format(path: str) -> str:
    suffix = os.path.splitext(path)[1].lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".json":
        return "json"
    raise DatasetError(f"cannot infer dataset format from {path!r} (expected .csv or .json)")


def _resolve_dataset(path: str | None) -> KernelDataset:
    path = path or os.environ.get(DATASET_ENV_VAR)
    if not path:
        return builtin_dataset()
    try:
        return load_dataset(path, _dataset_format(path))
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path!r}: {exc}") from None


def _case_i_aggregates(ds: KernelDataset, calibrated: bool) -> AggregateRatios:
    """CASE-I's aggregates: fitted to its reference anchors, or the means of every kernel, as CASE-I excludes none."""
    return scen_mod.calibrated_aggregates("I", ds) if calibrated else aggregate(ds)


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


def _cmd_sweep(args: argparse.Namespace) -> list[SweepResult]:
    lo, hi, step = _parse_span(args.alpha, "--alpha")
    require_alpha(lo)
    require_alpha(hi)
    areas = _parse_float_list(args.areas, "--areas")
    energies = _parse_float_list(args.energies, "--energies")
    points = step_count(lo, hi, step) * len(areas) * len(energies)
    if points > MAX_SWEEP_POINTS:
        raise InvalidRange(f"sweep of {points} points exceeds the cap of {MAX_SWEEP_POINTS} points")
    return sweep_grid(float_steps(lo, hi, step), areas, energies, n=args.n)


def _cmd_scenario(args: argparse.Namespace) -> list[SweepResult]:
    alphas = _parse_float_list(args.alphas, "--alphas")
    cases = [c.strip() for c in args.case.split(",") if c.strip()]
    if not cases:
        raise UsageError("--case: empty case list")
    ds = _resolve_dataset(args.dataset)
    mode = ScaleMode.AVERAGE_UTILIZATION if args.util_mode == "avg" else ScaleMode.CONSERVATIVE
    sweeps = []
    for case in cases:
        spec = scen_mod.builtin_case(case, n=args.n, scale_mode=mode)
        agg = scen_mod.calibrated_aggregates(case, ds) if args.calibrated else None
        sweeps.append(scen_mod.evaluate_cdc_table(spec, alphas, dataset=ds, aggregates=agg))
    return sweeps


def _cmd_savings(args: argparse.Namespace) -> RenderedReport:
    n_lo, n_hi = _parse_int_span(args.n, "--n")
    rows = n_hi - n_lo + 1
    if rows > MAX_SAVINGS_ROWS:
        raise InvalidRange(f"savings over {rows} values of n exceeds the cap of {MAX_SAVINGS_ROWS} rows")
    ds = _resolve_dataset(args.dataset)
    # every n maps the same kernels, so one aggregate serves all rows
    agg = _case_i_aggregates(ds, args.calibrated)
    records = []
    for n in range(n_lo, n_hi + 1):
        spec = scen_mod.builtin_case("I", n=n, alpha=args.alpha, dsa_population=args.dsas)
        result = scen_mod.savings_factor(spec, dataset=ds, aggregates=agg)
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
    retained = sorted({name.strip() for name in args.retain.split(",") if name.strip()})
    if not retained:
        raise UsageError("--retain: empty kernel list")
    ds = _resolve_dataset(args.dataset)
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
    baseline = scen_mod.savings_factor(spec, dataset=ds, aggregates=agg)
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
        weights = alpha_from_breakdown(_parse_breakdown(args.breakdown))
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
    points = _parse_points(args.points)
    agg = fit_aggregates(points, n=args.n)
    return RenderedReport(
        columns=(
            Column("area", "area", "num"),
            Column("energy", "energy", "num"),
            Column("points", "points"),
        ),
        records=((agg.area, agg.energy, ";".join(f"{a:g}:{c:g}" for a, c in points)),),
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


def _render(result: RenderedReport | list[SweepResult], format: str, out: IO[str]) -> None:
    """Write `result` to `out`; curves are written curve by curve."""
    if isinstance(result, RenderedReport):
        out.write(emit_table(result, format))
    else:
        write_curves(result, format, out)


def _render_plot(result: RenderedReport | list[SweepResult], scenario_curves: bool) -> str:
    """The SVG chart of `result`: grouped bars for several scenario curves, else lines or the report's ratios."""
    from .svg import grouped_bar_chart, line_chart

    if not isinstance(result, RenderedReport):
        if scenario_curves and len(result) > 1:
            groups = [s.label for s in result]
            series = [
                (f"alpha={alpha:g}", [s.values[i] for s in result])
                for i, alpha in enumerate(result[0].parameters)
            ]
            return grouped_bar_chart(groups, series)
        return line_chart(result)
    label_col = result.columns[0]
    groups = [result.cell(r[0], label_col) for r in result.records]
    series = []
    for i, column in enumerate(result.columns):
        values = [r[i] for r in result.records]
        if column.kind == "ratio" and None not in values:
            series.append((column.header, [float(v) for v in values]))
    return grouped_bar_chart(groups, series, y_label="improvement (x)", x_label=label_col.header)


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
    parser = build_parser()
    try:
        # argparse prints usage and help itself; route it to the given streams
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = _COMMANDS[args.command](args)
        if getattr(args, "plot", None):
            chart = _render_plot(result, scenario_curves=args.command == "scenario")
            _write_file(args.plot, lambda fh: fh.write(chart))
        if getattr(args, "out", None):
            _write_file(args.out, lambda fh: _render(result, args.format, fh))
        else:
            _render(result, args.format, out)
        return EXIT_OK
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
