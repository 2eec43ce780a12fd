"""Seeded workloads: the inputs, the CLI invocations and their expected answers.

Everything here is set-up: it runs before timing starts. Each workload function
draws its parameters from a `random.Random` seeded by the run's seed and
the workload name, writes any input files into the run's work directory
and returns the invocations with a check for each.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from checks import Col, Kernel

# The bundled set flags 6 of its 8 kernels as estimated; generated sets keep
# that share so the estimated-kernel footnote grows with the kernel count.
ESTIMATED_SHARE = (6, 8)
DOMAINS = sorted({row[1] for row in checks.BUNDLED_KERNELS})
FABRIC_MEMORY_KB = 256.0

SWEEP_ALPHAS, SWEEP_AREAS, SWEEP_ENERGIES = 1000, 30, 30
DATASET_LOAD_KERNELS = 100_000
SCENARIO_KERNELS = 20_000
SCENARIO_ALPHAS = 19
COLD_MIX_KERNELS = 64


@dataclass
class Invocation:
    """One CLI call: its argv, where its payload lands and how to check it."""

    label: str
    args: list[str]
    output: Path | None = None  # the --out file; None means stdout
    check: Callable[[Path], list[str]] | None = None
    plot: Path | None = None
    plot_series: int = 0


@dataclass
class Plan:
    name: str
    sizes: dict
    invocations: list[Invocation] = field(default_factory=list)


# --- generated inputs ----------------------------------------------------------


def generate_kernels(rng: random.Random, count: int) -> list[Kernel]:
    """`count` kernels: the 8 bundled ones at seeded positions, the rest drawn.

    Exactly count * 6/8 are flagged estimated, the bundled set's share.
    """
    num, den = ESTIMATED_SHARE
    if count % den or count < len(checks.BUNDLED_KERNELS):
        raise ValueError(f"kernel count must be a multiple of {den} and at least 8: {count}")
    bundled = checks.bundled_kernels()
    extra = count - len(bundled)
    extra_estimated = count * num // den - sum(k.estimated for k in bundled)
    flags = [True] * extra_estimated + [False] * (extra - extra_estimated)
    rng.shuffle(flags)
    drawn = [
        Kernel(
            name=f"K{i:06d}",
            domain=rng.choice(DOMAINS),
            area=round(rng.uniform(0.01, 0.6), 4),
            energy=round(rng.uniform(0.01, 0.6), 4),
            utilization=round(rng.uniform(0.2, 1.0), 3),
            memory_kb=round(rng.uniform(0.5, FABRIC_MEMORY_KB), 1),
            estimated=flag,
        )
        for i, flag in enumerate(flags)
    ]
    for kernel in bundled:
        drawn.insert(rng.randrange(len(drawn) + 1), kernel)
    return drawn


def kernels_csv(kernels: list[Kernel]) -> str:
    lines = ["name,domain,area_norm,energy_norm,utilization,memory_kb,estimated"]
    for k in kernels:
        lines.append(
            f"{k.name},{k.domain},{k.area!r},{k.energy!r},{k.utilization!r},{k.memory_kb!r},{int(k.estimated)}"
        )
    return "\n".join(lines) + "\n"


def kernels_json(kernels: list[Kernel], provenance: str) -> str:
    doc = {
        "version": 1,
        "provenance": provenance,
        "fabric": {"rows": 8, "cols": 8, "memory_banks": 32, "memory_kb": FABRIC_MEMORY_KB, "clock_mhz": 100.0},
        "kernels": [
            {
                "name": k.name,
                "domain": k.domain,
                "area_norm": k.area,
                "energy_norm": k.energy,
                "utilization": k.utilization,
                "memory_kb": k.memory_kb,
                "estimated": k.estimated,
            }
            for k in kernels
        ],
    }
    return json.dumps(doc) + "\n"


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{seed}:{workload}")


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


# --- expected reports ------------------------------------------------------------

CDC_COLS = (
    Col("alpha_e2o", "alpha_e2o", "num"),
    Col("area", "area", "num"),
    Col("energy", "energy", "num"),
    Col("n", "n", "int"),
    Col("n_prime", "scale", "scale"),
    Col("cdc", "cdc", "ratio"),
    Col("min_replace", "min_replace", "int"),
)
SAVINGS_COLS = (
    Col("n", "n", "int"),
    Col("n_prime_avg", "scale_avg_util", "scale"),
    Col("improvement_avg_util", "improvement_avg_util", "ratio"),
    Col("improvement_conservative", "improvement_conservative", "ratio"),
)
HYBRID_COLS = (
    Col("retained", "retained", "str"),
    Col("n", "n", "int"),
    Col("dsas", "dsa_population", "int"),
    Col("alpha_e2o", "alpha_e2o", "num"),
    Col("improvement", "improvement", "ratio"),
    Col("baseline_avg_util", "baseline_avg_util", "ratio"),
)
ALPHA_COLS = (
    Col("source", "source", "str"),
    Col("alpha_e2o", "alpha_e2o", "num"),
    Col("alpha_low", "alpha_low", "num"),
    Col("alpha_high", "alpha_high", "num"),
)
CALIBRATE_COLS = (Col("area", "area", "num"), Col("energy", "energy", "num"), Col("points", "points", "str"))
STATUS_COLS = (Col("dataset", "dataset", "str"), Col("status", "status", "str"))
SHOW_COLS = (
    Col("name", "name", "str"),
    Col("domain", "domain", "str"),
    Col("area_norm", "area_norm", "num"),
    Col("energy_norm", "energy_norm", "num"),
    Col("utilization", "utilization", "num"),
    Col("memory_kb", "memory_kb", "num"),
    Col("estimated", "estimated", "str"),
)


def _report(fmt: str, cols, rows, notes=()) -> Callable[[Path], list[str]]:
    return lambda path: checks.check_report(fmt, _read(path), cols, rows, notes)


def _fmt_args(fmt: str) -> list[str]:
    return [] if fmt == "table" else ["--format", fmt]


def cdc_invocation(alpha, area, energy, n, fmt, *, scale=None, avg_kernels=None) -> Invocation:
    args = ["cdc", "--alpha", repr(alpha), "--area", repr(area), "--energy", repr(energy), "--n", str(n)]
    notes = ()
    if scale is not None:
        args += ["--scale", repr(scale)]
        n_prime = scale
    elif avg_kernels is not None:
        args += ["--util-mode", "avg"]
        n_prime = checks.avg_scale(n, checks.mean([k.utilization for k in avg_kernels]))
        notes = (checks.estimated_note(avg_kernels),)
    else:
        n_prime = float(n)
    value = checks.cdc(alpha, area, energy, n, n_prime)
    row = (alpha, area, energy, n, n_prime, value, math.floor(value) + 1)
    return Invocation(f"cdc-{fmt}", args + _fmt_args(fmt), check=_report(fmt, CDC_COLS, [row], notes))


def sweep_rows(alphas, areas, energies, n):
    return [(label, a, v, n, float(n)) for label, a, v in checks.sweep_points(alphas, areas, energies, n)]


def scenario_rows(kernels, cases, alphas, n, util_avg, calibrated):
    rows = []
    for case in cases:
        members = checks.included(kernels, checks.CASE_EXCLUSIONS[case])
        agg = checks.case_aggregates(kernels, case, calibrated)
        if util_avg:
            scale = checks.avg_scale(n, checks.mean([k.utilization for k in members]))
        else:
            scale = float(n)
        for alpha in sorted(set(alphas)):
            rows.append((f"CASE-{case}", alpha, checks.cdc(alpha, agg.area, agg.energy, n, scale), n, scale))
    return rows


def scenario_note(kernels, cases) -> str:
    members = {k.name: k for case in cases for k in checks.included(kernels, checks.CASE_EXCLUSIONS[case])}
    return checks.estimated_note(members.values())


def savings_rows(kernels, dsas, alpha, n_lo, n_hi, calibrated):
    agg = checks.case_aggregates(kernels, "I", calibrated)
    rows = []
    for n in range(n_lo, n_hi + 1):
        dsa = checks.dsa_footprint(alpha, dsas, n, agg)
        if n == 1:
            rows.append((n, None, None, dsa / 1.0))
        else:
            scale = checks.avg_scale(n, agg.utilization)
            rows.append((n, scale, dsa / scale, dsa / float(n)))
    return rows


def hybrid_row(kernels, retained, n, dsas, alpha, calibrated):
    full = checks.case_aggregates(kernels, "I", calibrated)
    numerator = checks.dsa_footprint(alpha, dsas, n, full)
    by_name = {k.name: k for k in kernels}
    retained_cost = sum(alpha * by_name[r].area + (1.0 - alpha) * by_name[r].energy for r in retained)
    rest = checks.included(kernels, retained)
    sub_scale = checks.avg_scale(n - len(retained), checks.mean([k.utilization for k in rest]))
    improvement = numerator / (sub_scale + retained_cost)
    baseline = numerator / checks.avg_scale(n, full.utilization)
    return (",".join(sorted(retained)), n, dsas, alpha, improvement, baseline)


# --- the five workloads ------------------------------------------------------------


def _alpha_list(rng: random.Random, count: int) -> list[float]:
    """`count` distinct alphas in [0.05, 1] on a 0.001 grid, ascending."""
    return [a / 1000 for a in sorted(rng.sample(range(50, 1001), count))]


def _sweep_axes(rng, alphas, areas, energies):
    """LO, HI, STEP for `alphas` samples, the samples, and the area and energy lists."""
    lo = round(rng.uniform(0.01, 0.05), 4)
    step = round((0.99 - lo) / alphas, 7)
    # HI sits half a step past the last sample, clear of float drift at the end
    hi = lo + (alphas - 0.5) * step
    area_list = sorted({round(rng.uniform(0.02, 0.6), 3) for _ in range(areas * 3)})
    energy_list = sorted({round(rng.uniform(0.02, 0.9), 3) for _ in range(energies * 3)})
    samples = checks.alpha_steps(lo, step, alphas)
    return lo, hi, step, samples, rng.sample(area_list, areas), rng.sample(energy_list, energies)


def _sweep_args(lo, hi, step, areas, energies, n):
    return [
        "sweep",
        "--alpha", f"{lo!r}:{hi!r}:{step!r}",
        "--areas", ",".join(repr(a) for a in areas),
        "--energies", ",".join(repr(e) for e in energies),
        "--n", str(n),
    ]


def build_cold_mix(seed: int, work: Path) -> Plan:
    rng = _rng(seed, "cold_mix")
    bundled = checks.bundled_kernels()
    plan = Plan("cold_mix", {})
    add = plan.invocations.append

    def draw_alpha():
        return round(rng.uniform(0.2, 0.95), 3)

    def draw_ratio():
        return round(rng.uniform(0.05, 0.5), 3)

    # cdc: every output format, explicit scale and the avg-utilization rule
    add(cdc_invocation(draw_alpha(), draw_ratio(), draw_ratio(), 1, "table"))
    add(cdc_invocation(draw_alpha(), draw_ratio(), draw_ratio(), rng.randint(1, 3), "csv"))
    n = rng.randint(1, 3)
    add(cdc_invocation(draw_alpha(), draw_ratio(), draw_ratio(), n, "json", scale=n + round(rng.uniform(0, 2), 2)))
    add(cdc_invocation(draw_alpha(), draw_ratio(), draw_ratio(), rng.randint(1, 3), "table", avg_kernels=bundled))
    add(cdc_invocation(draw_alpha(), draw_ratio(), draw_ratio(), rng.randint(2, 3), "json", avg_kernels=bundled))

    # sweep: small grids in all formats, one with --out, one with --plot
    for i, fmt in enumerate(("table", "csv", "json", "table")):
        lo, hi, step, alphas, areas, energies = _sweep_axes(rng, rng.randint(6, 12), 2, 2)
        n = 1 + i % 2
        args = _sweep_args(lo, hi, step, areas, energies, n) + _fmt_args(fmt)
        inv = Invocation(f"sweep-{fmt}", args)
        if fmt == "csv":
            points = list(checks.sweep_points(alphas, areas, energies, n))
            inv.check = lambda p, points=points: checks.check_curve_csv(_read(p).splitlines(), points)
        else:
            inv.check = _report(fmt, checks.SWEEP_COLS, sweep_rows(alphas, areas, energies, n))
        if i == 2:
            inv.plot, inv.plot_series = work / "sweep.svg", len(areas) * len(energies)
            inv.args += ["--plot", str(inv.plot)]
        if i == 3:
            inv.output = work / "sweep-out.txt"
            inv.args += ["--out", str(inv.output)]
        add(inv)

    # scenario: one case, all cases with a plot, calibrated, avg-util as curve CSV
    specs = [
        (("I",), "table", False, False, False),
        (("I", "II", "III"), "table", False, False, True),
        (("II",), "json", True, False, False),
        (("I", "III"), "csv", False, True, False),
    ]
    for cases, fmt, calibrated, util_avg, plot in specs:
        alphas = _alpha_list(rng, rng.randint(3, 6))
        n = rng.randint(1, 3)
        args = ["scenario", "--case", ",".join(cases), "--alphas", ",".join(repr(a) for a in alphas), "--n", str(n)]
        if calibrated:
            args.append("--calibrated")
        if util_avg:
            args += ["--util-mode", "avg"]
        rows = scenario_rows(bundled, cases, alphas, n, util_avg, calibrated)
        inv = Invocation(f"scenario-{fmt}", args + _fmt_args(fmt))
        if fmt == "csv":
            points = [(r[0], r[1], r[2]) for r in rows]
            inv.check = lambda p, points=points: checks.check_curve_csv(_read(p).splitlines(), points)
        else:
            inv.check = _report(fmt, checks.SWEEP_COLS, rows, (scenario_note(bundled, cases),))
        if plot:
            inv.plot, inv.plot_series = work / "scenario.svg", len(alphas)
            inv.args += ["--plot", str(inv.plot)]
        add(inv)

    # savings and hybrid, arithmetic and calibrated
    note = checks.estimated_note(bundled)
    for fmt, calibrated in (("table", False), ("json", True), ("csv", False)):
        dsas, alpha = rng.randint(10, 60), draw_alpha()
        n_lo = rng.randint(1, 2)
        n_hi = n_lo + rng.randint(1, 3)
        args = ["savings", "--dsas", str(dsas), "--alpha", repr(alpha), "--n", f"{n_lo}:{n_hi}"]
        args += ["--calibrated"] if calibrated else []
        rows = savings_rows(bundled, dsas, alpha, n_lo, n_hi, calibrated)
        add(Invocation(f"savings-{fmt}", args + _fmt_args(fmt), check=_report(fmt, SAVINGS_COLS, rows, (note,))))
    names = [k.name for k in bundled]
    for fmt, calibrated in (("table", False), ("json", False), ("csv", True)):
        retained = sorted(rng.sample(names, rng.randint(1, 2)))
        n = len(retained) + rng.randint(1, 2)
        dsas, alpha = rng.randint(10, 60), draw_alpha()
        args = ["hybrid", "--retain", ",".join(retained), "--n", str(n), "--dsas", str(dsas), "--alpha", repr(alpha)]
        args += ["--calibrated"] if calibrated else []
        row = hybrid_row(bundled, retained, n, dsas, alpha, calibrated)
        add(Invocation(f"hybrid-{fmt}", args + _fmt_args(fmt), check=_report(fmt, HYBRID_COLS, [row], (note,))))

    # alpha from lifecycle breakdowns and device presets
    for fmt in ("table", "csv"):
        parts = [rng.uniform(1, 10) for _ in range(4)]
        pct = [round(100 * p / sum(parts), 2) for p in parts]
        pct[0] = round(100 - sum(pct[1:]), 2)
        production, transport, use, eol = pct
        args = ["alpha", "--breakdown", f"production={production},transport={transport},use={use},eol={eol}"]
        alpha = (production + transport + eol) / (production + transport + use + eol)
        add(Invocation(f"alpha-{fmt}", args + _fmt_args(fmt),
                       check=_report(fmt, ALPHA_COLS, [("breakdown", alpha, None, None)])))
    for fmt in ("table", "json"):
        device = rng.choice(sorted(checks.DEVICE_BANDS))
        low, high = checks.DEVICE_BANDS[device]
        add(Invocation(f"alpha-{fmt}", ["alpha", "--device", device] + _fmt_args(fmt),
                       check=_report(fmt, ALPHA_COLS, [(device, (low + high) / 2, low, high)])))

    # calibrate: two points on a known (A, E) curve must fit back to it
    for fmt in ("table", "json"):
        area, energy = draw_ratio(), draw_ratio()
        alphas = sorted(rng.sample([0.2, 0.3, 0.5, 0.7, 0.9], 2))
        points = [(a, checks.cdc(a, area, energy)) for a in alphas]
        args = ["calibrate", "--points", ",".join(f"{a!r}:{c!r}" for a, c in points)]
        shown = ";".join(f"{a:g}:{c:g}" for a, c in points)
        add(Invocation(f"calibrate-{fmt}", args + _fmt_args(fmt),
                       check=_report(fmt, CALIBRATE_COLS, [(area, energy, shown)])))

    # dataset: show and validate the bundled set, validate generated files
    show_rows = [(k.name, k.domain, k.area, k.energy, k.utilization, k.memory_kb, "yes" if k.estimated else "no")
                 for k in bundled]
    for fmt in ("table", "json"):
        add(Invocation(f"dataset-show-{fmt}", ["dataset", "show"] + _fmt_args(fmt),
                       check=_report(fmt, SHOW_COLS, show_rows, (note,))))
    builtin_name = "bundled 8-kernel ASIC-vs-CGRA reference set (40 nm, 100 MHz, iso-performance)"
    add(Invocation("dataset-validate-builtin", ["dataset", "validate"],
                   check=_report("table", STATUS_COLS, [(builtin_name, "ok")])))
    kernels = generate_kernels(rng, COLD_MIX_KERNELS)
    csv_path, json_path = work / "small.csv", work / "small.json"
    provenance = f"generated {COLD_MIX_KERNELS}-kernel set, seed {seed}"
    csv_path.write_text(kernels_csv(kernels), encoding="utf-8")
    json_path.write_text(kernels_json(kernels, provenance), encoding="utf-8")
    add(Invocation("dataset-validate-csv", ["dataset", "validate", str(csv_path), "--format", "csv"],
                   check=_report("csv", STATUS_COLS, [("(unnamed)", "ok")])))
    add(Invocation("dataset-validate-json", ["dataset", "validate", str(json_path), "--format", "json"],
                   check=_report("json", STATUS_COLS, [(provenance, "ok")])))

    plan.sizes = {"invocations": len(plan.invocations), "dataset_kernels": COLD_MIX_KERNELS}
    return plan


def _build_sweep(seed: int, work: Path, fmt: str) -> Plan:
    name = f"sweep_{fmt}"
    rng = _rng(seed, name)
    lo, hi, step, alphas, areas, energies = _sweep_axes(rng, SWEEP_ALPHAS, SWEEP_AREAS, SWEEP_ENERGIES)
    out = work / f"sweep.{fmt}"
    args = _sweep_args(lo, hi, step, areas, energies, 1) + ["--format", fmt, "--out", str(out)]

    def check(path: Path) -> list[str]:
        points = checks.sweep_points(alphas, areas, energies, 1)
        with open(path, encoding="utf-8", newline="") as fh:
            if fmt == "csv":
                return checks.check_curve_csv(fh, points)
            return checks.check_sweep_table(fh, points, 1)

    sizes = {"alphas": SWEEP_ALPHAS, "areas": SWEEP_AREAS, "energies": SWEEP_ENERGIES,
             "points": SWEEP_ALPHAS * SWEEP_AREAS * SWEEP_ENERGIES}
    return Plan(name, sizes, [Invocation(name, args, output=out, check=check)])


def build_sweep_csv(seed: int, work: Path) -> Plan:
    return _build_sweep(seed, work, "csv")


def build_sweep_table(seed: int, work: Path) -> Plan:
    return _build_sweep(seed, work, "table")


def build_dataset_load(seed: int, work: Path) -> Plan:
    rng = _rng(seed, "dataset_load")
    kernels = generate_kernels(rng, DATASET_LOAD_KERNELS)
    provenance = f"generated {DATASET_LOAD_KERNELS}-kernel set, seed {seed}"
    csv_path, json_path = work / "kernels.csv", work / "kernels.json"
    csv_path.write_text(kernels_csv(kernels), encoding="utf-8")
    json_path.write_text(kernels_json(kernels, provenance), encoding="utf-8")
    plan = Plan("dataset_load", {
        "kernels": DATASET_LOAD_KERNELS,
        "csv_bytes": csv_path.stat().st_size,
        "json_bytes": json_path.stat().st_size,
    })
    plan.invocations = [
        Invocation("validate-csv", ["dataset", "validate", str(csv_path)],
                   check=_report("table", STATUS_COLS, [("(unnamed)", "ok")])),
        Invocation("validate-json", ["dataset", "validate", str(json_path), "--format", "json"],
                   check=_report("json", STATUS_COLS, [(provenance, "ok")])),
    ]
    return plan


def build_scenario_large(seed: int, work: Path) -> Plan:
    rng = _rng(seed, "scenario_large")
    kernels = generate_kernels(rng, SCENARIO_KERNELS)
    csv_path, json_path = work / "kernels.csv", work / "kernels.json"
    csv_path.write_text(kernels_csv(kernels), encoding="utf-8")
    json_path.write_text(kernels_json(kernels, f"generated {SCENARIO_KERNELS}-kernel set, seed {seed}"),
                         encoding="utf-8")
    alphas = _alpha_list(rng, SCENARIO_ALPHAS)
    cases = ("I", "II", "III")
    n = 2
    dsas, alpha = rng.randint(20, 60), round(rng.uniform(0.3, 0.9), 3)
    retained = ["AESEncrypt", "Viterbi"]
    note = checks.estimated_note(kernels)
    plan = Plan("scenario_large", {
        "kernels": SCENARIO_KERNELS,
        "estimated_kernels": sum(k.estimated for k in kernels),
        "alphas": SCENARIO_ALPHAS,
        "cases": len(cases),
    })
    plan.invocations = [
        Invocation(
            "scenario",
            ["scenario", "--case", ",".join(cases), "--util-mode", "avg", "--n", str(n),
             "--alphas", ",".join(repr(a) for a in alphas), "--dataset", str(csv_path), "--format", "json"],
            check=_report("json", checks.SWEEP_COLS, scenario_rows(kernels, cases, alphas, n, True, False),
                          (scenario_note(kernels, cases),)),
        ),
        Invocation(
            "savings",
            ["savings", "--n", "1:5", "--dsas", str(dsas), "--alpha", repr(alpha),
             "--dataset", str(csv_path), "--format", "csv"],
            check=_report("csv", SAVINGS_COLS, savings_rows(kernels, dsas, alpha, 1, 5, False), (note,)),
        ),
        Invocation(
            "hybrid",
            ["hybrid", "--retain", ",".join(retained), "--n", "4", "--dsas", str(dsas), "--alpha", repr(alpha),
             "--dataset", str(json_path)],
            check=_report("table", HYBRID_COLS, [hybrid_row(kernels, retained, 4, dsas, alpha, False)], (note,)),
        ),
    ]
    return plan


WORKLOADS = {
    "cold_mix": build_cold_mix,
    "sweep_csv": build_sweep_csv,
    "sweep_table": build_sweep_table,
    "dataset_load": build_dataset_load,
    "scenario_large": build_scenario_large,
}
