"""fabcarbon benchmark: seeded CLI workloads, checked outputs, per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation is a real CLI call in a fresh interpreter, spawned one at a
time (closed loop, one client) through `bench/shim.py` with PYTHONPATH=src.
A run generates its inputs from the seed, makes one untimed warm-up pass
that also checks every output against an independent recomputation, times
`import fabcarbon.cli` in a few fresh processes, then repeats the workload
for about S seconds. Later passes must reproduce the checked bytes, or are
checked again.

With --trace 0 the last stdout line holds the end-to-end metrics, medians
over the timed passes. With --trace 1 untraced and traced passes alternate
and the last line holds the per-layer metrics from the traced ones. A run
record goes to .bench_work/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SHIM = BENCH / "shim.py"

SETUP_PROBES = 7
MIN_CYCLES = 3
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SPANS = (
    "cli.import", "cli.run", "cli.build_parser", "cli.parse_args",
    "dataset.load_csv", "dataset.load_json", "dataset.validate_dataset", "dataset.without",
    "core.aggregate",
    "concurrency.scale_factor", "concurrency.average_utilization",
    "engine.sweep_grid",
    "scenarios.evaluate_cdc_table", "scenarios.savings_factor",
    "scenarios.hybrid_retained_savings", "scenarios.calibrated_aggregates",
    "report.sweep_report", "report.emit_table", "report.emit_curve_csv",
    "svg.render",
)
COUNTERS = {
    "dataset.kernels_loaded": "count",
    "dataset.bytes_read": "bytes",
    "core.kernels_aggregated": "count",
    "engine.points": "count",
    "report.records_built": "count",
    "report.rows_emitted": "count",
    "report.cell_calls": "count",
    "report.bytes_emitted": "bytes",
    "svg.bytes": "bytes",
}
LAYERS = ("cli", "dataset", "core", "concurrency", "engine", "scenarios", "report", "svg")
# Where the most self time was expected on each workload before the
# benchmark existed; the traced run reports whether it is.
PREDICTED_TOP = {
    "cold_mix": ("cli",),
    "sweep_csv": ("engine", "report"),
    "sweep_table": ("report.emit_table",),
    "dataset_load": ("dataset",),
    "scenario_large": ("report.sweep_report",),
}


def span_metric(span: str, part: str) -> str:
    """Metric name for one part (total, self, calls) of a span."""
    if span == "cli.run" and part == "self":
        return "cli.self_s"  # validation, dispatch and the payload write
    return {"total": f"{span}_s", "self": f"{span}_self_s", "calls": f"{span}_calls"}[part]


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPANS:
        units[span_metric(span, "total")] = "s"
        units[span_metric(span, "self")] = "s"
        units[span_metric(span, "calls")] = "count"
    units.update(COUNTERS)
    units["report.useful_records_ratio"] = "ratio"
    for layer in LAYERS:
        units[f"layer.{layer}_self_s"] = "s"
    units["layer.outside_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# --- spawning one invocation ------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    record: dict


def _child_env() -> dict[str, str]:
    # Children may cache bytecode whatever the caller's environment says, so
    # imports are timed the way an installed package runs: from .pyc files.
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("FABCARBON_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(args: list[str], mode: str, stdout: Path, stderr: Path, record: Path) -> Child:
    """Run the shim once and wait for it; wall time is spawn to exit."""
    argv = [sys.executable, str(SHIM), str(record), mode, *args]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    # Fresh files, never truncated ones: ext4 flushes a truncated-and-rewritten
    # file to disk on close, which would time the disk instead of the program.
    for path in (stdout, stderr, record):
        path.unlink(missing_ok=True)
    start = time.perf_counter_ns()
    pid = os.posix_spawn(sys.executable, argv, _child_env(), file_actions=actions)
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    end = time.perf_counter_ns()
    try:
        data = json.loads(record.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = {}
    return Child(
        wall_s=(end - start) / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        exit_code=os.waitstatus_to_exitcode(status),
        record=data,
    )


# --- passes ------------------------------------------------------------------------


@dataclass
class Pass:
    mode: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    imports_s: list[float] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)


class Runner:
    """Runs a plan's invocations and checks their outputs."""

    def __init__(self, plan: workloads.Plan, work: Path):
        self.plan = plan
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.verified: dict[int, str] = {}  # invocation index -> sha256 of checked output

    def digest(self, inv: workloads.Invocation, output: Path) -> str:
        h = hashlib.sha256()
        for path in (output, inv.plot):
            if path is not None and path.exists():
                with open(path, "rb") as fh:
                    for block in iter(lambda: fh.read(1 << 20), b""):
                        h.update(block)
            h.update(b"\0")
        return h.hexdigest()

    def _verify(self, index: int, inv: workloads.Invocation, output: Path) -> list[str]:
        if not output.exists():
            return [f"no output at {output.name}"]
        if inv.plot is not None and not inv.plot.exists():
            return ["no plot written"]
        sha = self.digest(inv, output)
        if self.verified.get(index) == sha:
            return []
        errors = inv.check(output) if inv.check else []
        if inv.plot is not None:
            errors += checks.check_svg(inv.plot.read_text(encoding="utf-8"), inv.plot_series)
        if not errors:
            self.verified[index] = sha
        return errors

    def run_pass(self, mode: str) -> Pass:
        result = Pass(mode)
        for i, inv in enumerate(self.plan.invocations):
            for path in (inv.output, inv.plot):
                if path is not None:
                    path.unlink(missing_ok=True)
            stdout, stderr = self.work / f"{i:02d}.stdout", self.work / f"{i:02d}.stderr"
            child = spawn(inv.args, mode, stdout, stderr, self.work / f"{i:02d}.record")
            self.attempted += 1
            errors = checks.run_ok(child.exit_code, stderr.read_text(encoding="utf-8", errors="replace"))
            if not errors:
                errors = self._verify(i, inv, inv.output or stdout)
            if errors:
                self.failures.append(f"{inv.label} ({mode}): " + "; ".join(errors))
            result.wall_s += child.wall_s
            result.cpu_s += child.cpu_s
            result.peak_rss_mb = max(result.peak_rss_mb, child.maxrss_kb / 1024)
            result.latencies_s.append(child.wall_s)
            if "import_ns" in child.record:
                result.imports_s.append(child.record["import_ns"] / 1e9)
            result.records.append(child.record)
        return result

    def probe_imports(self, count: int) -> list[float]:
        """Import time of `fabcarbon.cli` in `count` fresh processes that run nothing."""
        out = []
        for i in range(count):
            base = self.work / f"probe{i}"
            child = spawn([], "import", base.with_suffix(".stdout"), base.with_suffix(".stderr"),
                          base.with_suffix(".record"))
            if child.exit_code != 0 or "import_ns" not in child.record:
                raise RuntimeError(f"import probe failed with exit code {child.exit_code}")
            out.append(child.record["import_ns"] / 1e9)
        return out


def measure(runner: Runner, seconds: float, traced: bool) -> list[Pass]:
    """Timed passes for about `seconds`; with tracing, untraced and traced alternate.

    Another cycle starts only if the median cycle so far still fits, but
    at least MIN_CYCLES run so every median has three samples.
    """
    passes: list[Pass] = []
    cycle_times: list[float] = []
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        modes = ["run", "trace"] if traced else ["run"]
        if len(cycle_times) % 2:
            modes.reverse()
        for mode in modes:
            passes.append(runner.run_pass(mode))
        cycle_times.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - start
        if len(cycle_times) >= MIN_CYCLES and elapsed + statistics.median(cycle_times) > seconds:
            return passes


# --- metrics -----------------------------------------------------------------------


def end_to_end(passes: list[Pass], probes: list[float]) -> dict[str, float]:
    timed = [p for p in passes if p.mode == "run"]
    imports = probes + [t for p in timed for t in p.imports_s]
    return {
        "wall_s": statistics.median(p.wall_s for p in timed),
        "cpu_s": statistics.median(p.cpu_s for p in timed),
        "setup_s": statistics.median(imports),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in timed),
    }


def span_table(record: dict) -> dict[str, list[float]]:
    """name -> [calls, total s, self s] for one traced invocation."""
    spans = [(-1, 0, "cli.import", 0, record.get("import_ns", 0))]
    spans += [tuple(s) for s in record.get("spans", [])]
    child_ns: dict[int, int] = {}
    for _, parent, _, start, end in spans:
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    table: dict[str, list[float]] = {}
    for span_id, _, name, start, end in spans:
        entry = table.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) / 1e9
        entry[2] += (end - start - child_ns.get(span_id, 0)) / 1e9
    return table


def layer_values(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its invocations."""
    values = {name: 0.0 for name in per_layer_units()}
    top_level = 0.0
    for record in p.records:
        for name, (calls, total, self_s) in span_table(record).items():
            values[span_metric(name, "calls")] += calls
            values[span_metric(name, "total")] += total
            values[span_metric(name, "self")] += self_s
            values[f"layer.{name.split('.')[0]}_self_s"] += self_s
            if name in ("cli.import", "cli.run"):
                top_level += total
        for name, amount in record.get("counters", {}).items():
            values[name] += amount
    values["layer.outside_s"] = p.wall_s - top_level
    built = values["report.records_built"]
    values["report.useful_records_ratio"] = values["report.rows_emitted"] / built if built else 0.0
    return values


def per_layer(passes: list[Pass]) -> dict[str, float]:
    traced = [layer_values(p) for p in passes if p.mode == "trace"]
    metrics = {name: statistics.median(v[name] for v in traced) for name in per_layer_units()}
    untraced = statistics.median(p.wall_s for p in passes if p.mode == "run")
    metrics["trace.overhead_s"] = statistics.median(p.wall_s for p in passes if p.mode == "trace") - untraced
    return metrics


def top_self_time(workload: str, metrics: dict[str, float]) -> dict:
    """Largest self-time layer and span, compared with the prediction."""
    layer = max(LAYERS, key=lambda name: metrics[f"layer.{name}_self_s"])
    span = max(SPANS, key=lambda name: metrics[span_metric(name, "self")])
    predicted = PREDICTED_TOP[workload]
    return {
        "layer": layer,
        "layer_self_s": metrics[f"layer.{layer}_self_s"],
        "span": span,
        "span_self_s": metrics[span_metric(span, "self")],
        "outside_s": metrics["layer.outside_s"],
        "predicted": list(predicted),
        "matches": layer in predicted or span in predicted,
    }


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# --- run record ----------------------------------------------------------------------


def workload_why(name: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return next(w["why"] for w in spec["workloads"] if w["name"] == name)


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "fabcarbon" / "cli.py").is_file():
        print(f"error: no fabcarbon sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_start = time.perf_counter()
        plan = workloads.WORKLOADS[args.workload](args.seed, work)
        runner = Runner(plan, work)
        warmup = runner.run_pass("run")
        output_sha256 = {
            f"{i:02d}-{inv.label}": runner.digest(inv, inv.output or work / f"{i:02d}.stdout")
            for i, inv in enumerate(plan.invocations)
        }
        probes = runner.probe_imports(SETUP_PROBES)
        setup_wall = time.perf_counter() - setup_start
        passes = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    metrics = per_layer(passes) if args.trace else end_to_end(passes, probes)
    failed = len(runner.failures)
    latencies = [t for p in passes if p.mode == "run" for t in p.latencies_s]
    record = {
        "workload": plan.name,
        "why": workload_why(plan.name),
        "sizes": plan.sizes,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "clients": 1,
        "loop": "closed",
        "setup_wall_s": setup_wall,
        "warmup_wall_s": warmup.wall_s,
        "passes": [
            {"mode": p.mode, "wall_s": p.wall_s, "cpu_s": p.cpu_s, "peak_rss_mb": p.peak_rss_mb}
            for p in passes
        ],
        "invocation_latency_s": {
            "median": statistics.median(latencies),
            "p90": percentile(latencies, 0.9),
            "samples": len(latencies),
        },
        "attempted": runner.attempted,
        "failed": failed,
        "error_rate": failed / runner.attempted,
        "failures": runner.failures[:20],
        "output_sha256": output_sha256,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if args.trace:
        record["top_self_time"] = top_self_time(plan.name, metrics)
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{plan.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(f"{plan.name}: {len(passes)} timed passes, {runner.attempted} invocations, "
          f"error_rate {record['error_rate']:.4g} ratio", file=sys.stderr)
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}", file=sys.stderr)
    if args.trace:
        top = record["top_self_time"]
        print(f"  largest self time: layer {top['layer']} ({top['layer_self_s']:.4g} s), "
              f"span {top['span']} ({top['span_self_s']:.4g} s); predicted {'/'.join(top['predicted'])}: "
              f"{'match' if top['matches'] else 'differs'}", file=sys.stderr)
    for failure in runner.failures[:5]:
        print(f"  FAILED {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
