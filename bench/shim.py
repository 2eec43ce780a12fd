"""Child-side entry point: time `import fabcarbon.cli`, then run its `main()`.

Usage: python bench/shim.py RECORD MODE [CLI ARGS...]

MODE is `run` (time the import, run the CLI), `trace` (also record spans
around the calls the CLI makes into each module) or `import` (time the
import and exit). The record, written to RECORD as JSON when the process
ends, holds the import time and, when tracing, the spans and counters.

The program is driven only through `fabcarbon.cli.main`, never through
`python -m fabcarbon.cli`, so the package needs only to be on PYTHONPATH.
"""

import sys
import time

_T0 = time.perf_counter_ns()
import fabcarbon.cli as cli  # noqa: E402

_T1 = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402


class Tracer:
    """Spans and counters for one invocation, kept in memory until exit.

    A span is (id, parent id, name, start ns, end ns); the parent is the
    innermost span open when it started, so self time is derivable.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = {}
        self.next_id = 1

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, after=None):
        """`fn` recorded as span `name`; `name` may be a callable of the call's arguments."""
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else 0
            tracer.stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append((span_id, parent, span_name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced


def _payload_bytes(text):
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _replace_everywhere(original, replacement):
    """Rebind every fabcarbon module global that refers to `original`.

    The CLI and the library import functions by name, so patching only the
    defining module would miss the calls the CLI actually makes.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("fabcarbon"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer):
    """Wrap the public entry points of each fabcarbon module the CLI reaches."""
    import argparse

    from fabcarbon import concurrency, core, dataset, engine, report, scenarios, svg

    def load_name(args, kwargs):
        fmt = args[1] if len(args) > 1 else kwargs.get("format", "json")
        return f"dataset.load_{fmt}"

    def after_load(args, kwargs, ds):
        tracer.count("dataset.kernels_loaded", len(ds.kernels))
        source = args[0] if args else kwargs.get("source")
        if isinstance(source, (str, os.PathLike)):
            tracer.count("dataset.bytes_read", os.stat(source).st_size)

    def after_aggregate(args, kwargs, result):
        tracer.count("core.kernels_aggregated", len(args[0] if args else kwargs["kernels"]))

    def after_sweep_grid(args, kwargs, sweeps):
        tracer.count("engine.points", sum(len(s.samples) for s in sweeps))

    def after_emit_table(args, kwargs, payload):
        rep = args[0] if args else kwargs["report"]
        tracer.count("report.rows_emitted", len(rep.records))
        tracer.count("report.bytes_emitted", _payload_bytes(payload))

    def after_emit_curve(args, kwargs, payload):
        tracer.count("report.bytes_emitted", _payload_bytes(payload))

    def after_svg(args, kwargs, text):
        tracer.count("svg.bytes", _payload_bytes(text))

    functions = [
        (cli, "run", "cli.run", None),
        (cli, "build_parser", "cli.build_parser", None),
        (dataset, "load_dataset", load_name, after_load),
        (dataset, "validate_dataset", "dataset.validate_dataset", None),
        (core, "aggregate", "core.aggregate", after_aggregate),
        (concurrency, "scale_factor", "concurrency.scale_factor", None),
        (concurrency, "average_utilization", "concurrency.average_utilization", None),
        (engine, "sweep_grid", "engine.sweep_grid", after_sweep_grid),
        (scenarios, "evaluate_cdc_table", "scenarios.evaluate_cdc_table", None),
        (scenarios, "savings_factor", "scenarios.savings_factor", None),
        (scenarios, "hybrid_retained_savings", "scenarios.hybrid_retained_savings", None),
        (scenarios, "calibrated_aggregates", "scenarios.calibrated_aggregates", None),
        (report, "sweep_report", "report.sweep_report", None),
        (report, "emit_table", "report.emit_table", after_emit_table),
        (report, "emit_curve_csv", "report.emit_curve_csv", after_emit_curve),
        (svg, "line_chart", "svg.render", after_svg),
        (svg, "grouped_bar_chart", "svg.render", after_svg),
    ]
    for module, attr, name, after in functions:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(original, name, after))

    argparse.ArgumentParser.parse_args = tracer.wrap(
        argparse.ArgumentParser.parse_args, "cli.parse_args"
    )
    dataset.KernelDataset.without = tracer.wrap(dataset.KernelDataset.without, "dataset.without")

    # Counted, not timed: a span per table cell would dwarf the cell itself.
    cell = report.RenderedReport.cell

    def counted_cell(self, record, column):
        tracer.counters["report.cell_calls"] += 1
        return cell(self, record, column)

    tracer.counters["report.cell_calls"] = 0
    report.RenderedReport.cell = counted_cell

    init = report.RenderedReport.__init__

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.count("report.records_built", len(self.records))

    report.RenderedReport.__init__ = counted_init


def main():
    record_path, mode = sys.argv[1], sys.argv[2]
    record = {"import_ns": _T1 - _T0}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        install(tracer)
    code = 0
    try:
        if mode != "import":
            sys.argv = ["fabcarbon"] + sys.argv[3:]
            cli.main()
    except SystemExit as exc:
        code = exc.code
    finally:
        if tracer is not None:
            record["spans"] = tracer.spans
            record["counters"] = tracer.counters
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
