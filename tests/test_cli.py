from __future__ import annotations

import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fabcarbon
import fabcarbon.cli
import fabcarbon.core
import fabcarbon.dataset
import fabcarbon.report
import fabcarbon.scenarios
from fabcarbon import builtin_dataset, dump_dataset
from fabcarbon.cli import DATASET_ENV_VAR, MAX_SAVINGS_ROWS, MAX_SWEEP_POINTS, run
from fabcarbon.engine import float_steps, sweep_grid

CSV_HEADER = "name,domain,area_norm,energy_norm,utilization,memory_kb,estimated\n"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


class TestCdcCommand:
    def test_reports_threshold_and_min_replace(self):
        code, out, _ = invoke("cdc", "--alpha", "0.8", "--area", "0.35", "--energy", "0.35", "--n", "1")
        assert code == 0
        assert "3.32" in out
        row = out.splitlines()[2].split()
        assert row[-1] == "4"

    def test_json_payload_full_precision(self):
        code, out, _ = invoke(
            "cdc", "--alpha", "0.8", "--area", "0.35", "--energy", "0.35", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)["records"][0]
        assert record["cdc"] == pytest.approx(3.321428571428572, rel=1e-15)
        assert record["min_replace"] == 4

    def test_alpha_pole_is_usage_error(self):
        code, out, err = invoke("cdc", "--alpha", "0", "--area", "0.35", "--energy", "0.35")
        assert code == 2
        assert "pole" in err
        assert out == ""

    def test_avg_util_mode_uses_dataset_mean(self):
        code, out, _ = invoke(
            "cdc", "--alpha", "0.8", "--area", "0.35", "--energy", "0.35",
            "--n", "2", "--util-mode", "avg", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["records"][0]["scale"] == pytest.approx(1.28)

    def test_scale_conflicts_with_util_mode(self):
        code, _, _ = invoke(
            "cdc", "--alpha", "0.8", "--area", "0.35", "--energy", "0.35",
            "--scale", "2.0", "--util-mode", "avg",
        )
        assert code == 2


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("cdc",),  # missing required flags
            ("cdc", "--alpha", "0.8", "--area", "0.35", "--energy", "0.35", "--n", "0"),
            ("nonsense",),
            ("sweep", "--alpha", "0.9:0.1:0.1"),
            ("sweep", "--alpha", "0.1-0.9-0.1"),
            ("savings", "--n", "5:1"),
            ("savings", "--alpha", "1.5"),
            ("alpha", "--breakdown", "production=80"),
            ("alpha", "--breakdown", "nonsense=1"),
            ("alpha",),  # one of the two sources required
            ("hybrid", "--retain", "AESEncrypt"),  # missing --n
            ("dataset", "munge"),
            # reports with no curve or ratio column take no --plot
            ("alpha", "--device", "laptop", "--plot", "chart.svg"),
            ("calibrate", "--points", "0.3:9.773,0.9:4.01", "--plot", "chart.svg"),
            ("dataset", "show", "--plot", "chart.svg"),
        ],
    )
    def test_exit_code_two(self, argv):
        code, _, _ = invoke(*argv)
        assert code == 2


class TestDataErrors:
    def test_missing_dataset_file(self):
        code, _, err = invoke("dataset", "validate", "/no/such/file.csv")
        assert code == 1 and "file.csv" in err

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("x")
        code, _, err = invoke("dataset", "validate", str(path))
        assert code == 1 and "format" in err

    def test_invalid_dataset_contents(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "X,test,0.3,0.3,1.2,10,0\n")
        code, _, err = invoke("dataset", "validate", str(path))
        assert code == 1
        assert "utilization out of (0, 1]" in err

    def test_unknown_retained_kernel(self):
        code, _, err = invoke("hybrid", "--retain", "NoSuchKernel", "--n", "4")
        assert code == 1
        assert "NoSuchKernel" in err

    def test_singular_calibration_points(self):
        code, _, err = invoke("calibrate", "--points", "0.5:2.0,0.5:3.0")
        assert code == 1
        assert "alpha" in err

    def test_breakdown_sum_violation(self):
        code, _, err = invoke("alpha", "--breakdown", "production=50,transport=10,use=50,eol=2")
        assert code == 1
        assert "sum" in err


class TestDatasetPlumbing:
    def test_show_builtin(self):
        code, out, _ = invoke("dataset", "show")
        assert code == 0
        assert "Stencil3D" in out and "8x8" in out

    def test_validate_builtin(self):
        code, out, _ = invoke("dataset", "validate")
        assert code == 0 and "ok" in out

    def test_custom_dataset_by_flag(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(CSV_HEADER + "Solo,test,0.5,0.5,1.0,10,0\n")
        code, out, _ = invoke("scenario", "--case", "I", "--alphas", "0.5", "--dataset", str(path), "--format", "json")
        assert code == 0
        record = json.loads(out)["records"][0]
        assert record["cdc"] == pytest.approx((1 - 0.5 * 0.5) / (0.5 * 0.5), rel=1e-12)

    def test_env_var_dataset(self, tmp_path, monkeypatch):
        path = tmp_path / "env.json"
        path.write_text(dump_dataset(builtin_dataset(), "json"))
        monkeypatch.setenv(DATASET_ENV_VAR, str(path))
        code, out, _ = invoke("dataset", "show")
        assert code == 0 and "GeMM" in out


class TestOutputsAndPlots:
    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "table.txt"
        code, out, _ = invoke(
            "savings", "--n", "1:3", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert "improvement_conservative" in target.read_text()

    def test_scenario_plot_has_twelve_bars(self, tmp_path):
        target = tmp_path / "cases.svg"
        code, _, _ = invoke(
            "scenario", "--case", "I,II,III", "--alphas", "0.3,0.5,0.7,0.9", "--plot", str(target)
        )
        assert code == 0
        import xml.etree.ElementTree as ET

        root = ET.parse(target).getroot()
        bars = [e for e in root.iter() if e.tag.endswith("rect") and e.get("class") == "bar"]
        assert len(bars) == 12

    def test_sweep_csv_is_curve_format(self):
        code, out, _ = invoke("sweep", "--alpha", "0.3:0.9:0.2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["series", "parameter", "value"]

    def test_savings_reference_row_display(self):
        code, out, _ = invoke("savings", "--dsas", "40", "--alpha", "0.7", "--n", "1:5", "--calibrated")
        assert code == 0
        lines = out.splitlines()
        first_data = lines[2].split()
        assert first_data[0] == "1" and first_data[1] == "-" and first_data[2] == "-"
        assert "7.61" in lines[2]

    def test_estimated_footnote_present_for_builtin_runs(self):
        code, out, _ = invoke("savings", "--n", "1:2")
        assert code == 0
        assert "estimated inputs" in out

    def test_byte_identical_reruns(self):
        a = invoke("scenario", "--case", "II", "--alphas", "0.3,0.7")
        b = invoke("scenario", "--case", "II", "--alphas", "0.3,0.7")
        assert a == b

    @pytest.mark.parametrize(
        "case",
        [
            "sweep --alpha 0.1:0.9:0.2 --areas 0.25,0.45 --energies 0.35 --format table",
            "scenario --case I,II,III --alphas 0.3,0.5,0.7,0.9 --format table",
            "sweep --alpha 0.1:0.9:0.2 --areas 0.25,0.45 --energies 0.35 --format json",
            "scenario --case I,II,III --alphas 0.3,0.5,0.7,0.9 --format json",
        ],
    )
    def test_curve_table_builds_no_report(self, monkeypatch, case):
        """Curve tables and JSON render from the curves: no per-point report is built for them."""

        def refuse(*args, **kwargs):
            raise AssertionError("a curve writer built a RenderedReport")

        monkeypatch.setattr(fabcarbon.report, "sweep_report", refuse)
        monkeypatch.setattr(fabcarbon.report.RenderedReport, "__init__", refuse)
        golden = json.loads(Path(__file__).with_name("golden_outputs.json").read_text(encoding="utf-8"))
        assert invoke(*case.split()) == (0, golden[case], "")


# 1000 alphas x 10 areas x 10 energies = 100k points, about 4 MB of CSV
STREAM_SPAN = (0.0005, 0.9995, 0.001)
STREAM_GRID = [round(0.05 * i, 2) for i in range(1, 11)]
STREAM_SWEEP = (
    "sweep", "--alpha", ":".join(map(str, STREAM_SPAN)),
    "--areas", ",".join(map(str, STREAM_GRID)), "--energies", ",".join(map(str, STREAM_GRID)),
)


class TestStreamedOutput:
    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    @pytest.mark.parametrize(
        "case",
        [
            "sweep --alpha 0.1:0.9:0.2 --areas 0.25,0.45 --energies 0.35,0.5 --n 2",
            "scenario --case I,II,III --alphas 0.3,0.5,0.7,0.9 --util-mode avg --n 2",
        ],
    )
    def test_out_file_equals_stdout(self, tmp_path, case, fmt):
        target = tmp_path / "out.txt"
        code, printed, _ = invoke(*case.split(), "--format", fmt)
        assert code == 0
        assert invoke(*case.split(), "--format", fmt, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == printed.encode("utf-8")

    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    def test_rows_are_written_as_they_are_rendered(self, tmp_path, fmt):
        """Writing the curves adds little memory above the curves themselves.

        Rendering the whole text before writing it would hold at least
        one full copy of the output on top of the curves.
        """
        target = tmp_path / f"curves.{fmt}"
        invoke("sweep", "--alpha", "0.1:0.9:0.4", "--format", fmt, "--out", str(target))  # warm-up
        tracemalloc.start()
        try:
            curves = sweep_grid(float_steps(*STREAM_SPAN), STREAM_GRID, STREAM_GRID)
            curves_peak = tracemalloc.get_traced_memory()[1]
            del curves
            floor = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            code = run([*STREAM_SWEEP, "--format", fmt, "--out", str(target)], io.StringIO(), io.StringIO())
            run_peak = tracemalloc.get_traced_memory()[1] - floor
        finally:
            tracemalloc.stop()
        assert code == 0
        size = target.stat().st_size
        assert size > 4_000_000
        assert run_peak - curves_peak < size / 4


class TestAtomicOutput:
    @pytest.mark.parametrize("fmt", ["csv", "table", "json"])
    @pytest.mark.parametrize("old", ["old content\n", None])
    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch, fmt, old):
        target = tmp_path / "curves.out"
        if old is not None:
            target.write_text(old, encoding="utf-8")
        real = fabcarbon.cli.write_curves

        def fail_midway(sweeps, format, out):
            real(sweeps[:1], format, out)
            raise OSError("No space left on device")

        monkeypatch.setattr(fabcarbon.cli, "write_curves", fail_midway)
        code, out, err = invoke("sweep", "--alpha", "0.1:0.9:0.2", "--areas", "0.2,0.3",
                                "--format", fmt, "--out", str(target))
        assert (code, out) == (1, "")
        assert "No space left" in err
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["curves.out"])
        if old is not None:
            assert target.read_text(encoding="utf-8") == old

    def test_missing_directory_is_named_without_the_temporary_suffix(self, tmp_path):
        target = tmp_path / "no_such_dir" / "curves.csv"
        code, out, err = invoke("sweep", "--alpha", "0.1:0.9:0.2", "--format", "csv", "--out", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(target)!r}\n"

    def test_replaced_file_keeps_its_permissions(self, tmp_path):
        target = tmp_path / "table.txt"
        target.write_text("old\n")
        target.chmod(0o600)
        code, _, _ = invoke("savings", "--n", "1:3", "--out", str(target))
        assert code == 0
        assert "improvement_conservative" in target.read_text()
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert [p.name for p in tmp_path.iterdir()] == ["table.txt"]

    def test_symlink_is_written_through(self, tmp_path):
        real, link = tmp_path / "real.svg", tmp_path / "link.svg"
        real.write_text("old\n")
        link.symlink_to(real)
        code, _, _ = invoke("sweep", "--alpha", "0.1:0.9:0.2", "--plot", str(link))
        assert code == 0
        assert link.is_symlink()
        assert real.read_text().endswith("</svg>\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.svg", "real.svg"]


class TestHybridCommand:
    def test_repeated_retained_name_is_listed_once(self):
        code, out, _ = invoke("hybrid", "--retain", "Viterbi,AESEncrypt,Viterbi", "--n", "4", "--format", "csv")
        assert code == 0
        body = [line for line in out.splitlines() if not line.startswith("#")]
        assert next(csv.DictReader(body))["retained"] == "AESEncrypt,Viterbi"
        assert out == invoke("hybrid", "--retain", "AESEncrypt,Viterbi", "--n", "4", "--format", "csv")[1]


class TestWorkDoneOnce:
    @pytest.fixture
    def aggregate_calls(self, monkeypatch):
        calls = []
        real = fabcarbon.core.aggregate

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (fabcarbon.cli, fabcarbon.scenarios):
            monkeypatch.setattr(module, "aggregate", counted)
        return calls

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("savings", "--n", "1:5"), 1),
            (("savings", "--n", "1:5", "--calibrated"), 0),
            (("hybrid", "--retain", "AESEncrypt,Viterbi", "--n", "4"), 1),
        ],
    )
    def test_one_aggregate_per_kernel_set(self, aggregate_calls, argv, expected):
        assert invoke(*argv)[0] == 0
        assert len(aggregate_calls) == expected

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("scenario", "--case", "I,II,III", "--alphas", "0.3,0.9"), 3),
            (("savings", "--n", "1:5"), 0),
            (("hybrid", "--retain", "AESEncrypt,Viterbi", "--n", "4"), 1),
        ],
    )
    def test_each_kernel_set_resolved_once(self, monkeypatch, argv, expected):
        calls = []
        real = fabcarbon.dataset.KernelDataset.without
        monkeypatch.setattr(
            fabcarbon.dataset.KernelDataset, "without", lambda ds, excluded: calls.append(excluded) or real(ds, excluded)
        )
        assert invoke(*argv)[0] == 0
        assert len(calls) == expected

    def test_dataset_is_validated_once(self, tmp_path, monkeypatch):
        path = tmp_path / "kernels.csv"
        path.write_text(dump_dataset(builtin_dataset(), "csv"))
        calls = []
        real = fabcarbon.dataset.validate_dataset
        for module in (fabcarbon.dataset, fabcarbon.cli):  # wherever a caller may have imported it
            monkeypatch.setattr(module, "validate_dataset", lambda ds: calls.append(ds) or real(ds), raising=False)
        assert invoke("dataset", "validate", str(path))[0] == 0
        assert len(calls) == 1

    @pytest.fixture
    def kernels_built(self, monkeypatch):
        """The `KernelProfile`s constructed, counted through their checks."""
        calls = []
        real = fabcarbon.core.KernelProfile.__post_init__
        monkeypatch.setattr(fabcarbon.core.KernelProfile, "__post_init__", lambda k: calls.append(k) or real(k))
        return calls

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv,built",
        [
            (("dataset", "validate", "PATH"), 0),
            (("dataset", "show", "PATH"), 0),
            (("scenario", "--case", "I,II,III", "--alphas", "0.3,0.9", "--util-mode", "avg", "--dataset", "PATH"), 0),
            (("hybrid", "--retain", "AESEncrypt,Viterbi", "--n", "4", "--dataset", "PATH"), 2),  # the retained kernels
            (("savings", "--n", "1:5", "--dataset", "PATH"), 0),
            (("cdc", "--alpha", "0.8", "--area", "0.35", "--energy", "0.35", "--n", "3", "--util-mode", "avg", "--dataset", "PATH"), 0),
        ],
    )
    def test_kernels_built_only_when_read(self, tmp_path, kernels_built, fmt, argv, built):
        ds = builtin_dataset()
        extra = [fabcarbon.KernelProfile(f"K{i}", "test", 0.3, 0.4, 0.5, 16.0, bool(i % 2)) for i in range(40)]
        path = tmp_path / f"kernels.{fmt}"
        path.write_text(dump_dataset(fabcarbon.KernelDataset([*ds.kernels, *extra], ds.fabric, ds.provenance), fmt))
        kernels_built.clear()
        assert invoke(*(str(path) if arg == "PATH" else arg for arg in argv))[0] == 0
        assert len(kernels_built) == built


CDC_ARGS = ("cdc", "--alpha", "0.8", "--area", "0.35", "--energy", "0.35")


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv,code",
        [
            (CDC_ARGS + ("--scale", "inf"), 2),
            (("cdc", "--alpha", "0.8", "--area", "1e-320", "--energy", "0.35"), 1),
            (("cdc", "--alpha", "0.8", "--area", "nan", "--energy", "0.35"), 2),
            (("sweep", "--alpha", "0.1:0.9:0.1", "--areas", "nan"), 2),
            (("sweep", "--alpha", "0.5:2:1e-8"), 2),
            (("sweep", "--alpha", "0:1e300:1"), 2),
            (("calibrate", "--points", "0.3:nan,0.9:4"), 2),
            (("calibrate", "--points", "1.5:3,0.5:2"), 2),
            (("calibrate", "--points", "0.5:2,0.5:3"), 1),
            (("alpha", "--breakdown", "production=nan,transport=3,use=15,eol=2"), 1),
            (("savings", "--dsas", "3", "--n", "1:5"), 2),
            (("savings", "--alpha", "0"), 2),
            (("scenario", "--alphas", "0.5", "--n", "0"), 2),
            (("hybrid", "--retain", "AESEncrypt", "--n", "1"), 1),
            (("sweep", "--alpha", "0.1:0.9:1e-7"), 2),  # 8M points, above the cap
            (CDC_ARGS + ("--n", "9007199254740993"), 2),  # 2**53 + 1 has no exact float
            (("savings", "--dsas", "1000000000", "--n", "1:1000000000"), 2),  # rows above the cap
            (("savings", "--dsas", str(2**53 + 1)), 2),  # a population a float cannot count exactly
            (("savings", "--dsas", "1" + "0" * 400), 2),  # and one no float holds at all
            (("hybrid", "--retain", "", "--n", "1"), 2),
            (("hybrid", "--retain", ",", "--n", "1"), 2),
            (CDC_ARGS + ("--dataset", "/no/such/file.csv"), 2),  # a dataset only --util-mode avg reads
            (CDC_ARGS + ("--scale", "2", "--dataset", "/no/such/file.csv"), 2),
        ],
    )
    def test_exit_code_and_one_line_diagnostic(self, argv, code):
        got, out, err = invoke(*argv)
        assert got == code
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_point_cap_names_count_and_cap(self):
        _, _, err = invoke("sweep", "--alpha", "0.1:0.9:1e-7", "--areas", "0.3,0.4")
        assert "16000002 points" in err and str(MAX_SWEEP_POINTS) in err

    def test_population_cap_names_the_bound(self):
        _, _, err = invoke("savings", "--dsas", "1" + "0" * 400)
        assert "2**53" in err and "exceeds" not in err

    def test_savings_cap_names_count_and_cap(self):
        _, _, err = invoke("savings", "--dsas", "1000000000", "--n", "2:1000000000")
        assert "999999999 values" in err and str(MAX_SAVINGS_ROWS) in err

    @pytest.mark.parametrize(
        "old,new",
        [
            ('"rows": 8', '"rows": 1e400'),
            ('"name": "GeMM"', '"name": {"x": 1}'),
            ('"name": "GeMM"', '"name": 7'),
            ('"memory_kb": 256.0', '"memory_kb": NaN'),  # the fabric's, which comes first
            ('"version": 1', '"version": true'),
            ('"provenance": "', '"provenance": {"a": 1}, "old": "'),  # the old text under another key
        ],
    )
    def test_malformed_dataset_is_one_line_data_error(self, tmp_path, old, new):
        path = tmp_path / "bad.json"
        path.write_text(dump_dataset(builtin_dataset(), "json").replace(old, new, 1))
        got, out, err = invoke("dataset", "show", str(path))
        assert got == 1
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1

    def test_non_finite_breakdown_is_named(self):
        _, _, err = invoke("alpha", "--breakdown", "production=nan,transport=3,use=15,eol=2")
        assert "breakdown" in err and "alpha_e2o" not in err
        assert "''" not in err


def test_import_loads_no_svg_or_xml():
    env = dict(os.environ, PYTHONPATH=str(Path(fabcarbon.__file__).resolve().parents[1]))
    probe = "import sys, fabcarbon.cli; print([m for m in ('fabcarbon.svg', 'xml.sax') if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0
    assert result.stdout == "[]\n"


def test_import_loads_no_pathlib():
    # -S skips `site`, whose .pth hooks may load pathlib before any import of ours
    env = dict(os.environ, PYTHONPATH=str(Path(fabcarbon.__file__).resolve().parents[1]))
    modules = (
        "pathlib", "statistics", "fractions", "decimal", "random",
        "dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
    )
    probe = f"import sys, fabcarbon.cli; print([m for m in {modules!r} if m in sys.modules])"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0
    assert result.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [("sweep", "--alpha", "0.1:0.9:0.2", "--areas", "0.25,0.45", "--format", "json"), ("savings", "--n", "1:3")],
)
def test_bench_trace_shim_runs(tmp_path, argv):
    """The benchmark's trace shim wraps fabcarbon functions by name; each one it names still exists."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    record = tmp_path / "record.json"
    result = subprocess.run(
        [sys.executable, str(root / "bench" / "shim.py"), str(record), "trace", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "cli.run" in [span[2] for span in json.loads(record.read_text())["spans"]]


def test_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=str(Path(fabcarbon.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "fabcarbon.cli", *CDC_ARGS],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0
    assert "3.32" in result.stdout


# Argument grammar for the surface property: every subcommand, with numeric
# flags drawn from edge values.
EDGE = ("0", "-1", "nan", "inf", "-inf", "1e-320", "1e308")
NUMBER = st.one_of(st.sampled_from(EDGE), st.sampled_from(("0.3", "0.8", "1")))
INTEGER = st.sampled_from(("0", "-1", "1", "3", "40", "nan", "1e308"))
STEP = st.sampled_from(("0.1", "0.25", "1e-7", "0", "-1", "nan", "inf", "1e-320", "1e308"))
FAST_SWEEP_POINTS = 10_000


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _joined(parts, sep):
    return st.tuples(*parts).map(sep.join)


def _sweep_argv(lo, hi, step, areas, energies, n):
    a, b, s = float(lo), float(hi), float(step)
    # in-domain spans between 10k alphas and the cap run in full: skip them for
    # speed. Spans outside the domain or above the cap must be rejected at once.
    assume(not (0 < a <= b <= 1 and s > 0 and FAST_SWEEP_POINTS < (b - a) / s <= MAX_SWEEP_POINTS))
    return ["sweep", "--alpha", f"{lo}:{hi}:{step}", "--areas", areas, "--energies", energies, *n]


ARGV = st.one_of(
    st.tuples(NUMBER, NUMBER, NUMBER, _flag("--n", INTEGER),
              st.one_of(_flag("--scale", NUMBER), st.just(["--util-mode", "avg"]))).map(
        lambda t: ["cdc", "--alpha", t[0], "--area", t[1], "--energy", t[2], *t[3], *t[4]]
    ),
    st.builds(_sweep_argv, NUMBER, NUMBER, STEP, _joined([NUMBER, NUMBER], ","), NUMBER,
              _flag("--n", INTEGER)),
    st.tuples(st.sampled_from(("I", "II,III", "IV")), _joined([NUMBER, NUMBER], ","),
              _flag("--n", INTEGER), st.sampled_from(([], ["--calibrated"], ["--util-mode", "avg"]))).map(
        lambda t: ["scenario", "--case", t[0], "--alphas", t[1], *t[2], *t[3]]
    ),
    st.tuples(_flag("--dsas", INTEGER), _flag("--alpha", NUMBER), _joined([INTEGER, INTEGER], ":"),
              st.sampled_from(([], ["--calibrated"]))).map(
        lambda t: ["savings", *t[0], *t[1], "--n", t[2], *t[3]]
    ),
    st.tuples(st.sampled_from(("AESEncrypt", "AESEncrypt,Viterbi", "NoSuch")), INTEGER,
              _flag("--dsas", INTEGER), _flag("--alpha", NUMBER)).map(
        lambda t: ["hybrid", "--retain", t[0], "--n", t[1], *t[2], *t[3]]
    ),
    _joined([NUMBER.map(lambda v, k=k: f"{k}={v}") for k in ("production", "transport", "use", "eol")],
            ",").map(lambda b: ["alpha", "--breakdown", b]),
    st.sampled_from(("laptop", "toaster")).map(lambda d: ["alpha", "--device", d]),
    st.tuples(_joined([NUMBER, NUMBER], ":"), _joined([NUMBER, NUMBER], ":"), _flag("--n", INTEGER)).map(
        lambda t: ["calibrate", "--points", f"{t[0]},{t[1]}", *t[2]]
    ),
    st.tuples(st.sampled_from(("show", "validate")), st.sampled_from(([], ["/no/such/file.csv"]))).map(
        lambda t: ["dataset", t[0], *t[1]]
    ),
)


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


@settings(max_examples=300, deadline=None)
@given(argv=ARGV, fmt=st.sampled_from(([], ["--format", "csv"], ["--format", "json"])))
def test_any_argv_ends_in_an_exit_code(argv, fmt):
    out = io.StringIO()
    code = run(argv + fmt, out, io.StringIO())
    assert code in (0, 1, 2)
    if code == 0 and fmt == ["--format", "json"]:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)  # strict: no NaN or Infinity
