from __future__ import annotations

import csv
import io
import json

import pytest

from fabcarbon import ScaleMode, SweepResult, builtin_case, builtin_dataset, evaluate_cdc_table, sweep_grid
from fabcarbon.engine import float_steps
from fabcarbon.report import (
    Column,
    InvalidColumn,
    RenderedReport,
    curve_footnotes,
    emit_curve_csv,
    emit_table,
    estimated_inputs_footnote,
    sweep_report,
    write_curves,
)


def curve_text(sweeps, fmt):
    """What `write_curves` writes for `sweeps` in `fmt`."""
    buf = io.StringIO()
    write_curves(sweeps, fmt, buf, curve_footnotes(sweeps))
    return buf.getvalue()


@pytest.fixture
def sample_report():
    return RenderedReport(
        columns=(
            Column("n", "n", "int"),
            Column("n_prime", "scale", "scale"),
            Column("savings", "savings", "ratio"),
        ),
        records=(
            (2, 1.28, 6.115131769040444),
            (4, 2.56, 3.129758604858354),
        ),
        footnotes=("estimated inputs: example",),
    )


class TestDisplayRounding:
    def test_scale_shows_one_decimal(self, sample_report):
        text = emit_table(sample_report, "table")
        assert "1.3" in text and "2.6" in text
        assert "1.28" not in text

    def test_ratio_shows_two_decimals(self, sample_report):
        text = emit_table(sample_report, "table")
        assert "6.12" in text and "3.13" in text

    def test_footnote_rendered(self, sample_report):
        assert "note: estimated inputs: example" in emit_table(sample_report, "table")


class TestColumnKinds:
    @pytest.mark.parametrize("kind", ["percent", "Ratio", "", None])
    def test_unknown_kind_raises_a_value_error_naming_it(self, kind):
        with pytest.raises(InvalidColumn, match=rf"^column 'x': unknown kind {kind!r} \(expected one of ratio, "):
            Column("x", "x", kind)
        assert issubclass(InvalidColumn, ValueError)


class TestLosslessPayloads:
    def test_csv_exact_columns_round_trip(self, sample_report):
        text = emit_table(sample_report, "csv")
        rows = [r for r in csv.reader(io.StringIO(text)) if not r[0].startswith("#")]
        header = rows[0]
        assert header == ["n", "n_prime", "savings", "n_prime_exact", "savings_exact"]
        parsed = dict(zip(header, rows[1]))
        assert float(parsed["savings_exact"]) == 6.115131769040444
        assert float(parsed["n_prime_exact"]) == 1.28

    def test_json_records_carry_full_precision(self, sample_report):
        doc = json.loads(emit_table(sample_report, "json"))
        assert doc["records"][0]["savings"] == 6.115131769040444
        assert doc["footnotes"] == ["estimated inputs: example"]

    def test_curve_csv_round_trips_engine_output(self):
        (sweep,) = sweep_grid(float_steps(0.1, 0.9, 0.1), [0.35], [0.35])
        text = emit_curve_csv([sweep])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["series", "parameter", "value"]
        assert len(rows) - 1 == len(sweep.samples)
        for row, (param, value) in zip(rows[1:], sweep.samples):
            assert float(row[1]) == param
            assert float(row[2]) == value


class TestDeterminism:
    def test_table_emission_is_byte_identical(self, sample_report):
        assert emit_table(sample_report, "table") == emit_table(sample_report, "table")

    def test_csv_emission_is_byte_identical(self, sample_report):
        assert emit_table(sample_report, "csv") == emit_table(sample_report, "csv")


class TestCurveCsvShapes:
    def test_grid_family_has_nine_series(self):
        curves = sweep_grid([0.3, 0.5, 0.7], [0.25, 0.35, 0.45], [0.25, 0.35, 0.45])
        text = emit_curve_csv(curves)
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert len({r[0] for r in rows}) == 9

    def test_single_point_sweep_single_row(self):
        (sweep,) = sweep_grid([0.5], [0.35], [0.35])
        rows = list(csv.reader(io.StringIO(emit_curve_csv([sweep]))))
        assert len(rows) == 2

    def test_parameters_strictly_increasing_per_series(self):
        curves = sweep_grid([0.2, 0.4, 0.6, 0.8], [0.3], [0.3])
        rows = list(csv.reader(io.StringIO(emit_curve_csv(curves))))[1:]
        params = [float(r[1]) for r in rows]
        assert params == sorted(params)


def _reference_curve_csv(sweeps):
    """The curve CSV written row by row with csv.writer."""
    buf = io.StringIO()
    names = [name for s in sweeps for name in s.estimated_kernels]
    for note in estimated_inputs_footnote(names):
        buf.write(f"# {note}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series", "parameter", "value"])
    for sweep in sweeps:
        writer.writerows((sweep.label, repr(p), repr(v)) for p, v in sweep.samples)
    return buf.getvalue()


class TestCurveCsvMatchesCsvWriter:
    def test_quoted_labels_and_shared_and_equal_parameters(self):
        shared = (0.1, 0.25, 0.7)
        equal = tuple(list(shared))  # equal to `shared`, a separate object
        signed = (-0.0, 0.5)
        unsigned = (0.0, 0.5)  # equal to `signed`, but 0.0 is written differently
        curves = [
            SweepResult("a,b", shared, (3.0, 2.5, 1.0), 1, 1.0),
            SweepResult('say "hi"', shared, (4.0, 3.5, 2.0), 1, 1.0),
            SweepResult("two\nlines", equal, (5.0, 4.5, 3.0), 1, 1.0),
            SweepResult("", signed, (1e-300, 1e300), 1, 1.0),
            SweepResult("cr\rlf", unsigned, (7.0, 6.0), 1, 1.0),
            SweepResult("50% of 100%s", unsigned, (8.0, 7.0), 1, 1.0),
            SweepResult("A=0.35,E=0.25", shared, (9.0, 8.0, 0.5), 2, 1.28, estimated_kernels=("FFT", "KNN")),
        ]
        assert emit_curve_csv(curves) == _reference_curve_csv(curves)

    def test_grid_curves(self):
        curves = sweep_grid(float_steps(0.1, 0.9, 0.05), [0.25, 0.35], [0.25, 0.5])
        assert emit_curve_csv(curves) == _reference_curve_csv(curves)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("value", [0.1, 3], ids=["float", "int"])
def test_curve_parameter_of_a_number_subclass_is_written_as_a_plain_number(fmt, value):
    class Tagged(type(value)):
        def __repr__(self):
            return f"Tagged({super().__repr__()})"

    tagged, plain = (SweepResult("s", (p, 0.5 + value), (2.0, 1.5), 1, 1.0) for p in (Tagged(value), value))
    assert curve_text([tagged], fmt) == curve_text([plain], fmt)
    assert "Tagged" not in curve_text([tagged], fmt)


class TestCurveTableMatchesReport:
    """`write_curves` writes exactly the table and the JSON of `sweep_report`."""

    @staticmethod
    def assert_same_table(curves):
        for fmt in ("table", "json"):
            assert curve_text(curves, fmt) == emit_table(sweep_report(curves), fmt)

    def test_labels_parameters_and_widths(self):
        shared = (0.1, 0.25, 0.7)
        equal = tuple(list(shared))  # equal to `shared`, a separate object
        signed = (-0.0, 0.5)
        unsigned = (0.0, 0.5)  # equal to `signed`, but 0.0 is printed differently
        tiny = (1.2345678e-05, 0.5, 0.75, 1.0)  # a wider parameter cell, in a later curve
        self.assert_same_table([
            SweepResult("I", shared, (3.0, 2.5, 1.0), 2, 2.0),
            SweepResult("a much longer label", shared, (4.0, 3.5, 2.0), 3, 1.92),
            SweepResult("", equal, (5.0, 4.5, 3.0), 1, 1.0),
            SweepResult("50% of 100%s", signed, (1e-300, 1.5), 4, 2.56),
            SweepResult("zero", unsigned, (7.0, 6.0), 2, 1.25, estimated_kernels=("FFT",)),
            SweepResult("a label longer than any printed one", (), (), 1, 1.0, estimated_kernels=("KNN",)),
            SweepResult("A=0.35,E=0.25", tiny, (1234.5678, 999.995, 9.995, 1.0), 1, 1.0),
            SweepResult("one point", (0.5,), (2.0,), 12345, 98765.4),
            SweepResult('say "na\u00efve"\non two lines', shared, (6.0, 5.5, 4.0), 1, 1.0),
        ])

    def test_scenario_curves_with_footnote(self):
        spec = dict(n=2, scale_mode=ScaleMode.average_utilization())
        curves = [
            evaluate_cdc_table(builtin_case(case, **spec), [0.3, 0.5, 0.7, 0.9], dataset=builtin_dataset())
            for case in ("I", "II", "III")
        ]
        assert "\nnote: estimated inputs: " in curve_text(curves, "table")
        self.assert_same_table(curves)

    def test_grid_curves(self):
        self.assert_same_table(sweep_grid(float_steps(0.01, 0.99, 0.01), [0.01, 0.35], [0.25, 0.5], n=3))

    def test_no_curves(self):
        self.assert_same_table([])
        self.assert_same_table([SweepResult("no points", (), (), 1, 1.0, estimated_kernels=("KNN",))])


class TestSweepReport:
    def test_rows_are_rectangular(self):
        report = sweep_report(sweep_grid([0.3, 0.6], [0.3, 0.4], [0.3]))
        assert {len(r) for r in report.records} == {len(report.columns)}

    def test_unknown_format_rejected(self, sample_report):
        with pytest.raises(ValueError):
            emit_table(sample_report, "yaml")
