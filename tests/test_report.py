from __future__ import annotations

import csv
import io
import json

import pytest

from fabcarbon import sweep_grid
from fabcarbon.engine import float_steps
from fabcarbon.report import (
    Column,
    RenderedReport,
    emit_curve_csv,
    emit_table,
    sweep_report,
)


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


class TestSweepReport:
    def test_rows_are_rectangular(self):
        report = sweep_report(sweep_grid([0.3, 0.6], [0.3, 0.4], [0.3]))
        assert {len(r) for r in report.records} == {len(report.columns)}

    def test_unknown_format_rejected(self, sample_report):
        with pytest.raises(ValueError):
            emit_table(sample_report, "yaml")
