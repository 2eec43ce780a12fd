from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fabcarbon import (
    KernelProfile,
    aggregate,
    builtin_dataset,
    dump_dataset,
    load_dataset,
    validate_dataset,
)
import fabcarbon.dataset
from fabcarbon.dataset import KERNEL_COLUMNS, FabricSpec, KernelDataset
from fabcarbon.errors import DatasetError, DatasetValidationError, EmptyInput, ParseError

CSV_HEADER = "name,domain,area_norm,energy_norm,utilization,memory_kb,estimated\n"


class TestBuiltinDataset:
    def test_kernel_count(self, dataset):
        assert len(dataset.kernels) == 8

    def test_largest_memory_kernel(self, dataset):
        assert dataset.kernel("Stencil3D").memory_kb == 256

    def test_memory_budget_matches_largest_kernel(self, dataset):
        assert dataset.fabric.memory_kb == max(k.memory_kb for k in dataset.kernels)

    def test_pinned_means(self, dataset):
        agg = aggregate(list(dataset.kernels))
        assert agg.area == pytest.approx(0.275, abs=1e-12)
        assert agg.energy == pytest.approx(0.34375, abs=1e-12)
        assert agg.utilization == pytest.approx(0.64, abs=1e-12)

    def test_validates_clean(self, dataset):
        assert validate_dataset(dataset) == []

    def test_fully_utilizing_kernels_are_measured_not_estimated(self, dataset):
        for name in ("GeMM", "FIR"):
            kernel = dataset.kernel(name)
            assert kernel.utilization == 1.0 and not kernel.estimated

    def test_six_utilizations_are_flagged_estimated(self, dataset):
        flagged = sorted(k.name for k in dataset.kernels if k.estimated)
        assert flagged == ["AESEncrypt", "Conv2D", "FFT", "KNN", "Stencil3D", "Viterbi"]

    def test_sub_half_utilization_kernels(self, dataset):
        for name in ("Conv2D", "Stencil3D", "Viterbi", "AESEncrypt"):
            assert dataset.kernel(name).utilization < 0.5


class TestRoundTrips:
    def test_json_round_trip_identity(self, dataset):
        text = dump_dataset(dataset, "json")
        loaded = load_dataset(io.StringIO(text), "json")
        assert loaded == dataset

    def test_csv_round_trip_identity(self, dataset):
        text = dump_dataset(dataset, "csv")
        loaded = load_dataset(
            io.StringIO(text), "csv", fabric=dataset.fabric, provenance=dataset.provenance
        )
        assert loaded == dataset

    def test_csv_round_trip_preserves_kernels_by_default(self, dataset):
        loaded = load_dataset(io.StringIO(dump_dataset(dataset, "csv")), "csv")
        assert loaded.kernels == dataset.kernels

    @pytest.mark.parametrize("value", [0.3, 7], ids=["float", "int"])
    def test_csv_writes_a_number_subclass_as_a_plain_number(self, dataset, value):
        class Tagged(type(value)):
            def __repr__(self):
                return f"Tagged({super().__repr__()})"

        kernel = KernelProfile("X", "d", Tagged(value), 0.3, 0.5, Tagged(value))
        ds = KernelDataset([kernel], dataset.fabric)
        text = dump_dataset(ds, "csv")
        assert text == CSV_HEADER + f"X,d,{value!r},0.3,0.5,{value!r},0\n"
        assert load_dataset(io.StringIO(text), "csv") == ds

    def test_crlf_line_ends_load_like_lf(self, dataset):
        text = dump_dataset(dataset, "csv")
        crlf = text.replace("\n", "\r\n")
        assert load_dataset(io.StringIO(crlf), "csv") == load_dataset(io.StringIO(text), "csv")

    def test_bytes_input_accepted(self, dataset):
        raw = dump_dataset(dataset, "json").encode("utf-8")
        assert load_dataset(io.BytesIO(raw), "json") == dataset


def _pad_energy(row):
    cells = row.split(",")
    cells[3] = f"\x1c{cells[3]}\x1f"
    return ",".join(cells)


# Edits of one CSV row line that the per-record reader skips or strips: a row
# after it that is blank, spaces only or empty cells, or separators around a number.
BLANK_ROW_SHAPES = {
    "blank-line": lambda row: row + "\n",
    "spaces-only": lambda row: row + "   \n",
    "empty-cells": lambda row: row + ",,,,,,\n",
    "padded-number": _pad_energy,
}


@pytest.mark.parametrize("shape", BLANK_ROW_SHAPES.values(), ids=BLANK_ROW_SHAPES.keys())
def test_blank_row_or_padded_number_loads_like_the_clean_document(shape):
    rows = [f"K{i},d,0.3,0.4,0.5,10,{i % 2}\n" for i in range(5000)]  # two slices
    clean = load_dataset(io.StringIO(CSV_HEADER + "".join(rows)), "csv")
    rows[4500] = shape(rows[4500])
    assert load_dataset(io.StringIO(CSV_HEADER + "".join(rows)), "csv") == clean


class TestDatasetValidation:
    def test_utilization_out_of_range_names_invariant(self):
        text = CSV_HEADER + "X,test,0.3,0.3,1.2,10,0\n"
        with pytest.raises(DatasetValidationError, match=r"utilization out of \(0, 1\]"):
            load_dataset(io.StringIO(text), "csv")

    def test_duplicate_name_reported(self):
        text = CSV_HEADER + "X,test,0.3,0.3,0.5,10,0\nX,test,0.4,0.4,0.5,10,0\n"
        with pytest.raises(DatasetValidationError, match="duplicate kernel name: 'X'"):
            load_dataset(io.StringIO(text), "csv")

    def test_zero_area_reported(self):
        text = CSV_HEADER + "X,test,0,0.3,0.5,10,0\n"
        with pytest.raises(DatasetValidationError, match="area_norm"):
            load_dataset(io.StringIO(text), "csv")

    def test_fabric_memory_below_largest_kernel(self, dataset):
        small_fabric = FabricSpec(8, 8, 32, 100.0, 100.0)
        broken = KernelDataset(kernels=dataset.kernels, fabric=small_fabric)
        report = validate_dataset(broken)
        assert any("fabric memory below largest kernel" in v for v in report)

    def test_parse_error_carries_line_and_column(self):
        text = CSV_HEADER + "X,test,not-a-number,0.3,0.5,10,0\n"
        with pytest.raises(ParseError) as exc_info:
            load_dataset(io.StringIO(text), "csv")
        assert exc_info.value.line == 2
        assert exc_info.value.column == "area_norm"

    @pytest.mark.parametrize(
        "row, message, column",
        [
            ("Z,d,oops,0.3,0.5,10,0", "not a number: 'oops' (line 5001, column 'area_norm')", "area_norm"),
            ("Z,d,0.3,0.3,0.5,10, 2 ", "flag must be 0 or 1: '2' (line 5001, column 'estimated')", "estimated"),
            ("Z,d,0.3,0.3,0.5,10", "expected 7 fields, got 6 (line 5001)", ""),
        ],
        ids=["number", "flag", "field-count"],
    )
    def test_fault_past_the_first_slice_names_its_line(self, row, message, column):
        rows = "".join(f"K{i},d,0.3,0.3,0.5,10,0\n" for i in range(4999))  # lines 2-5000
        with pytest.raises(ParseError) as exc_info:
            load_dataset(io.StringIO(CSV_HEADER + rows + row + "\n"), "csv")
        assert str(exc_info.value) == message
        assert exc_info.value.line == 5001
        assert exc_info.value.column == column

    @pytest.mark.parametrize("cell", ["0.3_5", "1_00", "\uff10.\uff13"], ids=["underscore", "int-underscore", "full-width"])
    def test_number_cell_outside_the_ascii_grammar_is_a_parse_error(self, cell):
        rows = "".join(f"K{i},d,0.3,0.3,0.5,10,0\n" for i in range(4999))  # lines 2-5000
        with pytest.raises(ParseError) as exc_info:
            load_dataset(io.StringIO(CSV_HEADER + rows + f"Z,d,0.3,0.3,{cell},10,0\n"), "csv")
        assert str(exc_info.value) == f"not a number: {cell!r} (line 5001, column 'utilization')"

    def test_separator_around_a_number_is_dropped(self):
        loaded = load_dataset(io.StringIO(CSV_HEADER + "X,d,\x1c0.3\x1f,0.3,0.5,10,0\n"), "csv")
        assert loaded.column("area_norm") == (0.3,)

    def test_wrong_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            load_dataset(io.StringIO("a,b,c\n1,2,3\n"), "csv")

    def test_header_only_is_empty(self):
        with pytest.raises(EmptyInput):
            load_dataset(io.StringIO(CSV_HEADER), "csv")

    def test_future_version_rejected(self, dataset):
        doc = json.loads(dump_dataset(dataset, "json"))
        for version in (99, 0, -3):
            doc["version"] = version
            with pytest.raises(DatasetValidationError, match="version"):
                load_dataset(io.StringIO(json.dumps(doc)), "json")
            bad = KernelDataset(dataset.kernels, dataset.fabric, dataset.provenance, version)
            assert validate_dataset(bad) == [f"unsupported dataset version: {version}"]

    def test_malformed_json_is_a_parse_error(self):
        with pytest.raises(ParseError):
            load_dataset(io.StringIO("{not json"), "json")

    @pytest.mark.parametrize(
        "record, violation",
        [
            (7, "kernel record 2: not an object"),
            (["FFT", "signal processing"], "kernel record 2: not an object"),
            ({"nam": "X", "domain": "d", "area_norm": 0.3, "energy_norm": 0.3, "utilization": 0.5,
              "memory_kb": 1.0}, "kernel record 2: unknown key 'nam'"),
            ({"name": "X", "domain": "d", "area_norm": 0.3, "energy_norm": 0.3, "memory_kb": 1.0},
             "kernel record 2: missing key 'utilization'"),
            ({}, "kernel record 2: missing key 'name'"),
        ],
    )
    def test_malformed_json_record_names_its_position_and_key(self, dataset, record, violation):
        doc = json.loads(dump_dataset(dataset, "json"))
        doc["kernels"][1] = record
        with pytest.raises(DatasetValidationError) as exc_info:
            load_dataset(io.StringIO(json.dumps(doc)), "json")
        assert exc_info.value.violations == [violation]
        assert not re.search(r"__init__|argument after|positional argument", str(exc_info.value))

    def test_json_estimated_is_optional(self, dataset):
        doc = json.loads(dump_dataset(dataset, "json"))
        del doc["kernels"][0]["estimated"]
        assert load_dataset(io.StringIO(json.dumps(doc)), "json") == dataset

    def test_unknown_document_key_is_a_parse_error(self, dataset):
        doc = json.loads(dump_dataset(dataset, "json"))
        doc["fabrik"] = doc.pop("fabric")
        with pytest.raises(ParseError) as exc_info:
            load_dataset(io.StringIO(json.dumps(doc)), "json")
        assert str(exc_info.value) == "unknown key 'fabrik'"

    def test_unknown_fabric_key_is_a_parse_error(self, dataset):
        doc = json.loads(dump_dataset(dataset, "json"))
        doc["fabric"]["clock_ghz"] = 0.1
        with pytest.raises(ParseError) as exc_info:
            load_dataset(io.StringIO(json.dumps(doc)), "json")
        assert exc_info.value.column == "fabric"
        assert "unknown key 'clock_ghz'" in str(exc_info.value)

    @pytest.mark.parametrize(
        "text, fmt, violations",
        [
            (CSV_HEADER + "X,test,0,0.3,0.5,10,0\n", "csv", ["kernel 'X': area_norm out of (0, inf): 0.0"]),
            ('{"kernels": [7, []]}', "json", ["kernel record 1: not an object", "kernel record 2: not an object"]),
        ],
    )
    def test_every_record_rejected_lists_only_their_violations(self, text, fmt, violations):
        with pytest.raises(DatasetValidationError) as exc_info:
            load_dataset(io.StringIO(text), fmt)
        assert exc_info.value.violations == violations



# Loader boundary property: schema-shaped documents with edge values in
# every slot load or raise a DatasetError, never anything else.
BUILTIN_JSON = dump_dataset(builtin_dataset(), "json")
OVERFLOW = "__1e400__"  # json.dumps cannot write 1e400, so it is patched into the text
EDGE = st.sampled_from(
    (float("nan"), float("inf"), -float("inf"), OVERFLOW, 10**400, 0, -1, 0.5, 1, 1.0, 8, 256.0,
     True, False, "", "x", None, [], {"x": 1})
)
VALUE = st.one_of(EDGE, st.floats(), st.integers(), st.text(max_size=4))
FABRIC_KEYS = ("rows", "cols", "memory_banks", "memory_kb", "clock_mhz")


def _keyed(keys):
    """Objects over `keys` with any of them missing, plus possibly an extra key."""
    return st.tuples(
        st.fixed_dictionaries({}, optional={k: VALUE for k in keys}),
        st.dictionaries(st.text(max_size=3), VALUE, max_size=1),
    ).map(lambda t: {**t[0], **t[1]})


JSON_DOCS = st.fixed_dictionaries(
    {"kernels": st.one_of(st.lists(st.one_of(_keyed(KERNEL_COLUMNS), EDGE), max_size=4), EDGE)},
    optional={"version": VALUE, "provenance": VALUE, "fabric": st.one_of(_keyed(FABRIC_KEYS), EDGE)},
).map(lambda doc: json.dumps(doc).replace(f'"{OVERFLOW}"', "1e400"))
CSV_CELL = st.one_of(
    st.sampled_from(("nan", "inf", "-inf", "1e400", "0", "-1", "0.5", "1", "1.0", "", "x", '"a,b"')),
    st.text(max_size=4),
)
CSV_DOCS = st.tuples(
    st.sampled_from((",".join(KERNEL_COLUMNS), "name,domain", "")),
    st.lists(st.lists(CSV_CELL, min_size=6, max_size=8).map(",".join), max_size=4),
).map(lambda t: "\n".join((t[0], *t[1])) + "\n")


@settings(deadline=None)
@given(document=st.one_of(JSON_DOCS.map(lambda d: (d, "json")), CSV_DOCS.map(lambda d: (d, "csv"))))
@example(document=(BUILTIN_JSON.replace('"rows": 8', '"rows": 1e400'), "json"))
@example(document=(BUILTIN_JSON.replace('"name": "GeMM"', '"name": {"x": 1}'), "json"))
@example(document=(BUILTIN_JSON.replace('"name": "GeMM"', '"name": 7'), "json"))
@example(document=(BUILTIN_JSON.replace('"memory_kb": 256.0', '"memory_kb": NaN', 1), "json"))
@example(document=(CSV_HEADER + "x" * 200_000 + ",a,1,1,1,1,0\n", "csv"))
def test_loader_yields_a_dataset_or_a_dataset_error(document):
    text, fmt = document
    try:
        loaded = load_dataset(io.StringIO(text), fmt)
    except DatasetError:
        return
    assert validate_dataset(loaded) == []
    assert all(isinstance(k.name, str) and isinstance(k.domain, str) for k in loaded.kernels)
    fabric = loaded.fabric
    assert all(type(v) is int for v in (fabric.rows, fabric.cols, fabric.memory_banks))
    assert math.isfinite(fabric.memory_kb) and math.isfinite(fabric.clock_mhz)


# Round-trip property over generated valid datasets. Names and domains carry
# no surrounding blanks, since the CSV loader strips each cell.
TEXT = st.text(max_size=8).filter(lambda s: s == s.strip())
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
KERNELS = st.builds(
    KernelProfile,
    name=TEXT.filter(bool),
    domain=TEXT,
    area_norm=POSITIVE,
    energy_norm=POSITIVE,
    utilization=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    memory_kb=st.floats(min_value=0.0, allow_infinity=False),
    estimated=st.booleans(),
)


@st.composite
def datasets(draw):
    kernels = draw(st.lists(KERNELS, min_size=1, max_size=5, unique_by=lambda k: k.name))
    largest = max(k.memory_kb for k in kernels)
    counts = st.integers(min_value=1, max_value=2**64)
    fabric = FabricSpec(
        rows=draw(counts),
        cols=draw(counts),
        memory_banks=draw(counts),
        memory_kb=draw(st.floats(min_value=largest, allow_infinity=False).filter(bool)),
        clock_mhz=draw(POSITIVE),
    )
    return KernelDataset(kernels=tuple(kernels), fabric=fabric, provenance=draw(st.text(max_size=8)))


@settings(deadline=None)
@given(ds=datasets())
def test_dump_then_load_is_the_identity(ds):
    text = dump_dataset(ds, "json")
    assert load_dataset(io.StringIO(text), "json") == ds
    assert tuple(json.loads(text)["fabric"]) == FABRIC_KEYS
    text = dump_dataset(ds, "csv")
    assert load_dataset(io.StringIO(text), "csv", fabric=ds.fabric, provenance=ds.provenance) == ds


# Parity property: the column path (whole-column checks) and the
# per-record path it falls back to give the same dataset or the same error.
def _outcome(text, fmt):
    try:
        return load_dataset(io.StringIO(text), fmt)
    except Exception as exc:  # compared, whatever it is
        return exc


def _per_record_outcome(text, fmt):
    # every column check reports a failure, so each record builds its own KernelProfile
    with mock.patch.object(fabcarbon.dataset, "_columns_valid", return_value=False):
        return _outcome(text, fmt)


def _both_formats(ds):
    return st.sampled_from(((dump_dataset(ds, "json"), "json"), (dump_dataset(ds, "csv"), "csv")))


ROW = "X,d,0.3,0.3,0.5,10,0\n"
ROWS_600 = "".join(f"K{i},d,0.3,0.3,0.5,10,0\n" for i in range(600))
DOC = '{"kernels": [{"name": "X", "domain": "d", "area_norm": 0.3, "energy_norm": 0.3, "utilization": %s, "memory_kb": %s%s}]}'


@settings(deadline=None)
@given(document=st.one_of(
    JSON_DOCS.map(lambda d: (d, "json")), CSV_DOCS.map(lambda d: (d, "csv")), datasets().flatmap(_both_formats)
))
@example(document=(CSV_HEADER + ROW + ",,,,,,\n" + ROW.replace("X", "Y"), "csv"))  # an all-blank row
@example(document=(CSV_HEADER + " X , d , 0.3 ,0.3, 0.5 ,10 , 1 \n", "csv"))  # blanks around cells
@example(document=(CSV_HEADER + "X,d,0.3,0.3,0.5,10, 1\n", "csv"))
@example(document=(DOC % ("1", "10", ', "estimated": true'), "json"))  # JSON integers
@example(document=(DOC % ("0.5", "10", ""), "json"))  # no `estimated`
@example(document=(DOC % ("0.5", "10", ', "estimated": 1'), "json"))  # a number, not a flag
@example(document=(CSV_HEADER + "X,d,nan,0.3,0.5,10,0\nY,d,0.3,0.3,0.5,1e400,0\n", "csv"))
@example(document=(DOC % ("NaN", "1e400", ""), "json"))
@example(document=(CSV_HEADER + ROW + ROW, "csv"))  # duplicate names
@example(document=(CSV_HEADER + ROW.replace(",10,", ",300,"), "csv"))  # above the fabric's 256 KB
@example(document=(CSV_HEADER + ROW.replace("X", ""), "csv"))  # an empty name
@example(document=(DOC.replace('"X"', '""') % ("0.5", "10", ""), "json"))
@example(document=(CSV_HEADER + ROW.replace("0.5", "0.3_5"), "csv"))  # `float` reads these three as numbers
@example(document=(CSV_HEADER + ROW.replace(",10,", ",1_00,"), "csv"))
@example(document=(CSV_HEADER + ROW.replace("0.5", "\uff10.\uff13"), "csv"))  # full-width digits
# past line 512, so on the second slice: a blank line, then a padded number
@example(document=(CSV_HEADER + ROWS_600.replace("\nK550,", "\n\nK550,"), "csv"))
@example(document=(CSV_HEADER + ROWS_600.replace("\nK550,d,0.3,", "\nK550,d,\x1c0.3\x1f,"), "csv"))
def test_column_path_matches_per_record_path(document):
    text, fmt = document
    got, expected = _outcome(text, fmt), _per_record_outcome(text, fmt)
    assert type(got) is type(expected)
    if isinstance(expected, KernelDataset):
        assert got == expected and got.kernels == expected.kernels
        assert [list(map(type, column)) for column in got.columns] == [
            list(map(type, column)) for column in expected.columns
        ]
    else:
        assert str(got) == str(expected)
        for attribute in ("violations", "line", "column"):
            assert getattr(got, attribute, None) == getattr(expected, attribute, None)


def _refused(text):
    """Whether the document holds a feature the split cutter leaves to `csv.reader`."""
    return (
        '"' in text
        or "\0" in text
        or text.count("\r") != text.count("\r\n")
        or max(map(len, text.split("\n"))) > csv.field_size_limit()
    )


# Cells drawn around the characters that `str.split` and `str.splitlines`
# treat apart; the characters that `csv.reader` treats apart are put in at
# one place of half the documents.
_CELL = st.text(alphabet=st.sampled_from("ab1.e _\t\x0b\x0c\x1c\x85\u2028\ufeff"), max_size=4)
_NUMBER = st.one_of(
    st.floats().map(repr),
    st.sampled_from(("0.5", " 0.25 ", "1", "1e400", "nan", "-1", "0", "3e2") * 2 + ("0.3_5", "\uff11", "\x1c1", "x")),
)
_ROW = st.one_of(  # seven fields in five rows of six
    *[st.tuples(_CELL, _CELL, _NUMBER, _NUMBER, _NUMBER, _NUMBER, st.sampled_from(("0", "1", " 1 ", "0", "1", "2")))] * 5,
    st.lists(_CELL, max_size=8),
).map(",".join)


def _document(header, rows, end, last, insert, share):
    text = end.join((header, *rows)) + last
    position = round(share * len(text))
    return text[:position] + insert + text[position:]


CSV_TEXTS = st.builds(
    _document,
    st.sampled_from((",".join(KERNEL_COLUMNS),) * 6 + (" name ,domain,area_norm,energy_norm,utilization,memory_kb, estimated", "name,domain")),
    st.lists(_ROW, max_size=3),
    st.sampled_from(("\n", "\r\n")),
    st.sampled_from(("", "\n", "\r\n", "\n", "\r\n", "\n\n")),
    st.sampled_from(("",) * 7 + (",", "\n", "\r", "\r\n", "\0", '"', '"a,b"')),
    st.floats(min_value=0.0, max_value=1.0),
)
_CLEAN = CSV_HEADER + ROW + ROW.replace("X", "Y")


def _column_reprs(columns):
    return None if columns is None else [[(type(v), repr(v)) for v in column] for column in columns]


def _reader_columns(text):
    """The columns, or None, that `csv.reader` over the whole text gives, each cell
    parsed by the schema: the reference for the loader's column path."""
    width = len(KERNEL_COLUMNS)
    try:
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        rows = list(reader)
        if [cell.strip() for cell in header] != list(KERNEL_COLUMNS) or {len(row) for row in rows} - {width}:
            return None
        cells = list(zip(*rows)) or [()] * width
        return tuple(tuple(map(parse, column)) for (_, parse, _, _), column in zip(fabcarbon.dataset._SCHEMA, cells))
    except (StopIteration, csv.Error, ValueError, KeyError):
        return None


def _clean_csv(rows):
    return CSV_HEADER + "".join(f"K{i},d{i % 3},0.{i % 9 + 1},0.3,0.5,{i % 200},{i % 2}\n" for i in range(rows))


def _reader_rows(text):
    """Each row that `csv.reader` reads, with its `line_num`, then its csv.Error text or None."""
    reader = csv.reader(io.StringIO(text))
    rows = []
    try:
        for row in reader:
            rows.append((reader.line_num, row))
    except csv.Error as exc:
        return rows, str(exc)
    return rows, None


def _sliced_rows(text):
    """Each row that `fabcarbon.dataset._csv_slices` gives, with its line, then the text of
    the csv.Error it raises as a ParseError, or None; a slice's fields, when it has them,
    are its rows' cells field by field."""
    rows = []
    try:
        for lines, fields, cells in fabcarbon.dataset._csv_slices(text):
            cells = list(map(list, cells))
            assert len(lines) == len(cells) > 0
            if fields is None:
                assert {len(row) for row in cells} != {len(KERNEL_COLUMNS)}
            else:
                assert list(map(list, fields)) == list(map(list, zip(*cells)))
            rows += zip(lines, cells)
    except ParseError as exc:
        return rows, str(exc)
    return rows, None


def _unparsed_records(lines, rows):
    """A `_row_records` that fails when its first record is asked for."""
    raise AssertionError("per-record parse")
    yield


def _column_path(text):
    """The columns that `load_dataset` reads from a CSV `text` without parsing any row
    record by record, or None when it cannot: every column check is made to pass."""
    with mock.patch.object(fabcarbon.dataset, "_row_records", _unparsed_records), \
            mock.patch.object(fabcarbon.dataset, "_columns_valid", return_value=True) as valid:
        try:
            load_dataset(io.StringIO(text), "csv")
        except (AssertionError, DatasetError):  # a row parsed record by record; a header fault; no kernels
            pass
    return valid.call_args.args[0] if valid.called else None


@settings(deadline=None)
@given(text=CSV_TEXTS)
@example(text=_CLEAN.replace("\n", "\r\n").removesuffix("\r\n"))  # CRLF, no final newline
@example(text=dump_dataset(KernelDataset([KernelProfile("a,b", "d", 0.3, 0.3, 0.5, 10.0)], builtin_dataset().fabric), "csv"))
@example(text=CSV_HEADER + '"X",d,0.3,0.3,0.5,10,0\n')  # a quoted name
@example(text=_CLEAN.replace("X,d", "X\r,d"))  # a bare CR mid-line
@example(text=_CLEAN + "\r")  # and at the end of the text
@example(text=_CLEAN.replace("X,d", "X\0,d"))  # a csv.Error on 3.10, a field on 3.11+
@example(text=_CLEAN.replace("X,d", "X" * 131_073 + ",d"))  # over the csv module's field limit
@example(text=_CLEAN.replace("Y,d", "Y" * 131_073 + ",d").removesuffix("\n"))  # and in the last line
@example(text=_CLEAN.replace("X,d", "X\u2028\x85\x0b\x1cZ,d"))  # `str.splitlines` would cut here
@example(text=CSV_HEADER + "X,d,1,1,1,1,0,Y\nd,1,1,1,1,0\n")  # 8 then 6 fields, 12 commas in all
@example(text=" name , domain ,area_norm,energy_norm,utilization,memory_kb, estimated \n" + ROW)
@example(text=_CLEAN + "\n")  # a trailing blank line
@example(text=CSV_HEADER)
@example(text="")
@example(text=CSV_HEADER + "a\n1,1,1,1,0,\0,Y,d,1,1,1,1,0\n")  # 1 then 13 cells, one "\0" where a line end would sit
# a line over the field limit, of cells under it, in the second slice of 512 lines
@example(text=_clean_csv(1499).replace("\nK700,d1,", "\nK700" + "n" * 70_000 + ",d1" + "d" * 70_000 + ","))
# 512 lines of about 300 characters: a slice longer than the field limit, but no line
@example(text=CSV_HEADER + "".join(f"K{i:03d}{'n' * 270},d,0.3,0.3,0.5,10,0\n" for i in range(511)))
def test_csv_columns_match_the_csv_reader_columns(text):
    expected_rows, expected = _reader_rows(text), _reader_columns(text)
    if _refused(text):
        got_rows, got = _sliced_rows(text), _column_path(text)
    else:  # the split cutter answers alone
        with mock.patch.object(csv, "reader", side_effect=AssertionError("csv.reader")):
            got_rows, got = _sliced_rows(text), _column_path(text)
    assert got_rows == expected_rows
    assert _column_reprs(got) == _column_reprs(expected)


def test_only_a_long_line_goes_to_csv_reader():
    long_line = "K700" + "n" * 70_000 + ",d1" + "d" * 70_000 + ",0.3,0.3,0.5,10,0\n"
    text = _clean_csv(1499).replace("K700,d1,0.8,0.3,0.5,100,0\n", long_line)
    expected_rows, expected = _reader_rows(text), _reader_columns(text)
    with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
        got_rows = _sliced_rows(text)
    assert [list(call.args[0]) for call in reader.call_args_list] == [[long_line]]
    assert got_rows == expected_rows
    assert expected is not None and len(expected[0]) == 1499 and _column_path(text) == expected


@pytest.mark.parametrize("limit", [sys.maxsize, 12])
def test_csv_columns_under_another_field_limit(limit):
    # 12 admits every cell, but not every line: `csv.reader` cuts each of those lines
    text = CSV_HEADER + ROW
    saved = csv.field_size_limit(limit)
    try:
        expected_rows, expected = _reader_rows(text), _reader_columns(text)
        with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
            got_rows = _sliced_rows(text)
        got = _column_path(text)
    finally:
        csv.field_size_limit(saved)
    assert expected is not None and got == expected and got_rows == expected_rows
    assert reader.call_count == (0 if limit == sys.maxsize else 2)


# A quoted document, read by `csv.reader`, with a fault on line 3 and one on line 5:
# the first fault in the document is the one reported, whichever slice holds them.
_QUOTED = CSV_HEADER + '"A",d,0.3,0.3,0.5,10,0\n%sC,d,0.3,0.3,0.5,10,0\n%s'


@pytest.mark.parametrize(
    "text, message, line",
    [
        (_QUOTED % ("B,d,oops,0.3,0.5,10,0\n", "D\r,d,0.3,0.3,0.5,10,0\n"),
         "not a number: 'oops' (line 3, column 'area_norm')", 3),
        (_QUOTED % ("B,d,0.3,0.3,1.5,10,0\n", "D\r,d,0.3,0.3,0.5,10,0\n"), None, 0),  # csv.reader's own text
        (_QUOTED % ("\n", "D,d,oops,0.3,0.5,10,0\n"), "not a number: 'oops' (line 5, column 'area_norm')", 5),
    ],
    ids=["cell-then-bare-cr", "range-then-bare-cr", "blank-then-cell"],
)
def test_the_first_fault_in_a_slice_is_reported(text, message, line):
    with pytest.raises(ParseError) as exc_info:
        load_dataset(io.StringIO(text), "csv")
    assert str(exc_info.value) == (message or _reader_rows(text)[1])
    assert exc_info.value.line == line


@pytest.mark.parametrize("shape", BLANK_ROW_SHAPES.values(), ids=BLANK_ROW_SHAPES.keys())
def test_a_blank_row_costs_one_slice(shape):
    rows = [f"K{i},d,0.3,0.4,0.5,10,{i % 2}\n" for i in range(5000)]
    rows[4500] = shape(rows[4500])
    counts = {"parsed": 0, "built": 0}
    row_records, record_kernels = fabcarbon.dataset._row_records, fabcarbon.dataset._record_kernels

    def counted(name, records):
        for record in records:
            counts[name] += 1
            yield record

    with mock.patch.object(fabcarbon.dataset, "_row_records", lambda *args: counted("parsed", row_records(*args))), \
            mock.patch.object(fabcarbon.dataset, "_record_kernels", lambda records: record_kernels(counted("built", records))):
        loaded = load_dataset(io.StringIO(CSV_HEADER + "".join(rows)), "csv")
    assert len(loaded) == 5000
    # only the slice holding the row is read record by record, and no profile is built
    assert counts["parsed"] <= fabcarbon.dataset._SLICE_ROWS and counts["built"] <= fabcarbon.dataset._SLICE_ROWS


@pytest.mark.parametrize(
    "text",
    [
        _clean_csv(10_000),
        _clean_csv(10_000).replace("\n", "\r\n"),
        _clean_csv(10_000).replace("\nK5000,", '\n"K,5000",'),  # as `dump_dataset` writes a name with a comma
        dump_dataset(builtin_dataset(), "csv"),
    ],
    ids=["clean-10k", "crlf-10k", "quoted-10k", "dump-dataset"],
)
def test_clean_csv_takes_the_column_path(text):
    # a silent fall-back to the per-record path would read every row a second time
    with mock.patch.object(fabcarbon.dataset, "_record_kernels", side_effect=AssertionError("per-record path")):
        loaded = load_dataset(io.StringIO(text), "csv")
    assert len(loaded) == text.count("\n") - 1


class TestByteOrderMark:
    """One leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write, is dropped."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_leading_mark_loads_like_none(self, dataset, fmt):
        text = dump_dataset(dataset, fmt)
        expected = load_dataset(io.StringIO(text), fmt)
        assert load_dataset(io.BytesIO(b"\xef\xbb\xbf" + text.encode("utf-8")), fmt) == expected
        assert load_dataset(io.StringIO("\ufeff" + text), fmt) == expected

    def test_a_second_mark_is_refused(self, dataset):
        text = "\ufeff\ufeff" + dump_dataset(dataset, "csv")
        with pytest.raises(ParseError, match="expected header"):
            load_dataset(io.BytesIO(text.encode("utf-8")), "csv")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_dataset(io.StringIO("\ufeff\ufeff" + dump_dataset(dataset, "json")), "json")


class TestKernelSubsets:
    def test_without_is_a_dataset_of_the_kept_rows(self, dataset):
        kept = dataset.without({"AESEncrypt", "Viterbi"})
        assert isinstance(kept, KernelDataset) and len(kept) == 6
        assert kept.names() == tuple(n for n in dataset.names() if n not in {"AESEncrypt", "Viterbi"})
        assert (kept.fabric, kept.provenance, kept.version) == (dataset.fabric, dataset.provenance, dataset.version)
        assert kept.kernels == tuple(k for k in dataset.kernels if k.name in kept.names())

    def test_aggregate_reads_a_dataset_as_its_kernels(self, dataset):
        kept = dataset.without({"AESEncrypt"})
        assert aggregate(kept) == aggregate(list(kept.kernels))

    def test_empty_dataset_has_length_zero(self, dataset):
        assert len(KernelDataset([], dataset.fabric)) == 0

    def test_kernel_builds_only_its_own_row(self, dataset, monkeypatch):
        loaded = load_dataset(io.StringIO(dump_dataset(dataset, "csv")), "csv")
        expected = dataset.kernel("Viterbi")
        built = []
        real = KernelProfile.__post_init__
        monkeypatch.setattr(KernelProfile, "__post_init__", lambda k: built.append(k) or real(k))
        assert loaded.kernel("Viterbi") == expected
        assert built == [expected]
