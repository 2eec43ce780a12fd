from __future__ import annotations

import io
import json
import math
import re
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
