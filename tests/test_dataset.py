from __future__ import annotations

import io
import json

import pytest

from fabcarbon import (
    aggregate,
    dump_dataset,
    load_dataset,
    validate_dataset,
)
from fabcarbon.dataset import FabricSpec, GridSpec, KernelDataset
from fabcarbon.errors import DatasetValidationError, EmptyInput, ParseError

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

    def test_bytes_input_accepted(self, dataset):
        raw = dump_dataset(dataset, "json").encode("utf-8")
        assert load_dataset(io.BytesIO(raw), "json") == dataset


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
        small_fabric = FabricSpec(GridSpec(8, 8), 32, 100.0, 100.0)
        broken = KernelDataset(kernels=dataset.kernels, fabric=small_fabric)
        report = validate_dataset(broken)
        assert any("fabric memory below largest kernel" in v for v in report)

    def test_parse_error_carries_line_and_column(self):
        text = CSV_HEADER + "X,test,not-a-number,0.3,0.5,10,0\n"
        with pytest.raises(ParseError) as exc_info:
            load_dataset(io.StringIO(text), "csv")
        assert exc_info.value.line == 2
        assert exc_info.value.column == "area_norm"

    def test_wrong_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            load_dataset(io.StringIO("a,b,c\n1,2,3\n"), "csv")

    def test_header_only_is_empty(self):
        with pytest.raises(EmptyInput):
            load_dataset(io.StringIO(CSV_HEADER), "csv")

    def test_future_version_rejected(self, dataset):
        doc = json.loads(dump_dataset(dataset, "json"))
        doc["version"] = 99
        with pytest.raises(DatasetValidationError, match="version"):
            load_dataset(io.StringIO(json.dumps(doc)), "json")

    def test_malformed_json_is_a_parse_error(self):
        with pytest.raises(ParseError):
            load_dataset(io.StringIO("{not json"), "json")

