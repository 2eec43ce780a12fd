"""The frozen-record semantics every domain type shares (`fabcarbon.core.Record`)."""

from __future__ import annotations

import copy
import inspect
import io
import pickle

import pytest

from fabcarbon import (
    AggregateRatios,
    CdcQuery,
    DeviceBreakdown,
    FabricSpec,
    FootprintWeights,
    KernelDataset,
    KernelProfile,
    SavingsResult,
    ScaleMode,
    ScenarioSpec,
    SweepResult,
    builtin_dataset,
    dump_dataset,
    load_dataset,
)
from fabcarbon.core import FrozenRecordError, Record
from fabcarbon.errors import (
    ConcurrencyExceedsPopulation,
    InvalidAggregates,
    InvalidAlpha,
    InvalidBreakdown,
    InvalidConcurrency,
    InvalidFabric,
    InvalidKernel,
    InvalidRange,
)
from fabcarbon.report import Column, RenderedReport
from fabcarbon.scenarios import DEFAULT_ALPHA

_AGG = AggregateRatios(0.3, 0.4, 0.64, 8)
_FABRIC = FabricSpec(8, 8, 32, 256.0, 100.0)
_COLUMN = Column("cdc", "cdc", "ratio")

# Every record type with the positional arguments of one valid instance.
SAMPLES = {
    KernelProfile: ("GeMM", "machine learning", 0.41, 0.541, 1.0, 108.0, True),
    AggregateRatios: (0.3, 0.4, 0.64, 8),
    FootprintWeights: (0.7,),
    DeviceBreakdown: (80.0, 5.0, 14.0, 1.0),
    FabricSpec: (8, 8, 32, 256.0, 100.0),
    KernelDataset: (builtin_dataset().kernels[:3], _FABRIC, "three kernels", 1),
    CdcQuery: (FootprintWeights(0.5), _AGG, 2, 3.0),
    SweepResult: ("x", (0.5, 0.9), (3.0, 2.0), 1, 1.0, ("FFT",)),
    Column: ("cdc", "cdc", "ratio"),
    RenderedReport: ((_COLUMN,), ((1.0,), (None,)), ("a note",)),
    ScenarioSpec: ("CASE", frozenset({"FFT"}), 2, ScaleMode.CONSERVATIVE, 40, FootprintWeights(0.5)),
    SavingsResult: (4, 2.5, 2.0, 3.0),
}

# Each type with a `__post_init__` check: arguments that break it, and the error.
INVALID = [
    (KernelProfile, ("GeMM", "ml", 0.41, 0.541, 1.5, 108.0, False), InvalidKernel),
    (AggregateRatios, (0.0, 0.4, 0.64, 8), InvalidAggregates),
    (FootprintWeights, (1.5,), InvalidAlpha),
    (DeviceBreakdown, (50.0, 0.0, 0.0, 0.0), InvalidBreakdown),
    (FabricSpec, (0, 8, 32, 256.0, 100.0), InvalidFabric),
    (CdcQuery, (FootprintWeights(0.5), _AGG, 0, None), InvalidConcurrency),
    (SweepResult, ("x", (0.5, 0.9), (3.0,), 1, 1.0), InvalidRange),
    (ScenarioSpec, ("CASE", frozenset(), 50, ScaleMode.CONSERVATIVE, 40), ConcurrencyExceedsPopulation),
    (SavingsResult, (4, 0.0, None, None), ValueError),
]

TYPES = list(SAMPLES)


def _make(cls):
    return cls(*SAMPLES[cls])


def _keywords(cls):
    """The sample's arguments by parameter name."""
    return dict(inspect.signature(cls).bind(*SAMPLES[cls]).arguments)


def test_every_record_type_is_sampled():
    found = set()
    pending = [Record]
    while pending:
        subclasses = pending.pop().__subclasses__()
        found.update(c for c in subclasses if c.__module__.startswith("fabcarbon."))
        pending.extend(subclasses)
    assert found == set(SAMPLES)


@pytest.mark.parametrize("cls", TYPES, ids=lambda c: c.__name__)
class TestRecordSemantics:
    def test_equal_fields_give_equal_objects_and_hashes(self, cls):
        a, b = _make(cls), _make(cls)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_another_class_is_never_equal(self, cls):
        record = _make(cls)
        subclass = type("Sub", (cls,), {})  # declares no fields: same fields, same constructor
        twin = subclass(*SAMPLES[cls])
        assert twin._fields == cls._fields
        assert record != twin and twin != record
        assert record != tuple(getattr(record, f) for f in cls._fields)
        assert all(record != _make(other) for other in TYPES if other is not cls)

    def test_assignment_and_deletion_raise(self, cls):
        record = _make(cls)
        field = cls._fields[0]
        before = getattr(record, field)
        assert issubclass(FrozenRecordError, AttributeError)
        with pytest.raises(FrozenRecordError):
            setattr(record, field, before)
        with pytest.raises(FrozenRecordError):
            delattr(record, field)
        with pytest.raises(FrozenRecordError):
            record.new_attribute = 1
        assert getattr(record, field) is before and not hasattr(record, "new_attribute")

    def test_repr_names_the_fields(self, cls):
        record = _make(cls)
        text = repr(record)
        assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
        for field in cls._fields:
            assert f"{field}={getattr(record, field)!r}" in text

    def test_positional_and_keyword_construction_agree(self, cls):
        assert cls(**_keywords(cls)) == _make(cls)

    def test_missing_unknown_or_repeated_argument_raises_type_error(self, cls):
        args = SAMPLES[cls]
        first = next(iter(_keywords(cls)))
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*args, unknown=1)
        with pytest.raises(TypeError):
            cls(*args, **{first: args[0]})

    def test_copy_and_pickle_round_trip(self, cls):
        record = _make(cls)
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(clone) is cls and clone == record and hash(clone) == hash(record)


@pytest.mark.parametrize("cls,args,error", INVALID, ids=lambda v: getattr(v, "__name__", ""))
def test_post_init_check_fires(cls, args, error):
    with pytest.raises(error):
        cls(*args)


def test_fields_follow_annotations_and_class_attributes_are_defaults():
    assert KernelProfile._fields == (
        "name", "domain", "area_norm", "energy_norm", "utilization", "memory_kb", "estimated",
    )
    assert KernelDataset._fields == ("columns", "fabric", "provenance", "version")
    spec = ScenarioSpec("x")
    assert (spec.excluded_kernels, spec.n, spec.scale_mode) == (frozenset(), 1, ScaleMode.CONSERVATIVE)
    assert spec.weights == FootprintWeights(DEFAULT_ALPHA)
    assert ScenarioSpec("y").weights is spec.weights  # one shared, frozen default


def test_a_subclass_appends_its_fields_and_keeps_the_defaults_and_check():
    class Tagged(KernelProfile):
        tag: str = "t"

    tagged = Tagged("GeMM", "ml", 0.41, 0.541, 1.0, 108.0)
    assert Tagged._fields == (*KernelProfile._fields, "tag")
    assert (tagged.estimated, tagged.tag) == (False, "t")
    assert tagged != Tagged("GeMM", "ml", 0.41, 0.541, 1.0, 108.0, tag="u")
    with pytest.raises(InvalidKernel):
        Tagged("GeMM", "ml", 0.41, 0.541, 1.5, 108.0)


def _loaded():
    return load_dataset(io.StringIO(dump_dataset(builtin_dataset(), "json")), "json")


def test_kernels_cache_on_a_frozen_dataset():
    ds = _loaded()
    assert "kernels" not in vars(ds)
    kernels = ds.kernels
    assert kernels is ds.kernels and len(kernels) == len(ds)
    assert ds == _loaded() and hash(ds) == hash(_loaded())  # the cache is no field
    with pytest.raises(FrozenRecordError):
        ds.kernels = ()
