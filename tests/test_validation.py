"""Domain types reject NaN, infinities and non-numbers with a typed error."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from fabcarbon import (
    AggregateRatios,
    CdcQuery,
    DeviceBreakdown,
    FootprintWeights,
    KernelProfile,
    ScaleMode,
    ScenarioSpec,
    SweepResult,
    cdc_curve,
    dsa_footprint,
    fit_aggregates,
    fit_scale,
    scale_factor,
    sweep_grid,
)
from fabcarbon.dataset import KernelDataset, builtin_dataset
from fabcarbon.errors import (
    AlphaPole,
    ConcurrencyExceedsPopulation,
    DegenerateModel,
    EmptyKernelSet,
    InvalidAggregates,
    InvalidAlpha,
    InvalidBreakdown,
    InvalidConcurrency,
    InvalidKernel,
    InvalidRange,
    InvalidScale,
)
from fabcarbon.scenarios import scenario_kernels


def kernel(**fields):
    base = dict(name="k", domain="t", area_norm=0.3, energy_norm=0.3, utilization=0.5, memory_kb=1.0)
    return KernelProfile(**{**base, **fields})


def aggregates(**fields):
    return AggregateRatios(**{**dict(area=0.3, energy=0.3, utilization=1.0, kernel_count=1), **fields})


def breakdown(**fields):
    base = dict(production_pct=80.0, transport_pct=3.0, use_pct=15.0, eol_pct=2.0)
    return DeviceBreakdown(**{**base, **fields})


def query(**fields):
    return CdcQuery(FootprintWeights(0.5), aggregates(), **fields)


def fit(alpha=0.3, value=9.773, **kwargs):
    return fit_aggregates([(alpha, value), (0.9, 4.01)], **kwargs)


def curve(parameter=0.2):
    return SweepResult("x", (0.1, parameter), (1.0, 2.0), 1, 1.0)


FLOAT_FIELDS = [
    (kernel, "area_norm", InvalidKernel),
    (kernel, "energy_norm", InvalidKernel),
    (kernel, "utilization", InvalidKernel),
    (kernel, "memory_kb", InvalidKernel),
    (aggregates, "area", InvalidAggregates),
    (aggregates, "energy", InvalidAggregates),
    (aggregates, "utilization", InvalidAggregates),
    (FootprintWeights, "alpha_e2o", InvalidAlpha),
    (breakdown, "production_pct", InvalidBreakdown),
    (breakdown, "transport_pct", InvalidBreakdown),
    (breakdown, "use_pct", InvalidBreakdown),
    (breakdown, "eol_pct", InvalidBreakdown),
    (query, "scale", InvalidScale),
    (fit, "alpha", InvalidAlpha),
    (fit, "value", InvalidRange),
    (fit, "utilization", InvalidAggregates),
    (curve, "parameter", InvalidRange),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "make,field,error", FLOAT_FIELDS, ids=[f"{m.__name__}.{f}" for m, f, _ in FLOAT_FIELDS]
)
def test_non_finite_float_rejected(make, field, error, value):
    with pytest.raises(error):
        make(**{field: value})


@pytest.mark.parametrize("value", ["0.3", True, None], ids=["str", "bool", "none"])
def test_kernel_rejects_non_numbers(value):
    with pytest.raises(InvalidKernel):
        kernel(area_norm=value)


CONCURRENCY_USERS = {
    "CdcQuery": lambda n: query(n=n),
    "ScenarioSpec": lambda n: ScenarioSpec("s", n=n),
    "scale_factor": lambda n: scale_factor(n, ScaleMode.CONSERVATIVE),
    "dsa_footprint": lambda n: dsa_footprint(40, n, FootprintWeights(0.5), aggregates()),
    "fit_aggregates": lambda n: fit(n=n),
    "fit_scale": lambda n: fit_scale([(0.5, 20.0)], n, aggregates()),
    "sweep_grid": lambda n: sweep_grid([0.5], [0.3], [0.3], n=n),
}


@pytest.mark.parametrize(
    "n",
    [0, -1, math.nan, math.inf, 1.5, 2.0, Fraction(3, 2), True],
    ids=["0", "-1", "nan", "inf", "1.5", "2.0", "fraction", "bool"],
)
@pytest.mark.parametrize("make", CONCURRENCY_USERS.values(), ids=CONCURRENCY_USERS.keys())
def test_concurrency_below_one_shares_one_error(make, n):
    with pytest.raises(InvalidConcurrency) as caught:
        make(n)
    assert str(caught.value).endswith(f": {n!r}")


class TestScenarioSpec:
    @pytest.mark.parametrize("population", [3, math.nan, math.inf])
    def test_population_must_cover_concurrency(self, population):
        with pytest.raises(ConcurrencyExceedsPopulation):
            ScenarioSpec("s", n=4, dsa_population=population)

    @pytest.mark.parametrize("population", [40.5, 40.0, True, 0])
    def test_population_is_an_integer_count(self, population):
        with pytest.raises(ConcurrencyExceedsPopulation, match=r"DSA population out of \[1, 2\*\*53\]"):
            ScenarioSpec("s", n=1, dsa_population=population)

    def test_alpha_zero_rejected(self):
        with pytest.raises(InvalidAlpha):
            ScenarioSpec("s", weights=FootprintWeights(0.0))

    def test_excluding_every_kernel_is_empty_kernel_set(self):
        ds = builtin_dataset()
        solo = KernelDataset(kernels=ds.kernels[:1], fabric=ds.fabric)
        spec = ScenarioSpec("s", excluded_kernels=frozenset({ds.kernels[0].name}))
        with pytest.raises(EmptyKernelSet):
            scenario_kernels(spec, solo)

    def test_empty_dataset_is_not_swapped_for_the_bundled_one(self):
        with pytest.raises(EmptyKernelSet):
            scenario_kernels(ScenarioSpec("s"), KernelDataset([], builtin_dataset().fabric))


ALPHA_USERS = {
    "CdcQuery": lambda a: CdcQuery(FootprintWeights(a), aggregates()),
    "ScenarioSpec": lambda a: ScenarioSpec("s", weights=FootprintWeights(a)),
    "cdc_curve": lambda a: cdc_curve([0.5, a], aggregates(), 1, 1.0),
}


@pytest.mark.parametrize("make", ALPHA_USERS.values(), ids=ALPHA_USERS.keys())
def test_alpha_zero_is_the_pole_everywhere(make):
    with pytest.raises(AlphaPole):
        make(0.0)


@pytest.mark.parametrize("alpha", [1.1, -0.1, math.nan, math.inf])
def test_curve_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(InvalidAlpha):
        cdc_curve([alpha], aggregates(), 1, 1.0)


class _Float(float):
    def __repr__(self) -> str:
        return "not a float"


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, True, 2, _Float(2.0)])
def test_sweep_result_values_are_finite_and_positive(value):
    with pytest.raises(DegenerateModel):
        SweepResult("I", (0.5, 0.6), (2.0, value), 1, 1.0)


@pytest.mark.parametrize(
    "n, scale, error",
    [(0, 1.0, InvalidConcurrency), (math.nan, 1.0, InvalidConcurrency), (1, 0.5, InvalidScale), (1, math.inf, InvalidScale)],
)
def test_sweep_result_rejects_concurrency_and_scale(n, scale, error):
    with pytest.raises(error):
        SweepResult("I", (0.5,), (2.0,), n, scale)


def test_sweep_result_columns_have_equal_length():
    with pytest.raises(InvalidRange):
        SweepResult("I", (0.5, 0.6), (2.0,), 1, 1.0)


def test_sweep_result_checks_each_parameters_column():
    accepted = (0.5, 0.6)
    SweepResult("I", accepted, (2.0, 1.0), 1, 1.0)
    SweepResult("I", accepted, (3.0, 2.0), 1, 1.0)  # the same tuple again
    with pytest.raises(DegenerateModel):  # values are checked on every curve
        SweepResult("I", accepted, (3.0, math.nan), 1, 1.0)
    for params in [(0.6, 0.5), (0.5, 0.5)]:  # distinct tuples, checked after `accepted` passed
        with pytest.raises(InvalidRange, match="strictly increasing"):
            SweepResult("I", params, (2.0, 1.0), 1, 1.0)
    mutable = [0.5, 0.6]
    SweepResult("I", mutable, (2.0, 1.0), 1, 1.0)
    mutable.reverse()
    with pytest.raises(InvalidRange, match="strictly increasing"):
        SweepResult("I", mutable, (2.0, 1.0), 1, 1.0)
