"""Model invariants checked over randomized valid inputs."""

from __future__ import annotations

import math
import statistics
import sys
from itertools import islice, product

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from fabcarbon import (
    AggregateRatios,
    CdcQuery,
    FootprintWeights,
    KernelProfile,
    ScaleMode,
    SweepResult,
    aggregate,
    alpha_from_breakdown,
    builtin_case,
    cdc,
    cdc_curve,
    dsa_footprint,
    fabric_footprint,
    fit_aggregates,
    is_fabric_greener,
    min_dsas_to_replace,
    savings_factor,
    scale_factor,
)
import fabcarbon.core
import fabcarbon.engine
from fabcarbon.core import DeviceBreakdown, mean
from fabcarbon.errors import DegenerateModel, ModelError
from fabcarbon.engine import grid_curves
from test_engine import eager_sweep_grid, outcome, point_by_point_cdc_curve
from test_report import assert_streamed_grid_table

# Ratios below one keep the threshold at or above the concurrency level,
# which is the regime the model is about (DSAs leaner than the fabric).
alphas = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
ratios = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)
concurrency = st.integers(min_value=1, max_value=4)
utilizations = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


def make_query(alpha, area, energy, n, scale=None):
    agg = AggregateRatios(area=area, energy=energy, utilization=1.0, kernel_count=1)
    return CdcQuery(FootprintWeights(alpha), agg, n=n, scale=scale)


class TestThresholdInvariants:
    @given(alpha=alphas, area=ratios, energy=ratios, n=concurrency)
    @example(alpha=0.17059493934207098, area=1.0, energy=1.0, n=1)
    def test_fixed_point(self, alpha, area, energy, n):
        query = make_query(alpha, area, energy, n)
        threshold = cdc(query)
        dsa = dsa_footprint(threshold, n, query.weights, query.agg)
        assert abs(dsa - fabric_footprint(query.effective_scale)) < 1e-9

    @given(
        alpha=st.floats(min_value=0.05, max_value=0.99),
        area=ratios,
        energy=st.floats(min_value=0.05, max_value=0.99),  # flat in alpha at E = n'/n
        n=concurrency,
    )
    def test_strictly_decreasing_in_alpha(self, alpha, area, energy, n):
        delta = 0.01
        assert cdc(make_query(alpha + delta, area, energy, n)) < cdc(make_query(alpha, area, energy, n))

    @given(alpha=alphas, area=st.floats(min_value=0.05, max_value=0.9), energy=ratios, n=concurrency)
    def test_strictly_decreasing_in_area(self, alpha, area, energy, n):
        assert cdc(make_query(alpha, area + 0.05, energy, n)) < cdc(make_query(alpha, area, energy, n))

    @given(
        alpha=st.floats(min_value=0.05, max_value=0.99),  # the E term vanishes at alpha = 1
        area=ratios,
        energy=st.floats(min_value=0.05, max_value=0.9),
        n=concurrency,
    )
    def test_strictly_decreasing_in_energy(self, alpha, area, energy, n):
        assert cdc(make_query(alpha, area, energy + 0.05, n)) < cdc(make_query(alpha, area, energy, n))

    @given(area=ratios, energy=ratios, n=concurrency)
    def test_full_embodied_weight_hits_the_limit(self, area, energy, n):
        query = make_query(1.0, area, energy, n)
        assert math.isclose(cdc(query), n / area, rel_tol=1e-12)

    @given(alpha=alphas, area=ratios, energy=ratios, n=concurrency)
    def test_conservative_concurrency_multiplies_serial(self, alpha, area, energy, n):
        serial = cdc(make_query(alpha, area, energy, 1))
        concurrent = cdc(make_query(alpha, area, energy, n))
        assert math.isclose(concurrent, n * serial, rel_tol=1e-12)

    @given(alpha=alphas, area=ratios, energy=ratios, scale=st.floats(min_value=1.0, max_value=3.0))
    def test_threshold_scales_inversely_with_area(self, alpha, area, energy, scale):
        base = cdc(make_query(alpha, area, energy, 1))
        shrunk = cdc(make_query(alpha, area / scale, energy, 1))
        assert math.isclose(shrunk / scale, base, rel_tol=1e-9)

    @given(alpha=st.floats(min_value=0.1, max_value=0.95), area=ratios, energy=ratios, n=concurrency)
    # E = 1: the slope is 0, and the two evaluations (48 + 1 ulp, 48 - 2 ulps) give 1.07e-9
    @example(alpha=0.25, area=0.0625, energy=1.0, n=3)
    def test_central_difference_matches_analytic_derivative(self, alpha, area, energy, n):
        h = 1e-5
        numeric = (
            cdc(make_query(alpha + h, area, energy, n)) - cdc(make_query(alpha - h, area, energy, n))
        ) / (2 * h)
        analytic = n * (energy - 1.0) / (alpha * alpha * area)
        # Rounding model. Each evaluation computes (n - (1-a)*n*E) / (a*A). The
        # subtraction cancels, so its rounding error is a few ulps not of the
        # result but of the operands, carried through the division:
        # about 2 * ulp(M) with M = (n + (1-a)*n*E) / (a*A), which grows as alpha
        # falls. The central difference divides the two errors by 2h, so it
        # carries up to 2 * ulp(M) / h; the bound doubles that for M crossing a
        # power of two between alpha - h and alpha + h. rel_tol covers the
        # truncation error, relative h^2 / alpha^2 <= 1e-8.
        magnitude = (n + (1.0 - alpha) * n * energy) / (alpha * area)
        rounding = 4 * math.ulp(magnitude) / h
        assert math.isclose(numeric, analytic, rel_tol=1e-6, abs_tol=rounding)


class TestDecisionInvariants:
    @given(alpha=alphas, area=ratios, energy=ratios, n=concurrency)
    # the closed form gives 2.9999999999999996 where the footprints tie at 3
    @example(alpha=0.3861017630432787, area=1.0, energy=1.0, n=3)
    def test_min_population_agrees_with_linear_scan(self, alpha, area, energy, n):
        query = make_query(alpha, area, energy, n)
        answer = min_dsas_to_replace(query)
        scan = next(N for N in range(n, 100_000) if is_fabric_greener(N, query))
        assert answer == scan

    @given(alpha=alphas, area=ratios, energy=ratios, n=concurrency)
    def test_population_above_threshold_is_greener(self, alpha, area, energy, n):
        query = make_query(alpha, area, energy, n)
        threshold = cdc(query)
        above = math.ceil(threshold) + 1
        assert is_fabric_greener(above, query)

    @settings(deadline=None)
    @given(
        alpha=st.floats(min_value=0.01, max_value=1.0),
        area=st.one_of(ratios, st.floats(min_value=1e-300, max_value=1.0)),
        energy=st.one_of(ratios, st.floats(min_value=1e-300, max_value=1.5)),
        n=st.one_of(concurrency, st.integers(min_value=1, max_value=2**53)),
    )
    @example(alpha=0.5, area=1e-17, energy=0.35, n=1)  # the closed form's guess is 48 counts short
    def test_min_population_is_the_least_greener_count(self, alpha, area, energy, n):
        query = make_query(alpha, area, energy, n)
        try:
            cdc(query)
        except DegenerateModel:  # no finite threshold
            assume(False)
        # oracle: plain bisection over every count a float holds, greener at the top
        low, high = n - 1, int(FLOAT_MAX)
        assert is_fabric_greener(high, query)
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (low, middle) if is_fabric_greener(middle, query) else (middle, high)
        assert min_dsas_to_replace(query) == high


class TestCalibrationInvariants:
    @given(
        alpha1=st.floats(min_value=0.05, max_value=0.45),
        alpha2=st.floats(min_value=0.55, max_value=1.0),
        area=st.floats(min_value=0.05, max_value=0.95),
        energy=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_round_trip(self, alpha1, alpha2, area, energy):
        points = [(a, cdc(make_query(a, area, energy, 1))) for a in (alpha1, alpha2)]
        fit = fit_aggregates(points)
        assert math.isclose(fit.area, area, rel_tol=1e-9)
        assert math.isclose(fit.energy, energy, rel_tol=1e-9)


class TestFootprintInvariants:
    @given(
        alpha=st.floats(min_value=0.0, max_value=1.0),
        area=ratios,
        energy=ratios,
        n=concurrency,
        population=st.integers(min_value=4, max_value=500),
    )
    def test_linear_in_population(self, alpha, area, energy, n, population):
        agg = AggregateRatios(area=area, energy=energy, utilization=1.0, kernel_count=1)
        w = FootprintWeights(alpha)
        step = dsa_footprint(population + 1, n, w, agg) - dsa_footprint(population, n, w, agg)
        assert math.isclose(step, alpha * area, rel_tol=1e-9, abs_tol=1e-12)

    @given(
        production=st.floats(min_value=0, max_value=100),
        transport=st.floats(min_value=0, max_value=10),
        eol=st.floats(min_value=0, max_value=10),
    )
    def test_breakdown_alpha_in_unit_interval(self, production, transport, eol):
        use = 100.0 - production - transport - eol
        if use < 0:
            return
        weights = alpha_from_breakdown(DeviceBreakdown(production, transport, use, eol))
        assert 0.0 <= weights.alpha_e2o <= 1.0


class TestConcurrencyInvariants:
    @given(n=st.integers(min_value=1, max_value=8), util=utilizations)
    def test_scale_factor_bounds(self, n, util):
        avg = scale_factor(n, ScaleMode.average_utilization(), mean_utilization=util)
        cons = scale_factor(n, ScaleMode.CONSERVATIVE)
        assert 1.0 <= avg <= cons == float(n)

    @given(utils=st.lists(utilizations, min_size=1, max_size=10))
    def test_aggregate_utilization_equals_average(self, utils):
        kernels = [KernelProfile(f"k{i}", "t", 0.3, 0.3, u, 1.0) for i, u in enumerate(utils)]
        from fabcarbon import average_utilization

        assert aggregate(kernels).utilization == average_utilization(kernels)


class TestSavingsInvariants:
    @settings(deadline=None)
    @given(n=st.integers(min_value=2, max_value=5), alpha=st.floats(min_value=0.1, max_value=1.0))
    def test_avg_util_to_conservative_ratio(self, n, alpha):
        result = savings_factor(builtin_case("I", n=n, alpha=alpha))
        ratio = result.improvement_avg_util / result.improvement_conservative
        assert math.isclose(ratio, n / result.scale_avg_util, rel_tol=5e-16)


FLOAT_MAX = sys.float_info.max
FLOAT_MIN_NORMAL = sys.float_info.min
finite = st.floats(allow_nan=False, allow_infinity=False)
subnormal = st.floats(min_value=-FLOAT_MIN_NORMAL, max_value=FLOAT_MIN_NORMAL, allow_subnormal=True)
near_max = st.floats(min_value=FLOAT_MAX / 4, max_value=FLOAT_MAX)  # a few of these overflow fsum
# ints past 2**53 have no exact float, so they take the exact path too
numbers = st.one_of(finite, st.integers(min_value=-(2**70), max_value=2**70))


def _bits(value):
    """What tells two means apart: their type and their repr, which gives a float's every bit and sign."""
    return type(value), repr(value)


class TestMean:
    @given(values=st.one_of(
        st.lists(finite, min_size=1, max_size=40),
        st.lists(subnormal, min_size=1, max_size=40),
        st.lists(near_max, min_size=1, max_size=40),
        st.lists(st.one_of(near_max, near_max.map(float.__neg__)), min_size=1, max_size=40),
        st.lists(numbers, min_size=1, max_size=40),
    ))
    @example(values=[1.0, 2.0**-53])  # S / 2 is a tie: the interval test cannot decide it
    @example(values=[2.0000000000000018, 2.0000000000000004, 1.0])  # the mean is not fsum(values) / 3
    @example(values=[FLOAT_MAX, FLOAT_MAX])  # fsum overflows
    @example(values=[-0.0, -0.0])
    @example(values=[-5e-324, 0.0, 0.0])  # rounds to -0.0
    @example(values=[1, 2])
    @example(values=[1, 3])
    @example(values=[1, 2.0])
    def test_equals_statistics_mean_bit_for_bit(self, values):
        assert _bits(mean(values)) == _bits(statistics.mean(values))

    @pytest.mark.parametrize(
        "values,exact",
        [
            ([0.1, 0.2, 0.3], False),
            ([1.0, 2.0**-53], True),
            ([2.0000000000000018, 2.0000000000000004, 1.0], False),  # not fsum(values) / 3, yet decided
            ([FLOAT_MAX, FLOAT_MAX], True),
            ([1, 2], True),
        ],
    )
    def test_exact_path_taken_only_where_fsum_cannot_decide(self, monkeypatch, values, exact):
        calls = []
        real = fabcarbon.core._exact_mean
        monkeypatch.setattr(fabcarbon.core, "_exact_mean", lambda xs: calls.append(xs) or real(xs))
        assert _bits(mean(values)) == _bits(statistics.mean(values))
        assert len(calls) == exact


valid_alpha = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
any_alpha = st.one_of(
    st.floats(), st.integers(min_value=-2, max_value=2), st.just(10**400), st.just(5e-324), st.booleans()
)
# (area, energy, n, scale): the model's own regime, where most curves are finite, or anything in the domain
model_regime = st.tuples(
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=1.0, max_value=1.5),
).map(lambda t: (t[0], t[1], t[2], t[2] * t[3]))
any_regime = st.tuples(
    st.floats(min_value=5e-324, max_value=FLOAT_MAX),
    st.floats(min_value=5e-324, max_value=FLOAT_MAX),
    st.integers(min_value=1, max_value=2**53),
    st.floats(min_value=1.0, max_value=FLOAT_MAX),
)


class TestCurveColumn:
    """The column evaluation of `cdc_curve` against the point-by-point oracle."""

    @given(
        alphas=st.one_of(
            st.lists(valid_alpha, min_size=1, max_size=30),
            st.lists(st.one_of(valid_alpha, valid_alpha, valid_alpha, any_alpha), min_size=1, max_size=30),
        ),
        regime=st.one_of(model_regime, model_regime, any_regime),
    )
    @example(alphas=[0.5, math.nan], regime=(0.35, 0.35, 1, 1.0))  # min and max skip a later NaN
    @example(alphas=[0.3, 5e-324], regime=(0.35, 0.35, 1, 1.0))  # alpha * area underflows
    @example(alphas=[0.3, 0.7], regime=(0.35, 0.35, 2**53, 2.0**53))
    def test_equals_point_by_point_oracle_bit_for_bit(self, alphas, regime):
        area, energy, n, scale = regime
        agg = AggregateRatios(area=area, energy=energy, utilization=1.0, kernel_count=1)
        assert outcome(cdc_curve, alphas, agg, n, scale) == outcome(point_by_point_cdc_curve, alphas, agg, n, scale)


# Grid axes: the model's regime, the ends of the float range, ratios above one, and values `AggregateRatios` refuses
axis_value = st.one_of(
    st.floats(min_value=0.01, max_value=1.5),
    st.sampled_from((1e-320, 5e-324, 1.7e308, FLOAT_MAX, 2.0, 1.5, 1.0)),
    st.floats(min_value=5e-324, max_value=FLOAT_MAX),
    st.sampled_from((0.0, -1.0, math.nan, math.inf, True, 3)),
)
grid_alphas = st.lists(
    st.one_of(valid_alpha, st.sampled_from((5e-324, 1e-300, 1.0))), min_size=1, max_size=20, unique=True
).map(sorted)


def accepted_grid(alphas, areas, energies, n):
    """`grid_curves` of the axes; an example it refuses is rejected."""
    try:
        return grid_curves(alphas, areas, energies, n)
    except ModelError:
        reject()


# Grid energies that repeat or are equal across types, so that held numerator columns are equal
grid_energy = st.one_of(ratios, ratios, st.sampled_from((1, 1.0, 0.35, 2.0)), st.floats(min_value=5e-324, max_value=FLOAT_MAX))


class TestGridColumns:
    """A grid's curves, drawn from its shared columns, are the point-by-point closed form bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        alphas=st.one_of(st.lists(alphas, min_size=1, max_size=40, unique=True).map(sorted), grid_alphas),
        areas=st.lists(st.one_of(ratios, ratios, st.sampled_from((1, 1.0)), st.floats(min_value=5e-324, max_value=FLOAT_MAX)),
                       min_size=2, max_size=3),
        energies=st.lists(grid_energy, min_size=1, max_size=4),
        n=st.sampled_from((1, 3, 2**53)),
        drawn=st.integers(min_value=0, max_value=12),
    )
    @example(alphas=[0.3, 0.6], areas=[0.35, 1], energies=[1, 1.0, 1], n=3, drawn=4)
    @example(alphas=[0.25, 0.75], areas=[0.35, 0.35], energies=[0.35, 2.0], n=2**53, drawn=1)
    def test_every_curve_equals_the_point_by_point_oracle(self, alphas, areas, energies, n, drawn):
        aggs = [AggregateRatios(area=area, energy=energy, utilization=1.0, kernel_count=1)
                for area, energy in product(areas, energies)]
        expected = [(f"A={agg.area:g},E={agg.energy:g}", outcome(point_by_point_cdc_curve, alphas, agg, n, float(n)))
                    for agg in aggs]
        assert [outcome(cdc_curve, alphas, agg, n, float(n)) for agg in aggs] == [hexes for _, hexes in expected]
        # the columns held across areas; then none, and each curve evaluated by itself
        for budget in (fabcarbon.engine._HELD_FLOATS, 0):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fabcarbon.engine, "_HELD_FLOATS", budget)
                grid = accepted_grid(alphas, areas, energies, n)
                assert (grid._held is not None) == (budget > 0 and len(energies) > 1)
                head = [(curve.label, list(map(float.hex, curve.values))) for curve in islice(grid, drawn)]
                peaks = [(label, list(map(float.hex, values()))) for label, *_, values in grid.peaks()]  # partly drawn
                tail = [(curve.label, list(map(float.hex, curve.values))) for curve in grid]
            assert head + tail == expected
            assert peaks == expected[len(head):]


class TestGridCurves:
    """`grid_curves` is the eager grid: the same curves, or the same first fault, raised from the call."""

    @settings(max_examples=300, deadline=None)
    @given(
        alphas=st.one_of(grid_alphas, grid_alphas, st.lists(any_alpha, min_size=0, max_size=5)),
        areas=st.lists(axis_value, min_size=1, max_size=3),
        energies=st.lists(axis_value, min_size=1, max_size=3),
        n=st.sampled_from((1, 3, 2**53)),
    )
    @example(alphas=[0.1, 0.5], areas=[0.3, math.nan], energies=[2.0], n=1)
    def test_equals_the_eager_grid(self, alphas, areas, energies, n):
        def values(grid):
            return lambda *args: [v for curve in grid(*args) for v in (curve.label, *curve.values)]

        lazy, eager = (outcome(values(grid), alphas, areas, energies, n) for grid in (grid_curves, eager_sweep_grid))
        assert lazy == eager

    @settings(max_examples=300, deadline=None)
    @given(
        alphas=grid_alphas,
        area=st.one_of(st.floats(min_value=0.01, max_value=10.0), st.floats(min_value=5e-324, max_value=FLOAT_MAX)),
        energy=st.one_of(st.floats(min_value=0.01, max_value=1.5), st.floats(min_value=5e-324, max_value=FLOAT_MAX)),
        n=st.sampled_from((1, 3, 2**53)),
    )
    @example(alphas=[5e-324, 1.0], area=1.7e308, energy=0.5, n=1)
    def test_a_cleared_curve_has_only_finite_positive_values(self, alphas, area, energy, n):
        alphas = tuple(alphas)
        if fabcarbon.engine._grid_cleared(alphas, (area,), (energy,), n, float(n)):
            agg = AggregateRatios(area=area, energy=energy, utilization=1.0, kernel_count=1)
            assert all(type(v) is float and 0.0 < v < math.inf for v in cdc_curve(alphas, agg, n, float(n)))

    @settings(deadline=None)
    @given(
        alphas=st.one_of(st.lists(alphas, min_size=1, max_size=20, unique=True).map(sorted), grid_alphas),
        areas=st.lists(st.one_of(ratios, ratios, st.floats(min_value=5e-324, max_value=FLOAT_MAX)), min_size=1, max_size=3),
        energies=st.lists(st.one_of(ratios, ratios, st.floats(min_value=5e-324, max_value=FLOAT_MAX)), min_size=1, max_size=3),
        n=st.sampled_from((1, 3, 2**53)),
    )
    @example(alphas=[5e-324, 1.0], areas=[1.7e308], energies=[0.5], n=1)  # every value subnormal
    def test_a_cleared_grid_yields_only_curves_the_public_checks_admit(self, alphas, areas, energies, n):
        assume(fabcarbon.engine._grid_cleared(tuple(alphas), tuple(areas), tuple(energies), n, float(n)))
        for curve in grid_curves(alphas, areas, energies, n):
            assert SweepResult(*(getattr(curve, field) for field in SweepResult._fields)) == curve

    @settings(max_examples=300, deadline=None)
    @given(
        alphas=st.one_of(st.lists(alphas, min_size=2, max_size=40, unique=True).map(sorted), grid_alphas),
        areas=st.lists(st.one_of(ratios, st.floats(min_value=5e-324, max_value=FLOAT_MAX)), min_size=1, max_size=3),
        energies=st.lists(st.one_of(ratios, st.floats(min_value=0.5, max_value=3.0)), min_size=1, max_size=3),
        n=st.sampled_from((1, 3, 2**53)),
        cancel=st.one_of(st.none(), st.integers(1, 2**20)),
    )
    @example(alphas=[0.5, 1], areas=[0.35], energies=[0.35], n=1, cancel=None)  # an int alpha
    @example(alphas=[0.0005, 0.9995], areas=[1.091e-305, 0.35], energies=[0.02, 0.6], n=1, cancel=None)  # unproved
    def test_each_peak_bounds_its_curve(self, alphas, areas, energies, n, cancel):
        """`GridCurves.peaks`: `low` is a value of the curve, and no value that prints wider than 0.00 exceeds `high`."""
        if cancel is not None and alphas[0] < 1.0:  # n' - (1 - alpha) * n * E a few ulps above 0 at the first alpha
            energies = [1.0 / (1.0 - alphas[0]) * (1.0 - cancel * 2.0**-53), *energies[1:]]
        grid = accepted_grid(alphas, areas, energies, n)
        for (*head, low, high, values), curve in zip(list(grid.peaks()), grid):
            assert (*head, values()) == (curve.label, curve.parameters, curve.n, curve.scale, list(curve.values))
            assert low in curve.values
            assert max(curve.values) <= high or f"{max(curve.values):.2f}" == "0.00"

    @settings(deadline=None)
    @given(
        alphas=st.one_of(st.lists(alphas, min_size=1, max_size=20, unique=True).map(sorted), grid_alphas),
        areas=st.lists(st.one_of(ratios, ratios, st.floats(min_value=5e-324, max_value=FLOAT_MAX)), min_size=1, max_size=3),
        energies=st.lists(st.one_of(ratios, ratios, st.floats(min_value=5e-324, max_value=FLOAT_MAX)), min_size=1, max_size=3),
        n=st.sampled_from((1, 3, 2**53)),
        edge=st.one_of(st.none(), st.tuples(st.sampled_from((9.995, 99.995, 999.995, 99999.995)), st.integers(-8, 8))),
    )
    @example(alphas=[5e-324, 1.0], areas=[1.7e308], energies=[0.5], n=1, edge=None)  # every value subnormal
    @example(alphas=[0.5, 1], areas=[0.35], energies=[0.35], n=1, edge=None)  # an int alpha
    @example(alphas=[0.0005, 0.5, 0.9995], areas=[1.091e-305], energies=[0.02], n=1, edge=None)  # unproved
    def test_every_accepted_grid_streams_the_held_table(self, alphas, areas, energies, n, edge):
        if edge is not None:  # the first curve's largest value within ulps of where its cdc cell widens
            target, steps = edge
            end = alphas[0] if energies[0] < 1.0 else alphas[-1]
            area = (n - (1.0 - end) * n * energies[0]) / (end * target)
            for _ in range(abs(steps)):
                area = math.nextafter(area, math.copysign(math.inf, steps))
            areas = [area, *areas[1:]] if 0.0 < area < math.inf else areas
        accepted_grid(alphas, areas, energies, n)
        assert_streamed_grid_table(alphas, areas, energies, n)
