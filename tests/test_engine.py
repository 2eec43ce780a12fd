from __future__ import annotations

import math
import sys
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fabcarbon import (
    AggregateRatios,
    CdcQuery,
    FootprintWeights,
    SweepResult,
    cdc,
    cdc_curve,
    dsa_footprint,
    fabric_footprint,
    fit_aggregates,
    fit_scale,
    is_fabric_greener,
    min_dsas_to_replace,
    sweep_grid,
)
import fabcarbon.engine
from fabcarbon.core import require_alpha, require_concurrency, require_scale
from fabcarbon.engine import GridCurves, float_steps, grid_curves
from fabcarbon.errors import (
    AlphaPole,
    DegenerateModel,
    InfeasibleFit,
    InvalidAlpha,
    InvalidRange,
    InvalidValue,
    SingularFit,
)


def _agg(area, energy):
    return AggregateRatios(area=area, energy=energy, utilization=1.0, kernel_count=1)


def _query(alpha, area, energy, n=1, scale=None):
    return CdcQuery(FootprintWeights(alpha), _agg(area, energy), n=n, scale=scale)


def point_by_point_cdc_curve(alphas, agg, n, scale):
    """Oracle: `cdc_curve` one alpha at a time, each point checked before the next is evaluated."""
    require_concurrency(n)
    require_scale(scale)
    if not alphas:
        raise InvalidRange("no alpha values supplied")
    area, energy = agg.area, agg.energy
    values = []
    for alpha in alphas:
        if not 0.0 < alpha <= 1.0:
            require_alpha(alpha)
        numerator = scale - (1.0 - alpha) * n * energy
        if numerator <= 0:
            raise DegenerateModel(
                "fabric is never greener: operational term "
                f"{(1.0 - alpha) * n * energy:.6g} >= fabric budget {scale:.6g}"
            )
        denominator = alpha * area
        value = numerator / denominator if denominator else math.inf
        if value == math.inf:
            raise DegenerateModel(f"threshold is not finite at alpha_e2o = {alpha!r}")
        values.append(value)
    return values


def check_sweep_values_point_by_point(parameters, values):
    """Oracle: `SweepResult`'s value check, one (parameter, value) pair at a time."""
    for p, v in zip(parameters, values):
        if type(v) is not float or not 0 < v < math.inf:
            raise DegenerateModel(f"sweep value at {p!r} is not a finite positive float: {v!r}")


def eager_sweep_grid(alphas, areas, energies, n=1):
    """Oracle: every curve of the grid computed in grid order before any is returned."""
    if not areas or not energies:
        raise InvalidRange("grid axes must be non-empty")
    require_concurrency(n)
    alphas = tuple(alphas)
    curves = []
    for area in areas:
        for energy in energies:
            values = cdc_curve(alphas, _agg(area, energy), n, float(n))
            curves.append(SweepResult(f"A={area:g},E={energy:g}", alphas, tuple(values), n, float(n)))
    return curves


def outcome(evaluate, *args):
    """What a call gives, comparable bit for bit: each float's hex form, or the error's class and message."""
    try:
        return [float.hex(v) for v in evaluate(*args)]
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def bisect_cdc(alpha, area, energy, n=1, scale=None):
    """Oracle: root of dsa_footprint(N) - fabric_footprint(n') by bisection."""
    w = FootprintWeights(alpha)
    agg = _agg(area, energy)
    target = fabric_footprint(float(n) if scale is None else scale)
    lo, hi = float(n), float(n)
    while dsa_footprint(hi, n, w, agg) < target:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if dsa_footprint(mid, n, w, agg) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestCdcWorkedCases:
    def test_operational_dominated_serial(self):
        assert cdc(_query(0.25, 0.35, 0.35)) == pytest.approx(8.4286, abs=5e-5)

    def test_embodied_dominated_serial(self):
        assert cdc(_query(0.8, 0.35, 0.35)) == pytest.approx(3.3214, abs=5e-5)

    def test_operational_dominated_concurrent(self):
        assert cdc(_query(0.25, 0.35, 0.35, n=3, scale=3.0)) == pytest.approx(25.286, abs=5e-4)

    def test_embodied_dominated_concurrent(self):
        assert cdc(_query(0.8, 0.35, 0.35, n=3, scale=3.0)) == pytest.approx(9.964, abs=5e-4)

    def test_identity_dsa_equals_fabric(self):
        assert cdc(_query(0.37, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_calibrated_full_set_point(self):
        assert cdc(_query(0.3, 0.26868, 0.30322)) == pytest.approx(9.773, rel=1e-3)

    @pytest.mark.parametrize(
        "alpha,area,energy,n",
        [(0.25, 0.35, 0.35, 1), (0.8, 0.35, 0.35, 3), (0.3, 0.26868, 0.30322, 1), (0.55, 0.62, 0.9, 2)],
    )
    def test_agrees_with_bisection_oracle(self, alpha, area, energy, n):
        expected = bisect_cdc(alpha, area, energy, n=n)
        assert cdc(_query(alpha, area, energy, n=n)) == pytest.approx(expected, rel=1e-9)

    def test_alpha_pole_rejected(self):
        with pytest.raises(AlphaPole):
            _query(0.0, 0.35, 0.35)

    def test_degenerate_when_operational_term_dominates(self):
        # (1 - alpha) * n * E >= n' leaves nothing for the embodied side
        with pytest.raises(DegenerateModel):
            cdc(_query(0.1, 0.35, 1.2))


class TestEmbodiedLimit:
    # at alpha = 1 the threshold reduces to n / A
    def test_direct_ratio(self):
        assert cdc(_query(1.0, 0.35, 0.5)) == pytest.approx(2.857, abs=5e-4)
        assert cdc(_query(1.0, 0.35, 0.5, n=3)) == pytest.approx(8.571, abs=5e-4)

    def test_matches_cdc_at_full_embodied_weight(self):
        limit = 1 / 0.26868
        assert limit == pytest.approx(3.722, abs=5e-4)
        assert abs(cdc(_query(1.0, 0.26868, 0.30322)) - limit) < 1e-12


class TestReplacementDecision:
    def test_min_population_rounds_strictly_up(self):
        assert min_dsas_to_replace(_query(0.8, 0.35, 0.35)) == 4  # threshold 3.3214

    def test_exact_integer_threshold_needs_one_more(self):
        assert min_dsas_to_replace(_query(0.5, 1.0, 1.0)) == 2  # threshold exactly 1

    def test_calibrated_threshold(self):
        assert min_dsas_to_replace(_query(0.3, 0.26868, 0.30322)) == 10

    def test_is_fabric_greener_straddles_threshold(self):
        q = _query(0.8, 0.35, 0.35)
        assert is_fabric_greener(5, q)
        assert not is_fabric_greener(3, q)

    def test_tie_favors_dsas(self):
        assert not is_fabric_greener(1, _query(0.5, 1.0, 1.0))

    def test_linear_scan_oracle_spot_check(self):
        q = _query(0.62, 0.41, 0.52, n=2, scale=2.0)
        scan = next(N for N in range(q.n, 10_000) if is_fabric_greener(N, q))
        assert min_dsas_to_replace(q) == scan


class TestSweeps:
    def test_worked_cases_via_sweep(self):
        alphas = float_steps(0.25, 0.8, 0.55)
        values = cdc_curve(alphas, _agg(0.35, 0.35), 1, 1.0)
        assert alphas == [0.25, 0.8]
        assert values[0] == pytest.approx(8.4286, abs=5e-5)
        assert values[1] == pytest.approx(3.3214, abs=5e-5)

    def test_unit_energy_gives_constant_curve(self):
        values = cdc_curve(float_steps(0.2, 1.0, 0.1), _agg(0.4, 1.0), 1, 1.0)
        assert all(v == pytest.approx(2.5, abs=1e-12) for v in values)

    def test_decreasing_when_energy_below_one(self):
        values = cdc_curve(float_steps(0.05, 1.0, 0.05), _agg(0.35, 0.35), 1, 1.0)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_inclusive_endpoint(self):
        alphas = float_steps(0.1, 0.9, 0.2)
        assert len(alphas) == 5
        assert alphas[-1] == pytest.approx(0.9)

    @pytest.mark.parametrize("bad", [(0.0, 0.9, 0.1), (0.5, 0.3, 0.1), (0.1, 1.1, 0.1), (0.1, 0.9, 0.0)])
    def test_invalid_ranges(self, bad):
        with pytest.raises(InvalidValue):
            cdc_curve(float_steps(*bad), _agg(0.35, 0.35), 1, 1.0)

    def test_grid_evaluates_cartesian_product(self):
        curves = sweep_grid([0.8], [0.25, 0.45], [0.35])
        assert len(curves) == 2
        assert curves[0].values[0] == pytest.approx(4.65, abs=1e-9)
        assert curves[1].values[0] == pytest.approx(2.5833, abs=5e-5)

    def test_single_cell_grid_reduces_to_cdc(self):
        (curve,) = sweep_grid([0.6], [0.3], [0.4])
        assert curve.values[0] == cdc(_query(0.6, 0.3, 0.4))

    def test_area_moves_curves_more_than_energy(self):
        # swapping two A values at fixed E shifts CDC more than the converse
        lo, hi = 0.25, 0.45
        alphas = [0.3, 0.5, 0.7, 0.9]
        for alpha in alphas:
            area_shift = abs(cdc(_query(alpha, lo, 0.35)) - cdc(_query(alpha, hi, 0.35)))
            energy_shift = abs(cdc(_query(alpha, 0.35, lo)) - cdc(_query(alpha, 0.35, hi)))
            assert area_shift > energy_shift

    def test_empty_axes_rejected(self):
        with pytest.raises(InvalidRange):
            sweep_grid([], [0.3], [0.4])

    def test_equal_curves_hash_equal(self):
        first, second = (sweep_grid([0.3, 0.6], [0.35], [0.25], n=2)[0] for _ in range(2))
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
        assert (first.label, first.n, first.scale) == ("A=0.35,E=0.25", 2, 2.0)


class TestGridCurves:
    def test_cleared_grid_computes_each_curve_as_it_is_drawn(self, monkeypatch):
        calls = []
        real = fabcarbon.engine._closed_form
        monkeypatch.setattr(fabcarbon.engine, "_closed_form", lambda *args: calls.append(args) or real(*args))
        curves = grid_curves([0.3, 0.6], [0.25, 0.45], [0.35])
        assert calls == []
        assert next(curves) == sweep_grid([0.3, 0.6], [0.25], [0.35])[0]
        assert len(calls) == 2  # the drawn curve, then the one `sweep_grid` computed
        assert list(curves) == sweep_grid([0.3, 0.6], [0.45], [0.35])

    @pytest.mark.parametrize(
        "areas,energies,message",
        [
            ([0.35], [0.35, 2.0], "never greener"),
            ([0.3, 1e-320], [0.35], "threshold is not finite"),
            ([0.3, math.nan], [2.0], "never greener"),  # the first fault in grid order, not the NaN area
            ([1.7e308], [2 - 2**-52], "not a finite positive float: 0.0"),  # a value that underflows
        ],
    )
    def test_a_fault_anywhere_in_the_grid_raises_from_the_call(self, areas, energies, message):
        alphas = float_steps(0.1, 0.9, 0.2) if areas != [1.7e308] else [0.5]
        with pytest.raises(ValueError, match=message) as caught:
            grid_curves(alphas, areas, energies)
        with pytest.raises(type(caught.value), match=message):
            eager_sweep_grid(alphas, areas, energies)

    @pytest.mark.parametrize(
        "alphas,areas,energies",
        [
            ([1], [0.35], [0.35]),  # an int alpha: valid, but not a float column
            ([0.5, 0.5], [0.35], [0.35]),  # not strictly increasing
            ([0.3, 0.6], [True], [0.35]),  # a bool area, which `AggregateRatios` refuses
            ([0.3, 0.6], [Fraction(1, 3)], [0.35]),  # a valid area of another type
        ],
    )
    def test_an_uncleared_grid_streams_after_its_checks(self, alphas, areas, energies):
        expected = outcome(lambda *a: [v for c in eager_sweep_grid(*a) for v in c.values], alphas, areas, energies)
        assert outcome(lambda *a: [v for c in grid_curves(*a) for v in c.values], alphas, areas, energies) == expected
        if isinstance(expected, list):  # checked whole, then evaluated as it is drawn
            assert isinstance(grid_curves(alphas, areas, energies), GridCurves)

    @pytest.mark.parametrize(
        "alphas,area,energy,n",
        [
            ((0.1, 0.5, 1.0), 0.35, 0.35, 1),
            ((5e-324, 1.0), 1.7e308, 0.5, 1),  # den(lo) is the least subnormal
            ((0.5, 1.0), 1.7e308, 1.0, 1),  # every value subnormal
            ((0.999, 1.0), 1e-300, 1.5, 3),  # E > 1, num(lo) small
            ((0.25, 0.75), 0.35, 0.35, 2**53),
        ],
    )
    def test_a_cleared_curve_has_only_finite_positive_values(self, alphas, area, energy, n):
        assert fabcarbon.engine._grid_cleared(alphas, (area,), (energy,), n, float(n))
        values = cdc_curve(alphas, _agg(area, energy), n, float(n))
        assert all(type(v) is float and 0.0 < v < math.inf for v in values)
        assert list(grid_curves(alphas, [area], [energy], n)) == eager_sweep_grid(alphas, [area], [energy], n)


class TestHeldColumns:
    """A grid holds one numerator column per energy, and the current area's denominators, only with more than one
    area and more than one energy, and within `_HELD_FLOATS`."""

    ALPHAS = tuple(float_steps(0.0005, 0.9995, 0.001))  # 1000 alphas: a column of about 32 kB

    @classmethod
    def traced(cls, areas, energies, drawn):
        """The grid, what it holds once `drawn` curves are drawn and dropped, and its peak from its construction on,
        in columns of 1000 floats."""
        column = fabcarbon.engine._denominators(cls.ALPHAS, 0.5)
        size = sys.getsizeof(column) + sum(map(sys.getsizeof, column))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grid = grid_curves(cls.ALPHAS, areas, energies)
            deque(islice(grid, drawn), maxlen=0)
            held, peak = ((bytes_ - base) / size for bytes_ in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        return grid, held, peak

    @pytest.mark.parametrize("areas,energies", [([0.35], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]), ([0.25, 0.35, 0.45], [0.3])])
    def test_a_single_area_or_energy_grid_holds_no_column(self, areas, energies):
        grid, held, peak = self.traced(areas, energies, len(areas) * len(energies))
        assert grid._held is None
        assert held < 0.5 and peak < 1.5  # only the drawn curve's values

    @pytest.mark.parametrize("drawn", [0, 6, 18])
    def test_a_grid_within_the_budget_holds_one_column_per_energy(self, drawn):
        energies = [0.1, 0.2, 0.3, 0.3, 0.5, 0.6]  # a repeated energy has its own column
        grid, held, peak = self.traced([0.25, 0.35, 0.45], energies, drawn)
        assert len(grid._held) == len(energies)
        columns = len(energies) + (drawn > 0)  # and once drawn the current area's denominators
        assert columns - 0.5 < held < columns + 0.5
        assert peak < len(energies) + 2.5

    def test_a_grid_over_the_budget_holds_no_column(self, monkeypatch):
        energies = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        budget = (len(energies) + 1) * len(self.ALPHAS)  # the numerators and one area's denominators
        monkeypatch.setattr(fabcarbon.engine, "_HELD_FLOATS", budget - 1)
        grid, held, peak = self.traced([0.25, 0.35, 0.45], energies, 18)
        assert grid._held is None
        assert held < 0.5 and peak < 1.5  # as in a single-area grid
        monkeypatch.setattr(fabcarbon.engine, "_HELD_FLOATS", budget)
        assert len(self.traced([0.25, 0.35, 0.45], energies, 18)[0]._held) == len(energies)  # the bound is inclusive

    def test_the_benchmark_grid_fits_the_budget(self):
        """The 30 x 30 x 1000 sweep holds its columns in 1 MiB."""
        assert (30 + 1) * len(self.ALPHAS) <= fabcarbon.engine._HELD_FLOATS
        assert fabcarbon.engine._HELD_FLOATS * (sys.getsizeof(0.5) + 8) <= 2**20


class TestFitAggregates:
    def test_reference_endpoints(self):
        # oracle: exact rational 2x2 elimination, frozen to float
        a1, c1, a2, c2 = map(Fraction, ("0.3", "9.773", "0.9", "4.01"))
        y = (a2 * c2 - a1 * c1) / (a2 - a1)
        x = a1 * c1 + (1 - a1) * y
        assert float(1 / x) == pytest.approx(0.2686836, abs=1e-6)
        assert float(y / x) == pytest.approx(0.3032094, abs=1e-6)

        fit = fit_aggregates([(0.3, 9.773), (0.9, 4.01)])
        assert fit.area == pytest.approx(float(1 / x), rel=1e-12)
        assert fit.energy == pytest.approx(float(y / x), rel=1e-12)

    def test_round_trip_identity(self):
        agg = _agg(0.4, 0.2)
        points = [(0.3, cdc(_query(0.3, 0.4, 0.2))), (0.9, cdc(_query(0.9, 0.4, 0.2)))]
        fit = fit_aggregates(points)
        assert fit.area == pytest.approx(0.4, abs=1e-9)
        assert fit.energy == pytest.approx(0.2, abs=1e-9)

    def test_duplicate_abscissa_is_singular(self):
        with pytest.raises(SingularFit):
            fit_aggregates([(0.5, 2.0), (0.5, 3.0)])

    def test_out_of_range_solution_is_infeasible(self):
        # both points on a curve with E > 1 (not expressible by the model domain)
        with pytest.raises(InfeasibleFit):
            fit_aggregates([(0.5, 1.0), (0.9, 2.0)])

    def test_concurrent_fit_divides_out_n(self):
        points = [(0.3, cdc(_query(0.3, 0.4, 0.2, n=3, scale=3.0))), (0.9, cdc(_query(0.9, 0.4, 0.2, n=3, scale=3.0)))]
        fit = fit_aggregates(points, n=3)
        assert fit.area == pytest.approx(0.4, abs=1e-9)
        assert fit.energy == pytest.approx(0.2, abs=1e-9)


class TestFitScale:
    def test_recovers_known_scale(self):
        agg = _agg(0.3, 0.25)
        scale = 1.9
        points = [(a, cdc(CdcQuery(FootprintWeights(a), agg, n=3, scale=scale))) for a in (0.3, 0.5, 0.7, 0.9)]
        assert fit_scale(points, 3, agg) == pytest.approx(scale, rel=1e-12)

    def test_mean_of_single_point_estimates(self):
        # oracle: exact rational mean of per-point scale estimates
        agg = _agg(0.26868, 0.30322)
        points = [(0.3, 10.343), (0.9, 4.97)]
        estimates = [
            Fraction(str(c)) * Fraction(str(a)) * Fraction("0.26868")
            + (1 - Fraction(str(a))) * 2 * Fraction("0.30322")
            for a, c in points
        ]
        expected = float(sum(estimates) / len(estimates))
        assert fit_scale(points, 2, agg) == pytest.approx(expected, rel=1e-9)

    def test_no_points_rejected(self):
        with pytest.raises(InvalidRange):
            fit_scale([], 2, _agg(0.3, 0.3))

    @pytest.mark.parametrize(
        "point,error",
        [((1.5, 20.0), InvalidAlpha), ((0.0, 20.0), AlphaPole), ((0.5, 0.0), InvalidRange), ((0.5, math.nan), InvalidRange)],
    )
    def test_observation_outside_its_domain_rejected(self, point, error):
        # the same checks as `fit_aggregates`; non-integer n is in test_validation
        with pytest.raises(error):
            fit_scale([(0.5, 20.0), point], 1, _agg(0.3, 0.3))


class FloatSubclass(float):
    pass


# 40 valid alphas, increasing; each case below puts one point at a position of them.
_GOOD_ALPHAS = float_steps(0.2, 0.98, 0.02)
_POSITIONS = [0, 1, 20, len(_GOOD_ALPHAS)]


class TestColumnEvaluation:
    """`cdc_curve` evaluates a whole column and tests it in C; any fault reruns the
    point-by-point loop, so results and errors are the oracle's, bit for bit."""

    @pytest.mark.parametrize(
        "bad,area,energy,error",
        [
            (math.nan, 0.35, 0.35, InvalidAlpha),
            (0.0, 0.35, 0.35, AlphaPole),
            (-0.5, 0.35, 0.35, InvalidAlpha),
            (-0.5, 0.35, 0.9, InvalidAlpha),  # numerator and denominator both < 0: the value is 2.0
            (1.5, 0.35, 0.35, InvalidAlpha),
            (math.inf, 0.35, 0.35, InvalidAlpha),
            (-math.inf, 0.35, 0.35, InvalidAlpha),
            (10**400, 0.35, 0.35, InvalidAlpha),  # `1.0 - alpha` overflows
            (5e-324, 0.35, 0.35, DegenerateModel),  # `alpha * area` underflows to 0
            (1e-300, 1e-10, 0.35, DegenerateModel),  # the value overflows to inf
            (0.1, 0.35, 1.2, DegenerateModel),  # numerator <= 0: (1 - 0.1) * 1.2 >= 1
        ],
        ids=["nan", "zero", "negative", "negative-positive-value", "above-one", "inf", "-inf", "huge-int", "denominator-underflow",
             "value-overflow", "numerator-nonpositive"],
    )
    @pytest.mark.parametrize("position", _POSITIONS)
    def test_one_bad_point_raises_the_oracles_error(self, bad, area, energy, error, position):
        alphas = [*_GOOD_ALPHAS[:position], bad, *_GOOD_ALPHAS[position:]]
        expected = outcome(point_by_point_cdc_curve, alphas, _agg(area, energy), 1, 1.0)
        assert expected[0] is error
        assert outcome(cdc_curve, alphas, _agg(area, energy), 1, 1.0) == expected

    @pytest.mark.parametrize("position", [0, 1, 10, 20])
    def test_value_underflowing_to_zero_is_returned_as_the_oracle_returns_it(self, position):
        # at alpha 0.5 a numerator of one ulp below 1.0 over a denominator near 1e308
        # underflows: the loop keeps the 0.0, and `SweepResult` rejects it
        good = float_steps(0.6, 0.98, 0.02)
        alphas = [*good[:position], 0.5, *good[position:]]
        agg = _agg(1.5e308, 1.9999999999999998)
        values = cdc_curve(alphas, agg, 1, 1.0)
        assert values[position] == 0.0
        assert outcome(cdc_curve, alphas, agg, 1, 1.0) == outcome(point_by_point_cdc_curve, alphas, agg, 1, 1.0)

    @pytest.mark.parametrize("alphas", [_GOOD_ALPHAS, [True, 0.5], [1, 0.25], [Fraction(1, 3), 0.5], (0.7,)])
    @pytest.mark.parametrize("n,scale", [(1, 1.0), (3, 3), (2**53, 2.0**53), (7, 2.5)])
    def test_valid_columns_match_the_oracle_bit_for_bit(self, alphas, n, scale):
        agg = _agg(0.26868, 0.30322)
        assert outcome(cdc_curve, alphas, agg, n, scale) == outcome(point_by_point_cdc_curve, alphas, agg, n, scale)

    @pytest.mark.parametrize(
        "column,error", [((0.5, 1.5), InvalidAlpha), ((-0.5, 0.5), InvalidAlpha), ((0.0, 0.5), AlphaPole)]
    )
    def test_a_column_known_increasing_is_bounded_by_its_ends(self, column, error):
        # a column that a `SweepResult` has admitted as strictly increasing is
        # still checked by `cdc_curve` itself. At -0.5 the value is positive (2.0).
        SweepResult("x", column, (2.0, 1.0), 1, 1.0)
        agg = _agg(0.35, 0.9)
        expected = outcome(point_by_point_cdc_curve, column, agg, 1, 1.0)
        assert expected[0] is error
        assert outcome(cdc_curve, column, agg, 1, 1.0) == expected

    def test_uncomparable_alpha_raises_the_oracles_type_error(self):
        alphas = [0.5, "0.7"]
        expected = outcome(point_by_point_cdc_curve, alphas, _agg(0.35, 0.35), 1, 1.0)
        assert expected[0] is TypeError
        assert outcome(cdc_curve, alphas, _agg(0.35, 0.35), 1, 1.0) == expected


# Valid alphas, and in half of the columns one more around the domain's ends and
# the values' faults: outside (0, 1], NaN, a huge int, a bool, an int, a float
# subclass, or a tiny alpha whose value overflows.
_BAD_ALPHA = st.one_of(
    st.floats(), st.floats(min_value=-1.0, max_value=2.0), st.sampled_from((0, 1, True, 10**400, 5e-324, FloatSubclass(0.5)))
)
_ALPHAS = st.builds(
    lambda alphas, bad, position: alphas if bad is None else [*alphas[:position], bad, *alphas[position:]],
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1, max_size=4),
    st.one_of(st.none(), _BAD_ALPHA),
    st.integers(min_value=0, max_value=4),
)
_RATIO = st.floats(min_value=5e-324, max_value=1e308)


@settings(deadline=None)
@given(
    alphas=_ALPHAS,
    area=st.one_of(_RATIO, st.floats(min_value=0.01, max_value=1.0)),
    energy=st.one_of(_RATIO, st.floats(min_value=0.01, max_value=1.0)),
    n=st.one_of(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=2**53)),
    scale=st.one_of(st.floats(min_value=16.0, max_value=64.0), st.floats(min_value=1.0, max_value=1e308)),
)
@example(alphas=[0.5, 0.7], area=1.5e308, energy=1.9999999999999998, n=1, scale=1.0)  # a value underflows to 0
@example(alphas=[0.3, 0.6], area=0.3, energy=0.3, n=2**53, scale=2.0**53)
@example(alphas=[0.5, 1.5], area=0.3, energy=0.3, n=1, scale=16.0)  # a positive value outside the domain
def test_cdc_curve_returns_the_oracles_values_or_raises_its_error(alphas, area, energy, n, scale):
    agg = _agg(area, energy)
    assert outcome(cdc_curve, alphas, agg, n, scale) == outcome(point_by_point_cdc_curve, alphas, agg, n, scale)


class TestSweepResultColumns:
    @pytest.mark.parametrize(
        "bad",
        [math.nan, 0.0, -0.0, -1.0, math.inf, True, 3, FloatSubclass(2.0), 5e-324 * 0],
        ids=["nan", "zero", "negative-zero", "negative", "inf", "bool", "int", "float-subclass", "product-zero"],
    )
    @pytest.mark.parametrize("position", [0, 1, 20, 39])
    def test_one_bad_value_raises_the_oracles_error(self, bad, position):
        parameters = tuple(_GOOD_ALPHAS)
        values = [2.0] * len(parameters)
        values[position] = bad
        with pytest.raises(DegenerateModel) as expected:
            check_sweep_values_point_by_point(parameters, values)
        with pytest.raises(DegenerateModel) as raised:
            SweepResult("x", parameters, tuple(values), 1, 1.0)
        assert str(raised.value) == str(expected.value)

    def test_empty_curve_is_accepted(self):
        assert SweepResult("x", (), (), 1, 1.0).values == ()

    def test_float_subclass_parameters_pass_and_bools_fail_as_before(self):
        assert SweepResult("x", (FloatSubclass(0.5), 0.7), (2.0, 1.5), 1, 1.0).parameters == (0.5, 0.7)
        with pytest.raises(InvalidRange, match="finite numbers"):
            SweepResult("x", (0.5, True), (2.0, 1.5), 1, 1.0)
        with pytest.raises(InvalidRange, match="finite numbers"):
            SweepResult("x", (0.5, 10**400), (2.0, 1.5), 1, 1.0)
