from __future__ import annotations

from fractions import Fraction

import pytest

from fabcarbon import (
    AggregateRatios,
    CdcQuery,
    FootprintWeights,
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
from fabcarbon.engine import float_steps
from fabcarbon.errors import (
    AlphaPole,
    DegenerateModel,
    InfeasibleFit,
    InvalidRange,
    InvalidValue,
    SingularFit,
)


def _agg(area, energy):
    return AggregateRatios(area=area, energy=energy, utilization=1.0, kernel_count=1)


def _query(alpha, area, energy, n=1, scale=None):
    return CdcQuery(FootprintWeights(alpha), _agg(area, energy), n=n, scale=scale)


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
