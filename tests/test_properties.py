"""Model invariants checked over randomized valid inputs."""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fabcarbon import (
    AggregateRatios,
    CdcQuery,
    FootprintWeights,
    KernelProfile,
    ScaleMode,
    aggregate,
    alpha_from_breakdown,
    builtin_case,
    cdc,
    dsa_footprint,
    fabric_footprint,
    fit_aggregates,
    is_fabric_greener,
    min_dsas_to_replace,
    savings_factor,
    scale_factor,
)
from fabcarbon.core import DeviceBreakdown

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
