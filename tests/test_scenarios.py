from __future__ import annotations

import math

import pytest

from fabcarbon import (
    FootprintWeights,
    KernelProfile,
    SavingsResult,
    ScaleMode,
    builtin_case,
    dsa_footprint,
    evaluate_cdc_table,
    hybrid_retained_savings,
    savings_factor,
)
from fabcarbon.dataset import KernelDataset
from fabcarbon.errors import DegenerateModel, InvalidScale, NoFabricWorkload, UnknownScenario
from fabcarbon.scenarios import calibrated_aggregates

ALPHAS = [0.3, 0.5, 0.7, 0.9]


class TestBuiltinCases:
    def test_case_exclusions(self):
        assert builtin_case("I").excluded_kernels == frozenset()
        assert builtin_case("II").excluded_kernels == {"AESEncrypt"}
        assert builtin_case("III").excluded_kernels == {"AESEncrypt", "Viterbi"}

    def test_unknown_case(self):
        for resolve in (builtin_case, calibrated_aggregates):
            with pytest.raises(UnknownScenario, match=r"^unknown scenario: 'iv' \(expected I, II, or III\)$"):
                resolve("iv")

    def test_concurrency_cannot_exceed_population(self):
        with pytest.raises(ValueError):
            builtin_case("I", n=41, dsa_population=40)


class TestCdcTables:
    def test_arithmetic_full_set_at_high_alpha(self):
        table = evaluate_cdc_table(builtin_case("I"), [0.9])
        assert table.values[0] == pytest.approx(3.90, abs=5e-3)

    def test_calibrated_full_set_reproduces_curve(self):
        table = evaluate_cdc_table(builtin_case("I"), ALPHAS, aggregates=calibrated_aggregates("I"))
        for got, expected in zip(table.values, (9.773, 6.32, 4.84, 4.01)):
            assert got == pytest.approx(expected, rel=5e-3)

    def test_calibrated_smallest_case_dips_below_three(self):
        table = evaluate_cdc_table(
            builtin_case("III"), [0.9], aggregates=calibrated_aggregates("III")
        )
        assert table.values[0] < 3.0
        assert table.values[0] == pytest.approx(2.93, rel=1e-3)

    def test_excluding_outliers_lowers_cdc_everywhere(self):
        tables = {case: evaluate_cdc_table(builtin_case(case), ALPHAS) for case in "I II III".split()}
        for i in range(len(ALPHAS)):
            assert tables["I"].values[i] > tables["II"].values[i] > tables["III"].values[i]

    def test_cells_satisfy_fixed_point(self):
        spec = builtin_case("II", n=2, scale_mode=ScaleMode.average_utilization())
        table = evaluate_cdc_table(spec, ALPHAS)
        from fabcarbon import aggregate, fabric_footprint
        from fabcarbon.scenarios import scenario_kernels

        agg = aggregate(scenario_kernels(spec))
        scale = table.scale
        for alpha, value in table.samples:
            dsa = dsa_footprint(value, spec.n, FootprintWeights(alpha), agg)
            assert dsa == pytest.approx(fabric_footprint(scale), abs=1e-9)

    def test_subset_scaling_is_higher_for_exclusion_cases(self):
        # excluding low-utilization kernels raises the mean, so n' grows
        mode = ScaleMode.average_utilization()
        scales = [
            evaluate_cdc_table(builtin_case(c, n=3, scale_mode=mode), [0.5]).scale
            for c in ("I", "II", "III")
        ]
        assert scales[0] < scales[1] < scales[2]


class TestSavings:
    def test_reference_table_conservative_column(self, dataset):
        expected = {1: 7.60, 2: 3.84, 3: 2.59, 4: 1.97, 5: 1.59}
        for n, value in expected.items():
            result = savings_factor(builtin_case("I", n=n), aggregates=calibrated_aggregates("I"))
            assert result.improvement_conservative == pytest.approx(value, rel=5e-3)

    def test_reference_table_avg_util_column(self, dataset):
        expected = {2: 6.10, 3: 4.12, 4: 3.12, 5: 2.53}
        for n, value in expected.items():
            result = savings_factor(builtin_case("I", n=n), aggregates=calibrated_aggregates("I"))
            assert result.improvement_avg_util == pytest.approx(value, rel=5e-3)

    def test_serial_case_omits_avg_util_cell(self):
        result = savings_factor(builtin_case("I", n=1))
        assert result.improvement_avg_util is None
        assert result.scale_avg_util is None

    def test_improvement_decreases_with_concurrency(self):
        values = [
            savings_factor(builtin_case("I", n=n)).improvement_conservative for n in range(1, 6)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_avg_util_never_below_conservative(self):
        for n in range(2, 6):
            r = savings_factor(builtin_case("I", n=n))
            assert r.improvement_avg_util >= r.improvement_conservative

    def test_column_ratio_is_n_over_scale(self):
        for n in range(2, 6):
            r = savings_factor(builtin_case("I", n=n))
            assert r.improvement_avg_util * r.scale_avg_util == pytest.approx(
                r.improvement_conservative * n, rel=1e-12
            )


    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf, True, "2.0"])
    def test_result_rejects_an_improvement_not_finite_and_positive(self, bad):
        for args in ((4, bad, 2.0, 3.0), (4, 2.5, bad, 3.0)):
            with pytest.raises(DegenerateModel, match=r"^improvements out of \(0, inf\): "):
                SavingsResult(*args)

    def test_result_needs_a_conservative_improvement(self):
        with pytest.raises(DegenerateModel, match=r"^improvements out of \(0, inf\): None, None$"):
            SavingsResult(1, None, None, None)

    @pytest.mark.parametrize("bad", [0.5, 0.0, math.nan, math.inf])
    def test_result_rejects_a_fabric_scale_below_one_or_not_finite(self, bad):
        with pytest.raises(InvalidScale):
            SavingsResult(4, 2.5, 2.0, bad)


class TestHybrid:
    def test_retaining_the_smallest_kernel(self):
        spec = builtin_case("I", n=4, scale_mode=ScaleMode.average_utilization())
        improvement = hybrid_retained_savings(
            spec, ["AESEncrypt"], aggregates=calibrated_aggregates("I")
        )
        # oracle: numerator and denominator assembled from first principles
        agg = calibrated_aggregates("I")
        numerator = 0.7 * 40 * agg.area + 0.3 * 4 * agg.energy
        util_without_aes = (1.0 + 1.0 + 0.45 * 3 + 0.66 * 2) / 7
        denominator = 3 * util_without_aes + (0.7 * 0.03 + 0.3 * 0.04)
        assert improvement == pytest.approx(numerator / denominator, rel=1e-12)
        assert improvement == pytest.approx(3.877, abs=5e-3)

    def test_empty_retained_set_matches_savings_bitwise(self):
        spec = builtin_case("I", n=3, scale_mode=ScaleMode.average_utilization())
        hybrid = hybrid_retained_savings(spec, [])
        assert hybrid == savings_factor(spec).improvement_avg_util

    @pytest.mark.parametrize("case", ["II", "III"])
    def test_empty_retained_set_honours_the_case_exclusions(self, case):
        spec = builtin_case(case, n=3, scale_mode=ScaleMode.average_utilization())
        assert hybrid_retained_savings(spec, []) == savings_factor(spec).improvement_avg_util

    def test_zero_cost_retained_kernel_frees_a_slot(self, dataset):
        # ratios small enough that the retained cost underflows to zero
        ghost = KernelProfile("Ghost", "synthetic", 1e-300, 1e-300, 0.5, 0.0, estimated=True)
        extended = KernelDataset(
            kernels=dataset.kernels + (ghost,),
            fabric=dataset.fabric,
            provenance="test",
        )
        spec = builtin_case("I", n=4, scale_mode=ScaleMode.average_utilization())
        hybrid = hybrid_retained_savings(spec, ["Ghost"], dataset=extended)

        from fabcarbon import aggregate, fabric_footprint, scale_factor

        agg = aggregate(list(extended.kernels))
        numerator = dsa_footprint(spec.dsa_population, spec.n, spec.weights, agg)
        scale = scale_factor(3, ScaleMode.average_utilization(), list(dataset.kernels))
        assert hybrid == numerator / fabric_footprint(scale)

    def test_retaining_every_slot_rejected(self):
        spec = builtin_case("I", n=2, scale_mode=ScaleMode.average_utilization())
        with pytest.raises(NoFabricWorkload):
            hybrid_retained_savings(spec, ["AESEncrypt", "Viterbi"])

    def test_unknown_retained_kernel_rejected(self):
        spec = builtin_case("I", n=4)
        with pytest.raises(KeyError, match="no kernel named 'NoSuchKernel'"):
            hybrid_retained_savings(spec, ["NoSuchKernel"])

    def test_retained_kernel_the_case_excludes_rejected(self):
        spec = builtin_case("III", n=4)
        with pytest.raises(KeyError, match=r"CASE-III.*\['Viterbi'\]"):
            hybrid_retained_savings(spec, ["FFT", "Viterbi"])
