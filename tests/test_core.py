from __future__ import annotations

import pytest

from fabcarbon import (
    AggregateRatios,
    DeviceBreakdown,
    FootprintWeights,
    KernelProfile,
    MeanKind,
    aggregate,
    alpha_from_breakdown,
    device_preset,
    dsa_footprint,
    fabric_footprint,
    weights_for_device,
)
from fabcarbon.errors import (
    ConcurrencyExceedsPopulation,
    EmptyKernelSet,
    InvalidBreakdown,
    InvalidScale,
    UnknownDeviceClass,
)

AREA_BARS = [0.41, 0.291, 0.202, 0.502, 0.128, 0.396, 0.03, 0.241]
ENERGY_BARS = [0.541, 0.283, 0.410, 0.511, 0.091, 0.395, 0.04, 0.479]


def _kernel(name="k", area=0.3, energy=0.3, util=0.5, mem=1.0):
    return KernelProfile(name, "test", area, energy, util, mem)


class TestKernelProfile:
    def test_valid_construction(self):
        k = _kernel()
        assert k.area_norm == 0.3 and not k.estimated

    @pytest.mark.parametrize("field,value", [("area", 0.0), ("area", -1.0), ("energy", 0.0)])
    def test_rejects_nonpositive_ratios(self, field, value):
        kwargs = {field: value}
        with pytest.raises(ValueError):
            _kernel(**kwargs)

    @pytest.mark.parametrize("util", [0.0, -0.1, 1.2])
    def test_rejects_utilization_outside_unit_interval(self, util):
        with pytest.raises(ValueError, match=r"utilization out of \(0, 1\]"):
            _kernel(util=util)

    def test_rejects_negative_memory(self):
        with pytest.raises(ValueError, match="memory_kb"):
            _kernel(mem=-1.0)


class TestAggregate:
    def test_area_mean_matches_reference_bars(self):
        # oracle: plain sum/len over the bundled area ratios
        kernels = [_kernel(name=f"k{i}", area=a) for i, a in enumerate(AREA_BARS)]
        agg = aggregate(kernels)
        assert agg.area == pytest.approx(sum(AREA_BARS) / 8, abs=1e-12)
        assert agg.area == pytest.approx(0.275, abs=1e-12)
        assert agg.kernel_count == 8

    def test_energy_mean_matches_reference_bars(self):
        kernels = [_kernel(name=f"k{i}", energy=e) for i, e in enumerate(ENERGY_BARS)]
        agg = aggregate(kernels)
        assert agg.energy == pytest.approx(0.34375, abs=1e-12)

    def test_single_kernel_identity(self):
        agg = aggregate([_kernel(area=0.5)])
        assert agg.area == 0.5

    def test_identical_kernels_are_a_fixed_point(self):
        kernels = [_kernel(name=f"k{i}", area=0.37, energy=0.21, util=0.8) for i in range(5)]
        agg = aggregate(kernels)
        assert (agg.area, agg.energy, agg.utilization) == (0.37, 0.21, 0.8)

    def test_arithmetic_mean_bounded_by_extremes(self):
        kernels = [_kernel(name=f"k{i}", area=a) for i, a in enumerate(AREA_BARS)]
        agg = aggregate(kernels, MeanKind.ARITHMETIC)
        assert min(AREA_BARS) <= agg.area <= max(AREA_BARS)

    def test_geometric_mean_below_arithmetic(self):
        kernels = [_kernel(name=f"k{i}", area=a, energy=e) for i, (a, e) in enumerate(zip(AREA_BARS, ENERGY_BARS))]
        geo = aggregate(kernels, MeanKind.GEOMETRIC)
        ari = aggregate(kernels, MeanKind.ARITHMETIC)
        assert geo.area < ari.area and geo.energy < ari.energy

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyKernelSet):
            aggregate([])


class TestFootprints:
    def test_single_dsa_identical_to_fabric(self, half_weights, unit_agg):
        assert dsa_footprint(1, 1, half_weights, unit_agg) == 1.0

    def test_calibrated_forty_dsa_chip(self):
        # direct evaluation with the curve-fitted aggregates
        agg = AggregateRatios(area=0.26868, energy=0.30322, utilization=1.0, kernel_count=8)
        value = dsa_footprint(40, 1, FootprintWeights(0.7), agg)
        assert value == pytest.approx(7.614, abs=5e-4)

    def test_pure_embodied_drops_energy_term(self):
        agg = AggregateRatios(area=0.3, energy=0.9, utilization=1.0, kernel_count=1)
        assert dsa_footprint(10, 1, FootprintWeights(1.0), agg) == pytest.approx(3.0, abs=1e-15)

    def test_linear_in_population_with_slope_alpha_area(self):
        agg = AggregateRatios(area=0.42, energy=0.7, utilization=1.0, kernel_count=1)
        w = FootprintWeights(0.6)
        delta = dsa_footprint(8, 2, w, agg) - dsa_footprint(7, 2, w, agg)
        assert delta == pytest.approx(0.6 * 0.42, abs=1e-12)

    def test_alpha_zero_ignores_population(self):
        agg = AggregateRatios(area=0.42, energy=0.7, utilization=1.0, kernel_count=1)
        w = FootprintWeights(0.0)
        assert dsa_footprint(5, 2, w, agg) == dsa_footprint(50, 2, w, agg)

    def test_concurrency_above_population_rejected(self, half_weights, unit_agg):
        with pytest.raises(ConcurrencyExceedsPopulation):
            dsa_footprint(2, 3, half_weights, unit_agg)

    @pytest.mark.parametrize("scale,expected", [(1.0, 1.0), (3.0, 3.0), (1.3, 1.3)])
    def test_fabric_footprint_is_its_scale(self, scale, expected):
        assert fabric_footprint(scale) == expected

    def test_fabric_scale_below_one_rejected(self):
        with pytest.raises(InvalidScale):
            fabric_footprint(0.9)


class TestAlphaEstimation:
    def test_breakdown_arithmetic(self):
        b = DeviceBreakdown(80, 3, 15, 2)
        assert alpha_from_breakdown(b).alpha_e2o == pytest.approx(0.85, abs=1e-12)

    def test_all_operational_device(self):
        b = DeviceBreakdown(0, 0, 100, 0)
        assert alpha_from_breakdown(b).alpha_e2o == 0.0

    def test_laptop_style_breakdown_lands_in_preset_band(self):
        # production-heavy lifecycle typical of a battery-powered laptop
        b = DeviceBreakdown(68, 4, 26, 2)
        low, high = device_preset("laptop")
        assert low <= alpha_from_breakdown(b).alpha_e2o <= high

    def test_breakdown_plus_use_share_is_one(self):
        b = DeviceBreakdown(55, 5, 37, 3)
        alpha = alpha_from_breakdown(b).alpha_e2o
        assert alpha + b.use_pct / 100.0 == pytest.approx(1.0, abs=1e-9)

    def test_breakdown_sum_tolerance(self):
        DeviceBreakdown(80, 3, 15, 2.4)  # 100.4 is inside the +/- 0.5 band
        with pytest.raises(InvalidBreakdown):
            DeviceBreakdown(50, 10, 50, 2)

    def test_negative_percentage_rejected(self):
        with pytest.raises(InvalidBreakdown):
            DeviceBreakdown(-1, 3, 96, 2)

    @pytest.mark.parametrize(
        "device,band",
        [
            ("smartphone", (0.80, 0.85)),
            ("watch", (0.80, 0.85)),
            ("laptop", (0.70, 0.75)),
            ("medium_desktop", (0.55, 0.60)),
            ("high_end_desktop", (0.20, 0.25)),
            ("console", (0.20, 0.25)),
        ],
    )
    def test_device_presets(self, device, band):
        assert device_preset(device) == band

    def test_laptop_midpoint(self):
        assert weights_for_device("laptop").alpha_e2o == pytest.approx(0.725, abs=1e-12)

    def test_unknown_device_class(self):
        with pytest.raises(UnknownDeviceClass):
            device_preset("toaster")

