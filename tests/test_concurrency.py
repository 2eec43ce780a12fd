from __future__ import annotations

import pytest

from fabcarbon import (
    KernelProfile,
    ScaleMode,
    average_utilization,
    fabric_footprint,
    scale_factor,
)
from fabcarbon.errors import EmptyKernelSet, InvalidScale


def _kernel(name, util):
    return KernelProfile(name, "test", 0.3, 0.3, util, 1.0)


class TestAverageUtilization:
    def test_builtin_dataset_mean(self, dataset):
        assert average_utilization(list(dataset.kernels)) == pytest.approx(0.64, abs=1e-12)

    def test_saturated_kernels(self):
        kernels = [_kernel(f"k{i}", 1.0) for i in range(3)]
        assert average_utilization(kernels) == 1.0

    def test_two_kernel_mean(self):
        assert average_utilization([_kernel("a", 1.0), _kernel("b", 0.26)]) == pytest.approx(0.63)

    def test_empty_rejected(self):
        with pytest.raises(EmptyKernelSet):
            average_utilization([])


class TestScaleFactor:
    def test_displayed_reference_factors(self, dataset):
        # 1.28 / 1.92 / 2.56, shown as 1.3x / 1.9x / 2.6x at one decimal
        kernels = list(dataset.kernels)
        mode = ScaleMode.average_utilization()
        for n, expected in ((2, 1.28), (3, 1.92), (4, 2.56)):
            assert scale_factor(n, mode, kernels) == pytest.approx(expected, abs=1e-12)

    def test_single_kernel_clamps_to_one(self, dataset):
        assert scale_factor(1, ScaleMode.average_utilization(), list(dataset.kernels)) == 1.0

    def test_conservative_equals_n(self):
        for n in range(1, 6):
            assert scale_factor(n, ScaleMode.conservative()) == float(n)

    def test_explicit_override_wins(self):
        assert scale_factor(4, ScaleMode.explicit(1.9), mean_utilization=0.2) == 1.9

    def test_explicit_below_one_rejected(self):
        with pytest.raises(InvalidScale):
            ScaleMode.explicit(0.5)

    def test_monotone_in_n_and_utilization(self):
        mode = ScaleMode.average_utilization()
        values = [scale_factor(n, mode, mean_utilization=0.6) for n in range(1, 8)]
        assert values == sorted(values)
        by_util = [scale_factor(3, mode, mean_utilization=u) for u in (0.2, 0.5, 0.8, 1.0)]
        assert by_util == sorted(by_util)
        assert all(v >= 1.0 for v in values + by_util)

    def test_never_exceeds_conservative_fabric(self, dataset):
        kernels = list(dataset.kernels)
        for n in range(1, 6):
            avg = fabric_footprint(scale_factor(n, ScaleMode.average_utilization(), kernels))
            cons = fabric_footprint(scale_factor(n, ScaleMode.conservative()))
            assert avg <= cons

