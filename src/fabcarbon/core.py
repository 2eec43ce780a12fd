"""Domain types and the two footprint functions.

Everything is expressed in units of one unscaled fabric: a kernel's
``area_norm``/``energy_norm`` are the dedicated accelerator's chip area and
energy divided by the fabric's, so the fabric itself scores 1.0 on both axes.
The combined footprint weighs the embodied share (chip area proxy) against
the operational share (energy proxy) with ``alpha_e2o`` in [0, 1].
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    AlphaPole,
    ConcurrencyExceedsPopulation,
    EmptyKernelSet,
    InvalidAggregates,
    InvalidAlpha,
    InvalidBreakdown,
    InvalidConcurrency,
    InvalidKernel,
    InvalidScale,
    UnknownDeviceClass,
)


# Embodied-footprint share bands per device class, from vendor lifecycle
# reports: battery-operated devices are embodied-dominated, always-on
# desktops and consoles operational-dominated. The keys are the device classes.
DEVICE_ALPHA_BANDS: dict[str, tuple[float, float]] = {
    "watch": (0.80, 0.85),
    "smartphone": (0.80, 0.85),
    "laptop": (0.70, 0.75),
    "medium_desktop": (0.55, 0.60),
    "high_end_desktop": (0.20, 0.25),
    "console": (0.20, 0.25),
}

# Lifecycle percentages may carry report rounding; the sum check absorbs it.
BREAKDOWN_SUM_TOLERANCE = 0.5


def is_real(value: object) -> bool:
    """True for a finite int or float; NaN, infinities, bools and other types are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return -sys.float_info.max <= value <= sys.float_info.max


def require_alpha(alpha: float) -> None:
    """Reject an embodied weight outside (0, 1]; alpha_e2o = 0 is the model's pole."""
    if alpha == 0:
        raise AlphaPole("alpha_e2o = 0 is a pole: the threshold diverges")
    if not (is_real(alpha) and 0 < alpha <= 1):
        raise InvalidAlpha(f"alpha_e2o out of (0, 1]: {alpha!r}")


# Concurrency meets floats in n' and in the threshold; above 2**53 a float
# no longer holds every integer, so results would silently round.
MAX_CONCURRENCY = 2**53


def require_concurrency(n: int) -> None:
    """Reject a concurrency level below 1, above 2**53 or not finite."""
    if not (is_real(n) and 1 <= n <= MAX_CONCURRENCY):
        raise InvalidConcurrency(f"concurrency must be in [1, 2**53]: {n!r}")


def require_scale(scale: float) -> None:
    """Reject a fabric scaling factor below 1 or not finite."""
    if not (is_real(scale) and scale >= 1):
        raise InvalidScale(f"fabric scale must be finite and >= 1: {scale!r}")


@dataclass(frozen=True)
class KernelProfile:
    """One accelerated kernel, normalized against the fabric.

    ``utilization`` is the fraction of fabric compute resources the kernel
    occupies when mapped; ``estimated`` flags values that are constrained
    estimates rather than direct measurements.
    """

    name: str
    domain: str
    area_norm: float
    energy_norm: float
    utilization: float
    memory_kb: float
    estimated: bool = False

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name):
            raise InvalidKernel(f"kernel name must be a non-empty string: {self.name!r}")
        if not isinstance(self.domain, str):
            raise InvalidKernel(f"kernel {self.name!r}: domain must be a string: {self.domain!r}")
        if not (is_real(self.area_norm) and self.area_norm > 0):
            raise InvalidKernel(f"kernel {self.name!r}: area_norm out of (0, inf): {self.area_norm!r}")
        if not (is_real(self.energy_norm) and self.energy_norm > 0):
            raise InvalidKernel(
                f"kernel {self.name!r}: energy_norm out of (0, inf): {self.energy_norm!r}"
            )
        if not (is_real(self.utilization) and 0 < self.utilization <= 1):
            raise InvalidKernel(
                f"kernel {self.name!r}: utilization out of (0, 1]: {self.utilization!r}"
            )
        if not (is_real(self.memory_kb) and self.memory_kb >= 0):
            raise InvalidKernel(f"kernel {self.name!r}: memory_kb out of [0, inf): {self.memory_kb!r}")
        if not isinstance(self.estimated, bool):
            raise InvalidKernel(f"kernel {self.name!r}: estimated must be boolean: {self.estimated!r}")


@dataclass(frozen=True)
class AggregateRatios:
    """Scenario-level mean relative area, energy, and utilization."""

    area: float
    energy: float
    utilization: float
    kernel_count: int

    def __post_init__(self) -> None:
        if not (is_real(self.kernel_count) and self.kernel_count >= 1):
            raise InvalidAggregates(f"kernel_count must be >= 1: {self.kernel_count!r}")
        if not (is_real(self.area) and self.area > 0):
            raise InvalidAggregates(f"aggregate area out of (0, inf): {self.area!r}")
        if not (is_real(self.energy) and self.energy > 0):
            raise InvalidAggregates(f"aggregate energy out of (0, inf): {self.energy!r}")
        if not (is_real(self.utilization) and 0 < self.utilization <= 1):
            raise InvalidAggregates(f"aggregate utilization out of (0, 1]: {self.utilization!r}")


@dataclass(frozen=True)
class FootprintWeights:
    """Embodied-to-operational weight: the embodied share of the footprint."""

    alpha_e2o: float

    def __post_init__(self) -> None:
        if not (is_real(self.alpha_e2o) and 0 <= self.alpha_e2o <= 1):
            raise InvalidAlpha(f"alpha_e2o out of [0, 1]: {self.alpha_e2o!r}")


@dataclass(frozen=True)
class DeviceBreakdown:
    """Lifecycle footprint percentages for one device, summing to 100."""

    production_pct: float
    transport_pct: float
    use_pct: float
    eol_pct: float

    def __post_init__(self) -> None:
        parts = (self.production_pct, self.transport_pct, self.use_pct, self.eol_pct)
        if not all(is_real(p) and p >= 0 for p in parts):
            raise InvalidBreakdown(
                f"breakdown percentages must be finite and >= 0: {parts}"
            )
        total = sum(parts)
        if abs(total - 100.0) > BREAKDOWN_SUM_TOLERANCE:
            raise InvalidBreakdown(
                f"breakdown percentages sum to {total}, expected 100"
                f" +/- {BREAKDOWN_SUM_TOLERANCE}"
            )


def aggregate(kernels: Sequence[KernelProfile]) -> AggregateRatios:
    """Arithmetic mean relative area, energy, and utilization over a kernel set."""
    if not kernels:
        raise EmptyKernelSet("cannot aggregate an empty kernel set")
    # exact-rational mean: identical inputs aggregate to themselves, bit for bit
    mean = statistics.mean
    return AggregateRatios(
        area=mean([k.area_norm for k in kernels]),
        energy=mean([k.energy_norm for k in kernels]),
        utilization=mean([k.utilization for k in kernels]),
        kernel_count=len(kernels),
    )


def dsa_footprint(
    dsa_count: float,
    concurrency: int,
    weights: FootprintWeights,
    agg: AggregateRatios,
) -> float:
    """Combined footprint of a sea of DSAs, in unscaled-fabric units.

    The embodied term charges chip area for every integrated DSA; the
    operational term charges energy only for the concurrently active ones.
    ``dsa_count`` is an integer in practice, but real values are admitted so
    threshold analyses can evaluate the footprint at the break-even point.
    """
    require_concurrency(concurrency)
    # A break-even count equal to n (A = E = 1) can round a few ulps below n.
    if not (dsa_count >= concurrency or math.isclose(dsa_count, concurrency, rel_tol=1e-12)):
        raise ConcurrencyExceedsPopulation(
            f"concurrency {concurrency} exceeds DSA population {dsa_count}"
        )
    alpha = weights.alpha_e2o
    return alpha * dsa_count * agg.area + (1.0 - alpha) * concurrency * agg.energy


def fabric_footprint(scale: float) -> float:
    """Footprint of the fabric scaled by n' (area and energy scale together)."""
    require_scale(scale)
    return float(scale)


def alpha_from_breakdown(breakdown: DeviceBreakdown) -> FootprintWeights:
    """Embodied share of a lifecycle breakdown.

    Everything except the use phase counts as embodied: production,
    transportation, and end-of-life processing.
    """
    embodied = breakdown.production_pct + breakdown.transport_pct + breakdown.eol_pct
    total = embodied + breakdown.use_pct
    return FootprintWeights(alpha_e2o=embodied / total)


def device_preset(device: str) -> tuple[float, float]:
    """[low, high] embodied-share band for a device class."""
    try:
        return DEVICE_ALPHA_BANDS[device]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise UnknownDeviceClass(f"unknown device class: {device!r}") from None


def weights_for_device(device: str) -> FootprintWeights:
    """Band midpoint as ready-to-use weights."""
    low, high = device_preset(device)
    return FootprintWeights(alpha_e2o=(low + high) / 2.0)
