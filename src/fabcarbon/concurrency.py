"""Fabric scaling for concurrent kernels.

Running n kernels at once needs a bigger fabric. The conservative rule
charges a full fabric per kernel (n' = n); the average-utilization rule
scales by the mean fraction of compute resources the kernels actually
occupy (n' = n * mean utilization, never below one full fabric).
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

from .core import KernelProfile, _column, mean, require_concurrency
from .errors import EmptyKernelSet

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .dataset import KernelDataset


class ScaleMode(str, Enum):
    """How to derive n' from the concurrency level."""

    CONSERVATIVE = "conservative"
    AVERAGE_UTILIZATION = "average_utilization"

    @classmethod
    def average_utilization(cls) -> ScaleMode:
        return cls.AVERAGE_UTILIZATION


def average_utilization(kernels: KernelDataset | Sequence[KernelProfile]) -> float:
    """Arithmetic mean of per-kernel fabric utilization, as `aggregate` takes it."""
    if not kernels:
        raise EmptyKernelSet("cannot average utilization over an empty kernel set")
    return mean(_column(kernels, "utilization"))


def scale_factor(
    n: int,
    mode: ScaleMode,
    kernels: KernelDataset | Sequence[KernelProfile] | None = None,
    mean_utilization: float | None = None,
) -> float:
    """Fabric scaling factor n' for n concurrent kernels.

    Under average utilization the result is clamped to 1: the fabric is
    sized to host the largest kernel in full, so it never shrinks below one.
    ``mean_utilization`` short-circuits the kernel average when the caller
    already aggregated it. A mode that names neither rule raises ``ValueError``.
    """
    require_concurrency(n)
    if ScaleMode(mode) is ScaleMode.CONSERVATIVE:
        return float(n)
    if mean_utilization is None:
        if kernels is None:
            raise EmptyKernelSet("average-utilization scaling needs kernels or a mean utilization")
        mean_utilization = average_utilization(kernels)
    return max(1.0, n * mean_utilization)
