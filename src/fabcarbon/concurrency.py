"""Fabric scaling for concurrent kernels.

Running n kernels at once needs a bigger fabric. The conservative rule
charges a full fabric per kernel (n' = n); the average-utilization rule
scales by the mean fraction of compute resources the kernels actually
occupy (n' = n * mean utilization, never below one full fabric).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from enum import Enum

from .core import KernelProfile, require_concurrency, require_scale
from .errors import EmptyKernelSet


class ScaleKind(str, Enum):
    CONSERVATIVE = "conservative"
    AVERAGE_UTILIZATION = "average_utilization"


@dataclass(frozen=True)
class ScaleMode:
    """How to derive n' from the concurrency level.

    ``explicit_scale``, when set, wins over the rule and is used verbatim.
    """

    kind: ScaleKind = ScaleKind.CONSERVATIVE
    explicit_scale: float | None = None

    def __post_init__(self) -> None:
        if self.explicit_scale is not None:
            require_scale(self.explicit_scale)

    @classmethod
    def conservative(cls) -> ScaleMode:
        return cls(kind=ScaleKind.CONSERVATIVE)

    @classmethod
    def average_utilization(cls) -> ScaleMode:
        return cls(kind=ScaleKind.AVERAGE_UTILIZATION)

    @classmethod
    def explicit(cls, scale: float) -> ScaleMode:
        return cls(explicit_scale=float(scale))


def average_utilization(kernels: list[KernelProfile]) -> float:
    """Arithmetic mean of per-kernel fabric utilization."""
    if not kernels:
        raise EmptyKernelSet("cannot average utilization over an empty kernel set")
    # statistics.mean, not fmean: must stay bit-identical to aggregate()
    return statistics.mean([k.utilization for k in kernels])


def scale_factor(
    n: int,
    mode: ScaleMode | None = None,
    kernels: list[KernelProfile] | None = None,
    mean_utilization: float | None = None,
) -> float:
    """Fabric scaling factor n' for n concurrent kernels.

    Under average utilization the result is clamped to 1: the fabric is
    sized to host the largest kernel in full, so it never shrinks below one.
    ``mean_utilization`` short-circuits the kernel average when the caller
    already aggregated it.
    """
    require_concurrency(n)
    mode = mode or ScaleMode.conservative()
    if mode.explicit_scale is not None:
        return mode.explicit_scale
    if mode.kind is ScaleKind.CONSERVATIVE:
        return float(n)
    if mean_utilization is None:
        if kernels is None:
            raise EmptyKernelSet("average-utilization scaling needs kernels or a mean utilization")
        mean_utilization = average_utilization(kernels)
    return max(1.0, n * mean_utilization)
