"""Carbon-footprint modeling for accelerator-rich chips.

Answers one question with a first-order model: given a chip with N
dedicated accelerators (DSAs), is a single reconfigurable fabric the
greener design? The break-even population is the critical DSA count (CDC);
everything else in the package feeds, sweeps, or reports that threshold.
"""

from .engine import (
    CdcQuery,
    SweepResult,
    cdc,
    cdc_curve,
    fit_aggregates,
    fit_scale,
    is_fabric_greener,
    min_dsas_to_replace,
    sweep_grid,
)
from .concurrency import (
    ScaleMode,
    average_utilization,
    scale_factor,
)
from .core import (
    AggregateRatios,
    DeviceBreakdown,
    FootprintWeights,
    KernelProfile,
    aggregate,
    alpha_from_breakdown,
    device_preset,
    dsa_footprint,
    fabric_footprint,
    weights_for_device,
)
from .dataset import (
    FabricSpec,
    KernelDataset,
    builtin_dataset,
    dump_dataset,
    load_dataset,
    validate_dataset,
)
from .scenarios import (
    SavingsResult,
    ScenarioSpec,
    builtin_case,
    calibrated_aggregates,
    evaluate_cdc_table,
    hybrid_retained_savings,
    savings_factor,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateRatios",
    "CdcQuery",
    "DeviceBreakdown",
    "FabricSpec",
    "FootprintWeights",
    "KernelDataset",
    "KernelProfile",
    "SavingsResult",
    "ScaleMode",
    "ScenarioSpec",
    "SweepResult",
    "aggregate",
    "alpha_from_breakdown",
    "average_utilization",
    "builtin_case",
    "builtin_dataset",
    "calibrated_aggregates",
    "cdc",
    "cdc_curve",
    "device_preset",
    "dsa_footprint",
    "dump_dataset",
    "evaluate_cdc_table",
    "fabric_footprint",
    "fit_aggregates",
    "fit_scale",
    "hybrid_retained_savings",
    "is_fabric_greener",
    "load_dataset",
    "min_dsas_to_replace",
    "savings_factor",
    "scale_factor",
    "sweep_grid",
    "validate_dataset",
    "weights_for_device",
]
