"""Replacement scenarios: case studies, CDC tables, savings, hybrids.

Three built-in cases study how outlier kernels shift the break-even point:
CASE-I replaces every DSA, CASE-II keeps the tiny AESEncrypt block out of
the pool, CASE-III also keeps Viterbi. Savings compare a populated chip
against a fabric sized for the expected concurrency; the hybrid variant
keeps selected kernels as dedicated blocks next to a smaller fabric.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress

from .engine import SweepResult, cdc_curve, fit_aggregates
from .concurrency import ScaleMode, average_utilization, scale_factor
from .core import MAX_CONCURRENCY, AggregateRatios, FootprintWeights, Record, aggregate, dsa_footprint, fabric_footprint, is_real, require_alpha, require_concurrency
from .dataset import KernelDataset, builtin_dataset
from .errors import ConcurrencyExceedsPopulation, EmptyKernelSet, InvalidValue, NoFabricWorkload, UnknownScenario

# Defaults for savings-style questions: a representative chip integrates
# 40 DSAs, and alpha 0.7 marks where the embodied share starts dominating.
DEFAULT_DSA_POPULATION = 40
DEFAULT_ALPHA = 0.7

CASE_EXCLUSIONS: dict[str, frozenset[str]] = {
    "I": frozenset(),
    "II": frozenset({"AESEncrypt"}),
    "III": frozenset({"AESEncrypt", "Viterbi"}),
}

# Serial-CDC anchor points per case (alpha, CDC). The calibrated mode fits
# aggregates to these instead of averaging the raw kernel ratios; the two
# pipelines agree within a few percent but not exactly.
REFERENCE_CDC_ANCHORS: dict[str, tuple[tuple[float, float], tuple[float, float]]] = {
    "I": ((0.3, 9.773), (0.9, 4.01)),
    "II": ((0.3, 7.66), (0.9, 3.29)),
    "III": ((0.3, 6.59), (0.9, 2.93)),
}

# Mean utilization consistent with the reference savings table; the raw
# kernel mean is 0.64, the reverse fit lands at 0.63.
CALIBRATED_UTILIZATION = 0.63


class ScenarioSpec(Record):
    """Which kernels to replace, at what concurrency, on which device."""

    name: str
    excluded_kernels: frozenset[str] = frozenset()
    n: int = 1
    scale_mode: ScaleMode = ScaleMode.CONSERVATIVE
    dsa_population: int = DEFAULT_DSA_POPULATION
    weights: FootprintWeights = FootprintWeights(DEFAULT_ALPHA)  # frozen, so one shared default is safe

    def __post_init__(self) -> None:
        require_concurrency(self.n)
        ScaleMode(self.scale_mode)  # a value naming neither rule raises ValueError
        # `dsa_footprint` multiplies the population as a float, which holds every count only up to 2**53
        population = self.dsa_population
        if (is_real(population) or isinstance(population, int)) and population > MAX_CONCURRENCY:
            raise InvalidValue(f"DSA population must be at most 2**53 = {MAX_CONCURRENCY}")
        if not (is_real(self.dsa_population) and self.n <= self.dsa_population):
            raise ConcurrencyExceedsPopulation(
                f"concurrency {self.n} exceeds DSA population {self.dsa_population}"
            )
        require_alpha(self.weights.alpha_e2o)


class SavingsResult(Record):
    """Footprint improvement from replacing the DSA population with a fabric.

    The average-utilization column is omitted at n = 1, where it coincides
    with the conservative one by construction.
    """

    n: int
    improvement_conservative: float
    improvement_avg_util: float | None
    scale_avg_util: float | None

    def __post_init__(self) -> None:
        if self.improvement_conservative <= 0:
            raise ValueError("improvement must be > 0")
        if self.improvement_avg_util is not None and self.improvement_avg_util <= 0:
            raise ValueError("improvement must be > 0")


def _case_key(case_id: str) -> str:
    """The key of a built-in case in `CASE_EXCLUSIONS` and `REFERENCE_CDC_ANCHORS`; case ids ignore case."""
    key = str(case_id).upper()
    if key not in CASE_EXCLUSIONS:
        raise UnknownScenario(f"unknown scenario: {case_id!r} (expected I, II, or III)")
    return key


def builtin_case(
    case_id: str,
    *,
    n: int = 1,
    scale_mode: ScaleMode = ScaleMode.CONSERVATIVE,
    alpha: float = DEFAULT_ALPHA,
    dsa_population: int = DEFAULT_DSA_POPULATION,
) -> ScenarioSpec:
    """One of the built-in exclusion scenarios (case "I", "II", or "III")."""
    key = _case_key(case_id)
    return ScenarioSpec(
        name=f"CASE-{key}",
        excluded_kernels=CASE_EXCLUSIONS[key],
        n=n,
        scale_mode=scale_mode,
        dsa_population=dsa_population,
        weights=FootprintWeights(alpha),
    )


def calibrated_aggregates(case: str = "I", dataset: KernelDataset | None = None) -> AggregateRatios:
    """Aggregates fitted to a case's reference CDC anchors (case "I", "II", or "III").

    Area and energy come from the two-point fit. Utilization is the
    reverse-fitted full-set value for CASE-I and the plain kernel mean for
    the other cases, where no savings reference exists to fit against.
    """
    key = _case_key(case)
    ds = dataset if dataset is not None else builtin_dataset()
    included = ds.without(CASE_EXCLUSIONS[key])
    utilization = CALIBRATED_UTILIZATION if key == "I" else average_utilization(included)
    return fit_aggregates(REFERENCE_CDC_ANCHORS[key], n=1, utilization=utilization, kernel_count=len(included))


def scenario_kernels(spec: ScenarioSpec, dataset: KernelDataset | None = None) -> KernelDataset:
    """The dataset of the kernels the scenario actually maps onto the fabric."""
    ds = dataset if dataset is not None else builtin_dataset()
    included = ds.without(spec.excluded_kernels)
    if not included:
        raise EmptyKernelSet(f"scenario {spec.name!r} excludes every kernel")
    return included


def evaluate_cdc_table(
    spec: ScenarioSpec,
    alphas: Iterable[float],
    dataset: KernelDataset | None = None,
    aggregates: AggregateRatios | None = None,
) -> SweepResult:
    """Break-even population for each alpha under one scenario.

    The fabric scale follows the scenario's mode with the mean utilization
    of the included kernels; pass ``aggregates`` to evaluate with calibrated
    area/energy instead of the kernels' ``aggregate``.
    """
    alphas = tuple(sorted(set(alphas)))
    kernels = scenario_kernels(spec, dataset)
    agg = aggregates if aggregates is not None else aggregate(kernels)
    scale = scale_factor(spec.n, spec.scale_mode, kernels=kernels)
    return SweepResult(
        label=spec.name,
        parameters=alphas,
        values=tuple(cdc_curve(alphas, agg, spec.n, scale)),
        n=spec.n,
        scale=scale,
        estimated_kernels=tuple(sorted(compress(kernels.names(), kernels.column("estimated")))),
    )


def savings_factor(
    spec: ScenarioSpec,
    dataset: KernelDataset | None = None,
    aggregates: AggregateRatios | None = None,
) -> SavingsResult:
    """Footprint improvement of one fabric over the full DSA population.

    Computed twice: against a conservatively scaled fabric (n' = n) and
    against one scaled by the aggregate mean utilization (n' = n * u,
    clamped to 1). The utilization travels with the aggregates, so the
    calibrated triple carries its own reverse-fitted value; when
    ``aggregates`` is given, the kernels are not read at all.
    """
    agg = aggregates if aggregates is not None else aggregate(scenario_kernels(spec, dataset))
    dsa = dsa_footprint(spec.dsa_population, spec.n, spec.weights, agg)
    improvement_cons = dsa / fabric_footprint(float(spec.n))
    if spec.n == 1:
        scale_avg = None
        improvement_avg = None
    else:
        scale_avg = scale_factor(spec.n, ScaleMode.AVERAGE_UTILIZATION, mean_utilization=agg.utilization)
        improvement_avg = dsa / fabric_footprint(scale_avg)
    return SavingsResult(
        n=spec.n,
        improvement_conservative=improvement_cons,
        improvement_avg_util=improvement_avg,
        scale_avg_util=scale_avg,
    )


def hybrid_retained_savings(
    spec: ScenarioSpec,
    retained: Iterable[str],
    dataset: KernelDataset | None = None,
    aggregates: AggregateRatios | None = None,
) -> float:
    """Improvement when some kernels stay dedicated next to a smaller fabric.

    Each retained kernel keeps its own DSA (charged its full embodied and
    operational share) and frees one concurrent fabric slot; the fabric is
    rescaled for the remaining slots using the mean utilization of the
    scenario's other kernels. The baseline is the full population at
    concurrency n. A retained kernel the scenario excludes raises ``KeyError``.
    """
    ds = dataset if dataset is not None else builtin_dataset()
    retained_names = set(retained)
    retained_kernels = [ds.kernel(name) for name in sorted(retained_names)]
    excluded = spec.excluded_kernels & retained_names
    if excluded:
        raise KeyError(f"scenario {spec.name!r} already excludes kernel(s): {sorted(excluded)}")
    if len(retained_names) >= spec.n:
        raise NoFabricWorkload(
            f"retaining {len(retained_names)} kernel(s) leaves no fabric slot at concurrency {spec.n}"
        )
    kernels = scenario_kernels(spec, ds)
    agg = aggregates if aggregates is not None else aggregate(kernels)
    numerator = dsa_footprint(spec.dsa_population, spec.n, spec.weights, agg)

    alpha = spec.weights.alpha_e2o
    retained_cost = sum(
        alpha * k.area_norm + (1.0 - alpha) * k.energy_norm for k in retained_kernels
    )
    fabric_kernels = kernels.compress(name not in retained_names for name in kernels.names())
    sub_scale = scale_factor(spec.n - len(retained_names), spec.scale_mode, kernels=fabric_kernels)
    return numerator / (fabric_footprint(sub_scale) + retained_cost)
