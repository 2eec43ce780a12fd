"""Critical DSA count: threshold, decision, sweeps, and calibration.

The critical DSA count (CDC) is the break-even population: integrate more
DSAs than that and the reconfigurable fabric has the smaller combined
footprint. Closed form, with n concurrent kernels and a fabric scaled by n':

    CDC = (n' - (1 - alpha) * n * E) / (alpha * A)

At n' = n this reduces to n * (E/A + (1 - E) / (alpha * A)).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

from .concurrency import ScaleMode, scale_factor
from .core import AggregateRatios, FootprintWeights, Record, dsa_footprint, fabric_footprint, is_real, require_alpha, require_concurrency, require_scale
from .errors import DegenerateModel, InfeasibleFit, InvalidRange, SingularFit

# Tolerance for inclusive endpoints when stepping a float range.
_RANGE_EPS = 1e-9

# The last parameters tuple found strictly increasing. The curves of one grid
# share one tuple, so it is checked once, not once per curve; holding it keeps
# its identity from being reused by another object.
_increasing_parameters: tuple[float, ...] | None = None


class CdcQuery(Record):
    """One point in the model's parameter space.

    ``scale`` is the fabric scaling factor n'; ``None`` means the
    conservative n' = n.
    """

    weights: FootprintWeights
    agg: AggregateRatios
    n: int = 1
    scale: float | None = None

    def __post_init__(self) -> None:
        require_alpha(self.weights.alpha_e2o)
        require_concurrency(self.n)
        if self.scale is not None:
            require_scale(self.scale)

    @property
    def effective_scale(self) -> float:
        return float(self.n) if self.scale is None else self.scale


class SweepResult(Record):
    """One CDC-vs-alpha_e2o curve as parameter and value columns.

    ``label`` names the series (a scenario, or a grid point ``A=..,E=..``),
    ``n`` is the concurrency and ``scale`` the fabric scale n' the curve was
    evaluated at, and ``estimated_kernels`` names the kernels behind it whose
    utilization is estimated. The curves of one grid share one
    ``parameters`` tuple.
    """

    label: str
    parameters: tuple[float, ...]
    values: tuple[float, ...]
    n: int
    scale: float
    estimated_kernels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        global _increasing_parameters
        require_concurrency(self.n)
        require_scale(self.scale)
        params, values = self.parameters, self.values
        if len(params) != len(values):
            raise InvalidRange(f"sweep has {len(params)} parameters but {len(values)} values")
        if params is not _increasing_parameters:
            if not all(map(is_real, params)):
                raise InvalidRange("sweep parameters must be finite numbers")
            if any(map(operator.le, params[1:], params)):
                raise InvalidRange("sweep parameters must be strictly increasing")
            if type(params) is tuple:  # immutable, so once it has passed it stays valid
                _increasing_parameters = params
        for p, v in zip(params, values):
            # exactly float: a bool or a float subclass would not be written as a float
            if type(v) is not float or not 0 < v < math.inf:
                raise DegenerateModel(f"sweep value at {p!r} is not a finite positive float: {v!r}")

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        """The curve as (parameter, value) pairs."""
        return tuple(zip(self.parameters, self.values))


def cdc_curve(
    alphas: Sequence[float],
    agg: AggregateRatios,
    n: int,
    scale: float,
) -> list[float]:
    """Break-even DSA population at each alpha_e2o, other parameters fixed.

    This is the one evaluator of the closed form. ``scale`` is the fabric
    scaling factor n'. Each value is a real number; a population strictly
    above it makes the fabric the greener option. Raises ``DegenerateModel``
    when no finite population is large enough: the fabric's operational
    deficit alone outweighs its budget, or the threshold overflows.
    """
    require_concurrency(n)
    require_scale(scale)
    if not alphas:
        raise InvalidRange("no alpha values supplied")
    area, energy = agg.area, agg.energy
    values = []
    for alpha in alphas:
        if not 0.0 < alpha <= 1.0:  # inline fast path; require_alpha raises the typed error
            require_alpha(alpha)
        numerator = scale - (1.0 - alpha) * n * energy
        if numerator <= 0:
            raise DegenerateModel(
                "fabric is never greener: operational term "
                f"{(1.0 - alpha) * n * energy:.6g} >= fabric budget {scale:.6g}"
            )
        denominator = alpha * area
        value = numerator / denominator if denominator else math.inf
        if value == math.inf:
            raise DegenerateModel(f"threshold is not finite at alpha_e2o = {alpha!r}")
        values.append(value)
    return values


def cdc(query: CdcQuery) -> float:
    """Break-even DSA population for the queried parameters (one point of ``cdc_curve``)."""
    return cdc_curve((query.weights.alpha_e2o,), query.agg, query.n, query.effective_scale)[0]


def min_dsas_to_replace(query: CdcQuery) -> int:
    """Smallest integer population, at least n, that makes the fabric greener.

    The closed form gives the candidate; the footprint comparison of
    ``is_fabric_greener`` then decides float ties one step either way, so
    the two always agree near the threshold.
    """
    count = max(query.n, math.floor(cdc(query)) + 1)
    if count > query.n and is_fabric_greener(count - 1, query):
        return count - 1
    if not is_fabric_greener(count, query):
        return count + 1
    return count


def is_fabric_greener(dsa_count: int, query: CdcQuery) -> bool:
    """True when the sea of DSAs out-pollutes the scaled fabric.

    Evaluated from the footprints themselves; ties favor the DSAs.
    """
    dsa = dsa_footprint(dsa_count, query.n, query.weights, query.agg)
    return dsa > fabric_footprint(query.effective_scale)


def step_count(lo: float, hi: float, step: float) -> int:
    """Number of inclusive [lo, hi] samples at the given step, robust to float drift."""
    if not (lo <= hi and step > 0 and (hi - lo) / step < math.inf):
        raise InvalidRange(f"range needs finite LO <= HI and STEP > 0: {lo!r}:{hi!r}:{step!r}")
    return math.floor((hi - lo) / step + _RANGE_EPS) + 1


def float_steps(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive [lo, hi] samples at the given step, robust to float drift."""
    return [lo + i * step for i in range(step_count(lo, hi, step))]


def sweep_grid(
    alphas: Sequence[float],
    areas: Sequence[float],
    energies: Sequence[float],
    n: int = 1,
) -> list[SweepResult]:
    """One alpha curve per (area, energy) pair of the Cartesian grid, at n' = n."""
    if not areas or not energies:
        raise InvalidRange("grid axes must be non-empty")
    scale = scale_factor(n, ScaleMode.CONSERVATIVE)
    alphas = tuple(alphas)  # one parameters column, shared by every curve
    curves = []
    for area in areas:
        for energy in energies:
            agg = AggregateRatios(area=area, energy=energy, utilization=1.0, kernel_count=1)
            curves.append(
                SweepResult(
                    label=f"A={area:g},E={energy:g}",
                    parameters=alphas,
                    values=tuple(cdc_curve(alphas, agg, n, scale)),
                    n=n,
                    scale=scale,
                )
            )
    return curves


def fit_aggregates(
    points: Sequence[tuple[float, float]],
    n: int = 1,
    *,
    utilization: float = 1.0,
    kernel_count: int | None = None,
) -> AggregateRatios:
    """Recover (A, E) from two (alpha, CDC) observations.

    Inverts the closed form: with x = 1/A and y = E/A, each observation is
    linear, alpha * CDC = n * x - (1 - alpha) * n * y at n' = n. The returned
    aggregates are a calibration artifact, not kernel means; ``utilization``
    and ``kernel_count`` describe the population the curve summarizes.
    """
    if len(points) != 2:
        raise SingularFit(f"exactly two calibration points required, got {len(points)}")
    (a1, c1), (a2, c2) = points
    for alpha, value in points:
        require_alpha(alpha)
        if not (is_real(value) and value > 0):
            raise InvalidRange(f"calibration CDC out of (0, inf): {value!r}")
    require_concurrency(n)
    if a1 == a2:
        raise SingularFit(f"calibration points share alpha = {a1!r}")
    # Eliminate x between the two linear observations.
    y = (a2 * c2 - a1 * c1) / (n * (a2 - a1))
    x = (a1 * c1 + (1.0 - a1) * n * y) / n
    if not 0 < x < math.inf:
        raise InfeasibleFit(f"fit implies 1/A out of (0, inf): {x!r}")
    area = 1.0 / x
    energy = y / x
    if not 0 < energy < 1:
        raise InfeasibleFit(f"fit implies energy ratio out of (0, 1): {energy!r}")
    return AggregateRatios(
        area=area,
        energy=energy,
        utilization=utilization,
        kernel_count=len(points) if kernel_count is None else kernel_count,
    )


def fit_scale(
    points: Sequence[tuple[float, float]],
    n: int,
    agg: AggregateRatios,
) -> float:
    """Least-squares fabric scale n' explaining (alpha, CDC) observations.

    With (A, E) known, each observation pins n' directly; the least-squares
    solution of the one-parameter linear model is their mean.
    """
    if not points:
        raise InvalidRange("at least one observation required to fit a scale")
    estimates = [
        value * alpha * agg.area + (1.0 - alpha) * n * agg.energy for alpha, value in points
    ]
    fitted = math.fsum(estimates) / len(estimates)
    if fitted < 1:
        raise InfeasibleFit(f"fitted scale below 1: {fitted!r}")
    return fitted
