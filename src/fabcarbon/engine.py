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
import sys
from collections.abc import Callable, Iterator, Sequence
from functools import partial
from itertools import islice, product

from .concurrency import ScaleMode, scale_factor
from .core import AT_LEAST_ONE, FLOAT_MAX, OPEN_UNIT, POSITIVE, REAL, UNIT, AggregateRatios, FootprintWeights, Record, dsa_footprint, fabric_footprint, numbers_within, require_alpha, require_concurrency, require_scale
from .errors import DegenerateModel, InfeasibleFit, InvalidRange, SingularFit

# Tolerance for inclusive endpoints when stepping a float range.
_RANGE_EPS = 1e-9
# The least positive normal float.
_NORMAL_MIN = sys.float_info.min


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
        require_concurrency(self.n)
        require_scale(self.scale)
        params, values = self.parameters, self.values
        if len(params) != len(values):
            raise InvalidRange(f"sweep has {len(params)} parameters but {len(values)} values")
        if not (numbers_within(params, REAL) or all(map(REAL, params))):
            raise InvalidRange("sweep parameters must be finite numbers")
        if any(map(operator.le, params[1:], params)):
            raise InvalidRange("sweep parameters must be strictly increasing")
        if not numbers_within(values, POSITIVE, {float}):  # exactly float: a bool or float subclass is not written as one
            for p, v in zip(params, values):
                if type(v) is not float or not POSITIVE(v):
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

    ``scale`` is the fabric scaling factor n'. Each value is a real number;
    a population strictly above it makes the fabric the greener option.
    Raises ``DegenerateModel`` when no finite population is large enough:
    the fabric's operational deficit alone outweighs its budget, or the
    threshold overflows.

    Every value comes from `_closed_form`, the one evaluator of the closed
    form. The point loop before it only names a fault: it raises the first
    one in alpha order and keeps nothing.
    """
    require_concurrency(n)
    require_scale(scale)
    if not alphas:
        raise InvalidRange("no alpha values supplied")
    area, energy = agg.area, agg.energy
    for alpha in alphas:
        if alpha not in UNIT:  # any type that compares inside; require_alpha raises the typed error
            require_alpha(alpha)
        numerator = scale - (1.0 - alpha) * n * energy
        if numerator <= 0:
            raise DegenerateModel(
                "fabric is never greener: operational term "
                f"{(1.0 - alpha) * n * energy:.6g} >= fabric budget {scale:.6g}"
            )
        denominator = alpha * area
        if not denominator or numerator / denominator == math.inf:
            raise DegenerateModel(f"threshold is not finite at alpha_e2o = {alpha!r}")
    return _closed_form(alphas, area, energy, n, scale)


# The closed form in column steps, each rounding as in `(scale - (1.0 - a) * nf * E) / (a * A)` and in that
# order: a grid computes the columns its curves share once, and `_closed_form` divides them.


def _numerators(alphas: Sequence[float], energy: float, n: int, scale: float) -> list[float]:
    """fl(scale - fl(fl(fl(1.0 - a) * nf) * E)) at each alpha."""
    nf = float(n)  # exact up to 2**53, as in `float * int`; float products are faster
    return [scale - (1.0 - alpha) * nf * energy for alpha in alphas]


def _denominators(alphas: Sequence[float], area: float) -> list[float]:
    """fl(a * A) at each alpha."""
    return [alpha * area for alpha in alphas]


def _closed_form(
    alphas: Sequence[float],
    area: float,
    energy: float,
    n: int,
    scale: float,
    columns: tuple[Sequence[float], Sequence[float]] | None = None,
) -> list[float]:
    """The closed form at each alpha, unchecked: the one evaluator, for a column whose checks pass.

    Each value is fl(num(a) / den(a)), with num(a) from `_numerators` and
    den(a) from `_denominators`. `columns` is those two columns of
    `alphas`, when a grid holds them for the curves that share them: the
    curve is then one C-level division a point. Without them each point
    takes the five steps in one pass, in the same order: for a curve that
    shares no column that is faster than building the columns (about 72
    against 107 ns a point on 1000 alphas, Python 3.11).
    """
    if columns is not None:
        return list(map(operator.truediv, *columns))
    nf = float(n)  # exact up to 2**53, as in `float * int`; float products are faster
    return [(scale - (1.0 - alpha) * nf * energy) / (alpha * area) for alpha in alphas]


def cdc(query: CdcQuery) -> float:
    """Break-even DSA population for the queried parameters (one point of ``cdc_curve``)."""
    return cdc_curve((query.weights.alpha_e2o,), query.agg, query.n, query.effective_scale)[0]


def min_dsas_to_replace(query: CdcQuery) -> int:
    """Smallest integer population, at least n, that makes the fabric greener.

    The footprint comparison of ``is_fabric_greener`` decides, and it turns
    from False to True only once as the count grows. From the closed form's
    guess, steps that double find a count below n or not greener and one
    that is greener, and a bisection between them finds the least. Counts
    stop at the largest a float holds: the footprint takes each as a float.
    """
    n, top = query.n, int(FLOAT_MAX)
    low = high = min(max(n, math.floor(cdc(query)) + 1), top)
    step = 1
    while low >= n and is_fabric_greener(low, query):
        low, step = max(low - step, n - 1), 2 * step
    while not is_fabric_greener(high, query):
        if high == top:
            raise DegenerateModel("no population a float holds makes the fabric greener")
        high, step = min(high + step, top), 2 * step
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (low, middle) if is_fabric_greener(middle, query) else (middle, high)
    return high


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


def _grid_cleared(alphas: Sequence[float], areas: tuple, energies: tuple, n: int, scale: float) -> bool:
    """Whether no curve of the grid can fault, proved from the ends of `alphas` in O(1) a curve.

    A curve's values are v(a) = fl(num(a) / den(a)), `_closed_form` of the
    column steps num(a) = fl(scale - fl(fl(fl(1.0 - a) * nf) * E)), from
    `_numerators`, and den(a) = fl(a * A), from `_denominators`; fl rounds to
    nearest. Rounding is monotone (x <= y gives fl(x) <= fl(y), overflow to
    +-inf included), and so is each step: fl(1.0 - a) falls as a grows, a
    product with nf > 0 or E > 0 keeps that order, and the subtraction from
    `scale` reverses it, so num rises with a; den rises with a, since A > 0.
    With `alphas` strictly increasing floats in (0, 1], every alpha lies
    between lo = alphas[0] and hi = alphas[-1], so num(lo) <= num(a) <=
    num(hi) and den(lo) <= den(a) <= den(hi). Then num(lo) > 0 and den(lo) > 0
    make every num(a) and den(a) positive, and finite, since num(a) <= scale
    and den(a) <= A. For positive operands fl(x / y) rises with x and falls
    with y, so fl(num(lo) / den(hi)) <= v(a) <= fl(num(hi) / den(lo)), and the
    last two conditions below put every v(a) in (0, inf): `cdc_curve`'s
    point-by-point loop would raise nothing, and `SweepResult` takes every
    value. The ends are computed by the same column steps. Each area and
    energy must be a plain int or float that `AggregateRatios` accepts.
    """
    if not alphas or not numbers_within(alphas, UNIT, {float}):
        return False
    if any(map(operator.le, alphas[1:], alphas)) or not numbers_within((*areas, *energies), POSITIVE):
        return False
    ends = (alphas[0], alphas[-1])
    nums = [_numerators(ends, energy, n, scale) for energy in energies]
    dens = [_denominators(ends, area) for area in areas]
    return all(
        num_lo > 0.0 and den_lo > 0.0 and POSITIVE(num_lo / den_hi) and POSITIVE(num_hi / den_lo)
        for num_lo, num_hi in nums
        for den_lo, den_hi in dens
    )


def _grid_label(area: float, energy: float) -> str:
    """The label of a grid curve: its point on the area and energy axes."""
    return f"A={area:g},E={energy:g}"


# The most floats a grid holds in the columns its curves share: at 32 B a float (its object and its list slot),
# 1 MiB, inside the 1.5 MB the hold may add to a sweep's peak.
_HELD_FLOATS = 2**15


class GridCurves:
    """The curves of a grid whose curves pass the checks, each evaluated as it is drawn.

    An iterator of `SweepResult` in grid order that checks nothing: the
    checks (`cdc_curve`'s and `SweepResult`'s) ran in `grid_curves`. Every
    curve shares `parameters`, `n` and `scale`; `peaks` reads what a
    table's column widths need of the curves not yet drawn without
    evaluating one column.

    A grid of more than one area and more than one energy, whose numerator
    columns (one per energy) and one denominator column hold at most
    `_HELD_FLOATS` floats, computes each energy's numerators once, when it
    is built, and each area's denominators when its first curve is drawn,
    and hands them to `_closed_form`: every column it holds then serves at
    least two curves. Any other grid holds no column: each curve is
    evaluated by itself. On 1000 alphas (Python 3.11, 2-CPU host) a held
    grid of 2 x 2 curves draws as fast as one that holds nothing, larger
    ones faster (62 against 81 ns a point at 4 x 4, 36 against 71 ms for
    30 x 30), and a 2 x 1 grid about 10% slower, so it holds nothing.
    """

    def __init__(self, parameters: tuple[float, ...], areas: tuple, energies: tuple, n: int, scale: float) -> None:
        self.parameters, self.n, self.scale = parameters, n, scale
        self._axes = areas, energies
        self._pairs = product(areas, energies)
        self._drawn = 0
        held = len(areas) > 1 and len(energies) > 1 and (len(energies) + 1) * len(parameters) <= _HELD_FLOATS
        self._held = [_numerators(parameters, energy, n, scale) for energy in energies] if held else None
        self._denominators: list[float] = []

    def __iter__(self) -> GridCurves:
        return self

    def __next__(self) -> SweepResult:
        area, energy = next(self._pairs)
        column = self._drawn % len(self._axes[1])
        self._drawn += 1
        columns = None
        if self._held is not None:
            if not column:  # curves are drawn in grid order, so a new area starts at its first energy
                self._denominators = _denominators(self.parameters, area)
            columns = self._held[column], self._denominators
        values = tuple(_closed_form(self.parameters, area, energy, self.n, self.scale, columns))
        # unchecked: `grid_curves` ran the checks on every curve of the grid, or proved they pass
        return SweepResult._unchecked(_grid_label(area, energy), self.parameters, values, self.n, self.scale, ())

    def peaks(self) -> Iterator[tuple[str, tuple[float, ...], int, float, float, float, Callable[[], list[float]]]]:
        """(label, parameters, n, scale, low, high, values) for each curve not yet drawn, in grid order.

        These are what a table's column widths need of a curve, read from
        its two end alphas by `_closed_form`, which `__next__` runs on every
        alpha. `low` is the larger of the curve's two end values, so it is a
        value of the curve; `values()` evaluates the whole curve. Every value
        of the curve that prints wider than 0.00 is at most `high`, for this
        reason.

        The premise is a grid whose curves pass the checks: alphas strictly
        increasing in (0, 1], finite positive float values (a number of
        another real type acts as its float). Let c(a) = (scale - P(a)) /
        (a * A), with P(a) = (1 - a) * nf * E, be the closed form in exact
        arithmetic and v(a) its float value, fl(num(a) / den(a)) with num(a)
        = fl(scale - fl(w(a) * E)), w(a) = fl(fl(1 - a) * nf) and den(a) =
        fl(a * A); let lo and hi be the end alphas, M = max(v(lo), v(hi)),
        K = nf * E / (lo * A) and u = 2**-53. As c(a) = (scale - nf * E) /
        (a * A) + nf * E / A is monotone in a, every c(a) is at most C =
        max(c(lo), c(hi)).

        Each rounding gives x(1 + d) with |d| <= u while x is normal, and a
        subtraction that underflows is exact. So the three roundings of
        fl(w(a) * E) give P(a)(1 + e) with |e| <= g = 3u / (1 - 3u). Should
        that product underflow, P(a) < 2**-1022 while scale - P(a) >= 1/2,
        so its absolute error is below 2**-1074 * c(a), far inside what
        follows. While den(lo) is normal, every den(a) is, and v(a) = (c(a)
        - e * P(a) / (a * A))(1 + t), where 1 + t = (1 + d4)(1 + d6) / (1 +
        d5) for the roundings d4 of num, d5 of den and d6 of the quotient, so
        |t| <= g; and P(a) / (a * A) <= K. Hence v(a) <= (c(a) + gK)(1 + g).
        At either end c <= v / (1 - g) + gK, so C <= M / (1 - g) + gK, and
        v(a) <= (M / (1 - g) + 2gK)(1 + g) < M + 7u(M + K).

        A value that prints wider than 0.00 is at least 0.005, so M + K is
        then far above underflow, and `high`, M + 16u(M + K) computed in
        floats, falls short of its exact value by less than 2u(M + K): it
        stays above M + 7u(M + K). A value that prints as 0.00 has the
        narrowest cell, which no bound needs to cover. When den(lo) is
        subnormal, or the bound passes the largest float, `high` is the
        largest float, which bounds every value: they are all finite.
        """
        alphas, n, scale = self.parameters, self.n, self.scale
        lo, ends, nf = alphas[0], (alphas[0], alphas[-1]), float(n)
        for area, energy in islice(product(*self._axes), self._drawn, None):
            low = max(_closed_form(ends, area, energy, n, scale))
            den_lo = lo * area
            high = low + 16 * 2.0**-53 * (low + nf * energy / den_lo) if den_lo >= _NORMAL_MIN else FLOAT_MAX
            values = partial(_closed_form, alphas, area, energy, n, scale)
            yield _grid_label(area, energy), alphas, n, scale, low, min(high, FLOAT_MAX), values


def grid_curves(
    alphas: Sequence[float],
    areas: Sequence[float],
    energies: Sequence[float],
    n: int = 1,
) -> GridCurves:
    """One alpha curve per (area, energy) pair of the Cartesian grid, at n' = n, in grid order.

    Every grid is streamed: the iterator is a `GridCurves`, which evaluates
    each curve by `_closed_form` as it is drawn, so a caller that drops each
    curve holds one at a time. Every fault is raised by this call, never by
    that iterator. When `_grid_cleared` proves that no curve can fault, no
    curve is evaluated here. Otherwise each curve is first run through the
    checked types in grid order and dropped, which raises the first fault.
    """
    if not areas or not energies:
        raise InvalidRange("grid axes must be non-empty")
    scale = scale_factor(n, ScaleMode.CONSERVATIVE)
    alphas = tuple(alphas)  # one parameters column, shared by every curve
    areas, energies = tuple(areas), tuple(energies)  # the axes the proof read
    if not _grid_cleared(alphas, areas, energies, n, scale):
        for area, energy in product(areas, energies):  # each curve checked, then dropped
            values = cdc_curve(alphas, AggregateRatios(area, energy, 1.0, 1), n, scale)
            SweepResult(_grid_label(area, energy), alphas, tuple(values), n, scale)
    return GridCurves(alphas, areas, energies, n, scale)


def sweep_grid(
    alphas: Sequence[float],
    areas: Sequence[float],
    energies: Sequence[float],
    n: int = 1,
) -> list[SweepResult]:
    """One alpha curve per (area, energy) pair of the Cartesian grid, at n' = n."""
    return list(grid_curves(alphas, areas, energies, n))


def _require_observations(points: Sequence[tuple[float, float]], n: int) -> None:
    """Reject an (alpha, CDC) observation or a concurrency outside its domain."""
    for alpha, value in points:
        require_alpha(alpha)
        POSITIVE.require(value, "calibration CDC", InvalidRange)
    require_concurrency(n)


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
    _require_observations(points, n)
    if a1 == a2:
        raise SingularFit(f"calibration points share alpha = {a1!r}")
    # Eliminate x between the two linear observations.
    y = (a2 * c2 - a1 * c1) / (n * (a2 - a1))
    x = (a1 * c1 + (1.0 - a1) * n * y) / n
    POSITIVE.require(x, "fit implies 1/A", InfeasibleFit)
    area = 1.0 / x
    energy = y / x
    OPEN_UNIT.require(energy, "fit implies energy ratio", InfeasibleFit)
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
    _require_observations(points, n)
    estimates = [
        value * alpha * agg.area + (1.0 - alpha) * n * agg.energy for alpha, value in points
    ]
    fitted = math.fsum(estimates) / len(estimates)
    AT_LEAST_ONE.require(fitted, "fitted scale", InfeasibleFit)
    return fitted
