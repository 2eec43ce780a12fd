"""Domain types and the two footprint functions.

Everything is expressed in units of one unscaled fabric: a kernel's
``area_norm``/``energy_norm`` are the dedicated accelerator's chip area and
energy divided by the fabric's, so the fabric itself scores 1.0 on both axes.
The combined footprint weighs the embodied share (chip area proxy) against
the operational share (energy proxy) with ``alpha_e2o`` in [0, 1].
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence, Set

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

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .dataset import KernelDataset


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


class FrozenRecordError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen record."""


class Record:
    """A frozen record. Its fields are its base record's, if any, then its
    class's annotations, in order; a class attribute is that field's
    default. Unless the class defines its own, ``__init__`` is built from one
    template when the class is created and ends with the class's
    ``__post_init__`` check, if it has one. Records compare and hash by
    field, only with records of their own class."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = cls._fields + tuple(cls.__annotations__)
        if cls.__annotations__ and "__init__" not in vars(cls):
            params = ", ".join(f"{f}=cls.{f}" if hasattr(cls, f) else f for f in fields)
            body = "".join(f"; d[{f!r}] = {f}" for f in fields)
            check = "; self.__post_init__()" if hasattr(cls, "__post_init__") else ""
            exec(f"def __init__(self, {params}):\n    d = self.__dict__{body}{check}", namespace := {"cls": cls})
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise FrozenRecordError(f"{type(self).__qualname__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Interval(Record):
    """One numeric domain: the values of `types`, never a bool, from `low` to `high`, each end
    included when closed. `text` is the interval as messages print it; its "inf" is the
    greatest float, so only finite values lie in such an interval."""

    low: float
    high: float
    text: str
    low_closed: bool = False
    high_closed: bool = True
    types: tuple[type, ...] = (int, float)

    def __contains__(self, value: object) -> bool:
        """Whether `value` compares between the ends, whatever its type."""
        low, high = self.low, self.high
        return (low <= value if self.low_closed else low < value) and (value <= high if self.high_closed else value < high)

    def __call__(self, value: object) -> bool:
        """Whether `value` lies in the domain: one of `types`, not a bool, between the ends."""
        return not isinstance(value, bool) and isinstance(value, self.types) and value in self

    def require(self, value: object, what: str, error: type[Exception]) -> None:
        """Raise `error`, naming `what` and `value`, unless `value` lies in the interval."""
        if not self(value):
            raise error(f"{what} out of {self.text}: {value!r}")


# Concurrency meets floats in n' and in the threshold; above 2**53 a float
# no longer holds every integer, so results would silently round.
MAX_CONCURRENCY = 2**53

# The model's numeric domains, one row each; every interval test reads one.
FLOAT_MAX = sys.float_info.max
REAL = Interval(-FLOAT_MAX, FLOAT_MAX, "(-inf, inf)", low_closed=True)
POSITIVE = Interval(0.0, FLOAT_MAX, "(0, inf)")
NON_NEGATIVE = Interval(0.0, FLOAT_MAX, "[0, inf)", low_closed=True)
AT_LEAST_ONE = Interval(1.0, FLOAT_MAX, "[1, inf)", low_closed=True)
UNIT = Interval(0.0, 1.0, "(0, 1]")
CLOSED_UNIT = Interval(0.0, 1.0, "[0, 1]", low_closed=True)
OPEN_UNIT = Interval(0.0, 1.0, "(0, 1)", high_closed=False)
CONCURRENCY = Interval(1, MAX_CONCURRENCY, "[1, 2**53]", low_closed=True, types=(int,))

# The domain of each numeric KernelProfile field. `KernelProfile` checks one
# value at a time and the dataset loader whole columns, both against these rows.
KERNEL_BOUNDS: dict[str, Interval] = {"area_norm": POSITIVE, "energy_norm": POSITIVE, "utilization": UNIT, "memory_kb": NON_NEGATIVE}


def numbers_within(values: Sequence, within: Interval, types: Set[type] = frozenset({int, float})) -> bool:
    """Whether every value has one of `types` and lies in `within`, in C: with no NaN,
    which makes the sum NaN, the least and the greatest value decide. False may also
    mean an int too large for a float; a caller naming the bad value tests each."""
    if not set(map(type, values)) <= types:
        return False
    try:
        total = sum(values)
    except OverflowError:  # an int too large for a float, which no interval admits
        return False
    return total == total and (not values or within(min(values)) and within(max(values)))


def number_text(value: float) -> str:
    """A number's text in a CSV or JSON file: the repr of its base type, so a float or
    int subclass, such as numpy's float64, is written as a plain number."""
    return (float.__repr__ if isinstance(value, float) else int.__repr__)(value)


def require_alpha(alpha: float) -> None:
    """Reject an embodied weight outside (0, 1]; alpha_e2o = 0 is the model's pole."""
    if alpha == 0:
        raise AlphaPole("alpha_e2o = 0 is a pole: the threshold diverges")
    UNIT.require(alpha, "alpha_e2o", InvalidAlpha)


def require_concurrency(n: int) -> None:
    """Reject a concurrency level that is not an int in [1, 2**53]."""
    CONCURRENCY.require(n, "concurrency", InvalidConcurrency)


def require_scale(scale: float) -> None:
    """Reject a fabric scaling factor below 1 or not finite."""
    AT_LEAST_ONE.require(scale, "fabric scale", InvalidScale)


class KernelProfile(Record):
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
        for field, interval in KERNEL_BOUNDS.items():
            value = getattr(self, field)
            if not interval(value):  # build the message only for a fault
                interval.require(value, f"kernel {self.name!r}: {field}", InvalidKernel)
        if not isinstance(self.estimated, bool):
            raise InvalidKernel(f"kernel {self.name!r}: estimated must be boolean: {self.estimated!r}")


class AggregateRatios(Record):
    """Scenario-level mean relative area, energy, and utilization."""

    area: float
    energy: float
    utilization: float
    kernel_count: int

    def __post_init__(self) -> None:
        AT_LEAST_ONE.require(self.kernel_count, "kernel_count", InvalidAggregates)
        POSITIVE.require(self.area, "aggregate area", InvalidAggregates)
        POSITIVE.require(self.energy, "aggregate energy", InvalidAggregates)
        UNIT.require(self.utilization, "aggregate utilization", InvalidAggregates)


class FootprintWeights(Record):
    """Embodied-to-operational weight: the embodied share of the footprint."""

    alpha_e2o: float

    def __post_init__(self) -> None:
        CLOSED_UNIT.require(self.alpha_e2o, "alpha_e2o", InvalidAlpha)


class DeviceBreakdown(Record):
    """Lifecycle footprint percentages for one device, summing to 100."""

    production_pct: float
    transport_pct: float
    use_pct: float
    eol_pct: float

    def __post_init__(self) -> None:
        parts = (self.production_pct, self.transport_pct, self.use_pct, self.eol_pct)
        if not all(map(NON_NEGATIVE, parts)):
            raise InvalidBreakdown(
                f"breakdown percentages must be finite and >= 0: {parts}"
            )
        total = sum(parts)
        if abs(total - 100.0) > BREAKDOWN_SUM_TOLERANCE:
            raise InvalidBreakdown(
                f"breakdown percentages sum to {total}, expected 100"
                f" +/- {BREAKDOWN_SUM_TOLERANCE}"
            )


def _fixed(x: float) -> int:
    """`x` in units of 2**-1074, the least subnormal: an exact integer for every finite float."""
    p, q = x.as_integer_ratio()  # q is a power of two, at most 2**1074
    return p << (1075 - q.bit_length())


def _exact_mean(values: Sequence[float]) -> float:
    """The correctly rounded mean of ints and floats, in integer arithmetic:
    each value is shifted onto the finest denominator among them, a power of two."""
    ratios = [value.as_integer_ratio() for value in values]
    bits = max(q for _, q in ratios).bit_length()
    total = sum(p << (bits - q.bit_length()) for p, q in ratios)
    n = len(ratios)
    if bits == 1 and set(map(type, values)) <= {int} and total % n == 0:
        return total // n  # as `statistics.mean`, an int when every value is one and the mean whole
    return total / (n << (bits - 1))  # int / int rounds correctly


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean of a non-empty sequence of finite ints and floats, correctly rounded.

    It gives the value and type `statistics.mean` gives. For floats, `math.fsum`
    rounds the exact sum S to s, and a second `fsum` rounds the residual S - s
    to r. When r is 0, s / n is the mean. Otherwise S lies within an ulp of
    r around s + r, and when both ends of that interval, divided by n, round
    to the same float in integer arithmetic, so does S / n. Any other list,
    and one whose `fsum` overflows, takes the exact integer mean.
    """
    n = len(values)
    if set(map(type, values)) == {float}:
        try:
            s = math.fsum(values)
        except OverflowError:  # the float sum overflows, though the mean cannot
            return _exact_mean(values)
        r = math.fsum([*values, -s])
        if not r:
            return s / n if s else 0.0  # fsum may sign an exact zero; the exact mean is +0
        # fsum rounds S - s to within half an ulp; a whole ulp also covers a double-rounding build
        centre, margin, scale = _fixed(s) + _fixed(r), _fixed(math.ulp(r)), n << 1074
        low = (centre - margin) / scale
        if low == (centre + margin) / scale:  # |r| < |s|, so both ends share the sign of S
            return low
    return _exact_mean(values)


def _column(kernels: KernelDataset | Sequence[KernelProfile], field: str) -> Sequence:
    """One field's values over a kernel set: a dataset's own column, or each profile's attribute."""
    column = getattr(kernels, "column", None)
    return column(field) if column is not None else [getattr(k, field) for k in kernels]


def aggregate(kernels: KernelDataset | Sequence[KernelProfile]) -> AggregateRatios:
    """Arithmetic mean relative area, energy, and utilization over a kernel set.

    A dataset is read column by column; a sequence of profiles field by field.
    """
    if not kernels:
        raise EmptyKernelSet("cannot aggregate an empty kernel set")
    # exact mean: identical inputs aggregate to themselves, bit for bit
    return AggregateRatios(
        area=mean(_column(kernels, "area_norm")),
        energy=mean(_column(kernels, "energy_norm")),
        utilization=mean(_column(kernels, "utilization")),
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
