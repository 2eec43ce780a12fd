"""Exception types raised by the model and the dataset loaders."""

from __future__ import annotations


class ModelError(ValueError):
    """Base class for violations of the footprint model's domain."""


class InvalidValue(ModelError):
    """One input value lies outside its domain; the CLI reports a usage error."""


class InvalidAlpha(InvalidValue):
    """The embodied weight alpha_e2o lies outside its domain."""


class AlphaPole(InvalidAlpha):
    """The critical DSA count is undefined at alpha_e2o = 0."""


class InvalidConcurrency(InvalidValue):
    """Concurrency below 1 or not a finite number."""


class ConcurrencyExceedsPopulation(InvalidValue):
    """More concurrently active DSAs than the chip integrates, or a DSA population that is no count in [1, 2**53]."""


class InvalidScale(InvalidValue):
    """Fabric scaling factor below 1 (the fabric must fit one kernel) or not finite."""


class InvalidAggregates(InvalidValue):
    """Mean area, energy, or utilization outside its domain."""


class InvalidRange(InvalidValue):
    """A sweep range is empty, inverted, or outside the parameter domain."""


class UnknownDeviceClass(InvalidValue):
    """No embodied-share band is defined for the requested device class."""


class UnknownScenario(InvalidValue):
    """No built-in scenario with the requested identifier."""


class InvalidKernel(ModelError):
    """A kernel profile violates one of its invariants."""


class EmptyKernelSet(ModelError):
    """An aggregation was requested over zero kernels."""


class InvalidBreakdown(ModelError):
    """Lifecycle percentages are negative, not finite, or do not sum to 100."""


class DegenerateModel(ModelError):
    """No finite threshold: operational costs alone exceed the fabric budget, or it overflows."""


class SingularFit(ModelError):
    """Calibration points do not determine a unique solution."""


class InfeasibleFit(ModelError):
    """Calibration solved, but the implied aggregates are out of range."""


class NoFabricWorkload(ModelError):
    """Every concurrent slot is retained as a dedicated DSA; nothing runs on the fabric."""


class DatasetError(ValueError):
    """Base class for dataset ingestion failures."""


class ParseError(DatasetError):
    """Malformed input document.

    Carries ``line`` (1-based, 0 when unknown) and ``column`` (field name or
    empty) so callers can point at the offending cell.
    """

    def __init__(self, message: str, *, line: int = 0, column: str = ""):
        self.line = line
        self.column = column
        where = []
        if line:
            where.append(f"line {line}")
        if column:
            where.append(f"column {column!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")


class DatasetValidationError(DatasetError):
    """Input parsed, but one or more records violate an invariant."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class InvalidFabric(DatasetError):
    """Fabric metadata violates one of its invariants."""


class EmptyInput(DatasetError):
    """The input document contains no records."""
