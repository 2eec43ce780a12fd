"""Built-in kernel dataset and interchange formats.

Ships the eight-kernel reference set: iso-performance design points for
dedicated ASIC accelerators, normalized against an 8x8 reconfigurable array
at the same technology node (40 nm) and clock (100 MHz). Loaders accept the
same data as CSV or a versioned JSON document and validate every invariant
before handing out typed objects.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Mapping

from .core import KernelProfile, is_real
from .errors import DatasetValidationError, EmptyInput, InvalidFabric, InvalidKernel, ParseError

DATASET_VERSION = 1


def _require_count(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvalidFabric(f"fabric {name} must be an integer >= 1: {value!r}")


def _require_positive(name: str, value: object) -> None:
    if not (is_real(value) and value > 0):
        raise InvalidFabric(f"fabric {name} must be finite and > 0: {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """Processing-element grid of the fabric."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        _require_count("rows", self.rows)
        _require_count("cols", self.cols)


@dataclass(frozen=True)
class FabricSpec:
    """Descriptive fabric metadata attached to a dataset."""

    grid: GridSpec
    memory_banks: int
    memory_kb: float
    clock_mhz: float

    def __post_init__(self) -> None:
        _require_count("memory_banks", self.memory_banks)
        _require_positive("memory_kb", self.memory_kb)
        _require_positive("clock_mhz", self.clock_mhz)


@dataclass(frozen=True)
class KernelDataset:
    """A named kernel collection plus the fabric it was normalized against.

    Dataset-level invariants (unique names, fabric memory at least the
    largest kernel's) are enforced by the loaders and reported by
    ``validate_dataset``; direct construction is left unchecked so partial
    or deliberately broken datasets can be assembled for inspection.
    """

    kernels: tuple[KernelProfile, ...]
    fabric: FabricSpec
    provenance: str = ""
    version: int = DATASET_VERSION

    def names(self) -> tuple[str, ...]:
        return tuple(k.name for k in self.kernels)

    def kernel(self, name: str) -> KernelProfile:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(f"no kernel named {name!r} in dataset")

    def without(self, excluded: Iterable[str]) -> tuple[KernelProfile, ...]:
        dropped = set(excluded)
        unknown = dropped - set(self.names())
        if unknown:
            raise KeyError(f"unknown kernel name(s): {sorted(unknown)}")
        return tuple(k for k in self.kernels if k.name not in dropped)


_BUILTIN_FABRIC = FabricSpec(
    grid=GridSpec(rows=8, cols=8),
    memory_banks=32,
    memory_kb=256.0,
    clock_mhz=100.0,
)

# Utilizations: GeMM and FIR occupy the full array; the four kernels known
# to sit below half and the two unreported ones carry constrained estimates
# chosen so the set's mean lands at 0.64.
_BUILTIN_KERNELS = (
    KernelProfile("GeMM", "machine learning", 0.41, 0.541, 1.0, 108.0),
    KernelProfile("FFT", "signal processing", 0.291, 0.283, 0.66, 1.5, estimated=True),
    KernelProfile("Conv2D", "machine learning", 0.202, 0.410, 0.45, 72.0, estimated=True),
    KernelProfile("Stencil3D", "image processing", 0.502, 0.511, 0.45, 256.0, estimated=True),
    KernelProfile("Viterbi", "speech recognition", 0.128, 0.091, 0.45, 52.0, estimated=True),
    KernelProfile("FIR", "signal processing", 0.396, 0.395, 1.0, 108.0),
    KernelProfile("AESEncrypt", "security", 0.03, 0.04, 0.45, 0.5, estimated=True),
    KernelProfile("KNN", "machine learning", 0.241, 0.479, 0.66, 22.0, estimated=True),
)

_BUILTIN = KernelDataset(
    kernels=_BUILTIN_KERNELS,
    fabric=_BUILTIN_FABRIC,
    provenance="bundled 8-kernel ASIC-vs-CGRA reference set (40 nm, 100 MHz, iso-performance)",
    version=DATASET_VERSION,
)


def builtin_dataset() -> KernelDataset:
    """The bundled reference dataset (immutable, shared instance)."""
    return _BUILTIN


def validate_dataset(ds: KernelDataset) -> list[str]:
    """Dataset-level violations, empty when clean. Never mutates the input."""
    violations: list[str] = []
    seen: set[str] = set()
    for k in ds.kernels:
        if k.name in seen:
            violations.append(f"duplicate kernel name: {k.name!r}")
        seen.add(k.name)
    if not ds.kernels:
        violations.append("dataset contains no kernels")
    else:
        largest = max(ds.kernels, key=lambda k: k.memory_kb)
        if ds.fabric.memory_kb < largest.memory_kb:
            violations.append(
                "fabric memory below largest kernel: "
                f"{ds.fabric.memory_kb:g} KB < {largest.name} {largest.memory_kb:g} KB"
            )
    if ds.version > DATASET_VERSION:
        violations.append(f"unsupported dataset version: {ds.version}")
    return violations


def _read_text(source: str | os.PathLike | IO) -> str:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source.read()
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc}") from None
    return data


def _number(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None


def _flag(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(f"flag must be 0 or 1: {raw!r}")
    return raw == "1"


# The kernel record schema, one row per KernelProfile field: the field's
# column (CSV) or key (JSON), its CSV cell parser and its CSV cell formatter.
# JSON carries typed values, which KernelProfile checks itself.
_SCHEMA = (
    ("name", str, str),
    ("domain", str, str),
    ("area_norm", _number, repr),
    ("energy_norm", _number, repr),
    ("utilization", _number, repr),
    ("memory_kb", _number, repr),
    ("estimated", _flag, lambda flag: "1" if flag else "0"),
)
KERNEL_COLUMNS = tuple(column for column, _, _ in _SCHEMA)


def _csv_records(text: str) -> Iterator[dict[str, object]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise EmptyInput("input document is empty")
    header = [h.strip() for h in header]
    if header != list(KERNEL_COLUMNS):
        raise ParseError(
            f"expected header {','.join(KERNEL_COLUMNS)!r}, got {','.join(header)!r}", line=1
        )
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(_SCHEMA):
            raise ParseError(f"expected {len(_SCHEMA)} fields, got {len(row)}", line=reader.line_num)
        record = {}
        for (column, parse, _), cell in zip(_SCHEMA, row):
            try:
                record[column] = parse(cell.strip())
            except ValueError as exc:
                raise ParseError(str(exc), line=reader.line_num, column=column) from None
        yield record


def _json_document(text: str) -> Mapping:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except (ValueError, RecursionError) as exc:  # over-long integer literals, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, Mapping):
        raise ParseError("top-level JSON value must be an object")
    version = doc.get("version", DATASET_VERSION)
    if not isinstance(version, int):
        raise ParseError("version must be an integer", column="version")
    if version > DATASET_VERSION:
        raise DatasetValidationError([f"unsupported dataset version: {version}"])
    if "kernels" not in doc:
        raise ParseError("missing 'kernels' array", column="kernels")
    if not isinstance(doc["kernels"], list):
        raise ParseError("'kernels' must be an array", column="kernels")
    return doc


def _json_fabric(block: object) -> FabricSpec | None:
    if block is None:
        return None
    if not isinstance(block, Mapping):
        raise ParseError("fabric must be an object", column="fabric")
    try:
        return FabricSpec(
            grid=GridSpec(rows=block["rows"], cols=block["cols"]),
            memory_banks=block["memory_banks"],
            memory_kb=block["memory_kb"],
            clock_mhz=block["clock_mhz"],
        )
    except KeyError as exc:
        raise ParseError(f"malformed fabric block: missing {exc}", column="fabric") from None


def load_dataset(
    source: str | os.PathLike | IO,
    format: str = "json",
    *,
    fabric: FabricSpec | None = None,
    provenance: str | None = None,
) -> KernelDataset:
    """Parse and validate a kernel dataset.

    CSV documents carry kernels only; ``fabric`` and ``provenance`` fill in
    the rest (defaulting to the bundled fabric). JSON documents carry
    everything, and the keyword arguments override.
    """
    text = _read_text(source)
    if format == "csv":
        doc: Mapping = {}
        records: Iterable = _csv_records(text)
    elif format == "json":
        doc = _json_document(text)
        records = doc["kernels"]
    else:
        raise ValueError(f"unknown dataset format: {format!r}")
    loaded_fabric = _json_fabric(doc.get("fabric"))

    kernels = []
    violations = []
    try:
        for record in records:
            try:
                kernels.append(KernelProfile(**record))
            except (TypeError, InvalidKernel) as exc:
                violations.append(str(exc))
    except csv.Error as exc:  # e.g. a field longer than the csv module's limit
        raise ParseError(str(exc)) from None
    if not kernels and not violations:
        raise EmptyInput("input document contains no records")
    ds = KernelDataset(
        kernels=tuple(kernels),
        fabric=fabric or loaded_fabric or _BUILTIN_FABRIC,
        provenance=provenance if provenance is not None else (doc.get("provenance") or ""),
        version=doc.get("version", DATASET_VERSION),
    )
    violations += validate_dataset(ds)
    if violations:
        raise DatasetValidationError(violations)
    return ds


def dump_dataset(ds: KernelDataset, format: str = "json") -> str:
    """Serialize a dataset; ``load_dataset`` reads the result back unchanged."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(KERNEL_COLUMNS)
        for k in ds.kernels:
            writer.writerow([fmt(getattr(k, column)) for column, _, fmt in _SCHEMA])
        return buf.getvalue()
    if format == "json":
        doc = {
            "version": ds.version,
            "provenance": ds.provenance,
            "fabric": {
                "rows": ds.fabric.grid.rows,
                "cols": ds.fabric.grid.cols,
                "memory_banks": ds.fabric.memory_banks,
                "memory_kb": ds.fabric.memory_kb,
                "clock_mhz": ds.fabric.clock_mhz,
            },
            "kernels": [{column: getattr(k, column) for column in KERNEL_COLUMNS} for k in ds.kernels],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown dataset format: {format!r}")

