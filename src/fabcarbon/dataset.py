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
import re
from collections.abc import Callable, Iterable, Iterator, Mapping
from functools import cached_property
from itertools import compress, islice, repeat
from operator import attrgetter, itemgetter

from .core import KERNEL_BOUNDS, KernelProfile, Record, is_real
from .errors import DatasetValidationError, EmptyInput, InvalidFabric, InvalidKernel, ParseError

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import IO

DATASET_VERSION = 1


def _require_count(name: str, value: object) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InvalidFabric(f"fabric {name} must be an integer >= 1: {value!r}")


def _require_positive(name: str, value: object) -> None:
    if not (is_real(value) and value > 0):
        raise InvalidFabric(f"fabric {name} must be finite and > 0: {value!r}")


class FabricSpec(Record):
    """Descriptive fabric metadata attached to a dataset: its processing-element grid and memory."""

    rows: int
    cols: int
    memory_banks: int
    memory_kb: float
    clock_mhz: float

    def __post_init__(self) -> None:
        _require_count("rows", self.rows)
        _require_count("cols", self.cols)
        _require_count("memory_banks", self.memory_banks)
        _require_positive("memory_kb", self.memory_kb)
        _require_positive("clock_mhz", self.clock_mhz)


# The JSON `fabric` object's keys, in the order dumps write them.
_FABRIC_FIELDS = FabricSpec._fields


_FLAGS = {"0": False, "1": True}


def _flag(cell: str) -> bool:
    return _FLAGS[cell.strip()]


def _dump_number(value: float) -> str:
    """A number's CSV cell: the repr of its base type, so a float or int subclass reads back as a number."""
    return (float.__repr__ if isinstance(value, float) else int.__repr__)(value)


# The kernel record schema, one row per KernelProfile field: the field's
# column (CSV) or key (JSON), its CSV cell parser, the fault reported for a
# cell the parser refuses (ValueError or KeyError) and its CSV cell formatter.
# JSON carries typed values, which KernelProfile checks itself. The per-record
# path parses stripped cells, the column path raw ones: `float` refuses the
# separators U+001C-U+001F around a number, so such a column falls back.
_SCHEMA = (
    ("name", str.strip, "", str),
    ("domain", str.strip, "", str),
    ("area_norm", float, "not a number", _dump_number),
    ("energy_norm", float, "not a number", _dump_number),
    ("utilization", float, "not a number", _dump_number),
    ("memory_kb", float, "not a number", _dump_number),
    ("estimated", _flag, "flag must be 0 or 1", lambda flag: "1" if flag else "0"),
)
KERNEL_COLUMNS = tuple(column for column, _, _, _ in _SCHEMA)


class KernelDataset(Record):
    """A named kernel collection plus the fabric it was normalized against.

    The kernels are held as ``columns``, one tuple per `KERNEL_COLUMNS`
    field, and ``kernels`` builds their `KernelProfile`s on first access.
    Dataset-level invariants (unique names, fabric memory at least the
    largest kernel's) are enforced by the loaders and reported by
    ``validate_dataset``; direct construction is left unchecked so partial
    or deliberately broken datasets can be assembled for inspection.
    """

    columns: tuple[tuple, ...]
    fabric: FabricSpec
    provenance: str = ""
    version: int = DATASET_VERSION

    def __init__(
        self,
        kernels: Iterable[KernelProfile],
        fabric: FabricSpec,
        provenance: str = "",
        version: int = DATASET_VERSION,
    ) -> None:
        kernels = tuple(kernels)
        columns = tuple(tuple(map(attrgetter(column), kernels)) for column in KERNEL_COLUMNS)
        self.__dict__.update(columns=columns, fabric=fabric, provenance=provenance, version=version)

    @classmethod
    def _from_columns(
        cls, columns: tuple[tuple, ...], fabric: FabricSpec, provenance: str, version: int
    ) -> KernelDataset:
        """A dataset over columns whose every row is a valid `KernelProfile`."""
        ds = cls.__new__(cls)
        ds.__dict__.update(columns=columns, fabric=fabric, provenance=provenance, version=version)
        return ds

    @cached_property
    def kernels(self) -> tuple[KernelProfile, ...]:
        return tuple(map(KernelProfile, *self.columns))

    def __len__(self) -> int:
        return len(self.columns[0])

    def column(self, field: str) -> tuple:
        """One field's values, kernel by kernel."""
        return self.columns[KERNEL_COLUMNS.index(field)]

    def names(self) -> tuple[str, ...]:
        return self.column("name")

    def kernel(self, name: str) -> KernelProfile:
        """The named kernel's profile, built from its row alone."""
        try:
            position = self.names().index(name)
        except ValueError:
            raise KeyError(f"no kernel named {name!r} in dataset") from None
        return KernelProfile(*(column[position] for column in self.columns))

    def compress(self, selectors: Iterable[object]) -> KernelDataset:
        """The dataset of the kernels whose selector is true, in order, on the same fabric."""
        selectors = tuple(selectors)
        columns = tuple(tuple(compress(column, selectors)) for column in self.columns)
        return KernelDataset._from_columns(columns, self.fabric, self.provenance, self.version)

    def without(self, excluded: Iterable[str]) -> KernelDataset:
        """The dataset of every kernel but the ``excluded`` names, each of which it must hold."""
        dropped = set(excluded)
        names = self.names()
        unknown = dropped.difference(names)
        if unknown:
            raise KeyError(f"unknown kernel name(s): {sorted(unknown)}")
        return self.compress(name not in dropped for name in names)


_BUILTIN_FABRIC = FabricSpec(rows=8, cols=8, memory_banks=32, memory_kb=256.0, clock_mhz=100.0)

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
    names, memory = ds.names(), ds.column("memory_kb")
    if len(set(names)) < len(names):
        seen: set[str] = set()
        for name in names:
            if name in seen:
                violations.append(f"duplicate kernel name: {name!r}")
            seen.add(name)
    if not names:
        violations.append("dataset contains no kernels")
    else:
        largest = memory.index(max(memory))  # the first kernel holding the most memory
        if ds.fabric.memory_kb < memory[largest]:
            violations.append(
                "fabric memory below largest kernel: "
                f"{ds.fabric.memory_kb:g} KB < {names[largest]} {memory[largest]:g} KB"
            )
    if not 1 <= ds.version <= DATASET_VERSION:
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


# CSV rows parsed into columns at a time: each slice's cell strings are freed
# before the next slice is read.
_SLICE_ROWS = 4096


def _csv_body(text: str) -> Iterator[list[str]]:
    """A csv reader past the header row, which must name `KERNEL_COLUMNS`."""
    # the lines, each with its "\n", that io.StringIO(text) gives, without its copy of the text
    reader = csv.reader(map(re.Match.group, re.finditer(r".*\n|.+", text)))
    header = next(reader, None)
    if header is None:
        raise EmptyInput("input document is empty")
    header = [h.strip() for h in header]
    if header != list(KERNEL_COLUMNS):
        raise ParseError(
            f"expected header {','.join(KERNEL_COLUMNS)!r}, got {','.join(header)!r}", line=1
        )
    return reader


def _csv_records(text: str) -> Iterator[dict[str, object]]:
    reader = _csv_body(text)
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(_SCHEMA):
            raise ParseError(f"expected {len(_SCHEMA)} fields, got {len(row)}", line=reader.line_num)
        record = {}
        for (column, parse, fault, _), cell in zip(_SCHEMA, row):
            cell = cell.strip()
            try:
                record[column] = parse(cell)
            except (ValueError, KeyError):
                raise ParseError(f"{fault}: {cell!r}", line=reader.line_num, column=column) from None
        yield record


def _csv_columns(text: str) -> tuple[tuple, ...] | None:
    """Each field's column, or None when the header, a row or a cell would not parse."""
    columns: tuple[list, ...] = tuple([] for _ in _SCHEMA)
    try:
        reader = _csv_body(text)
        while rows := list(islice(reader, _SLICE_ROWS)):
            if set(map(len, rows)) != {len(_SCHEMA)}:  # a blank row or a wrong field count
                return None
            for column, (_, parse, _, _), cells in zip(columns, _SCHEMA, zip(*rows)):
                column.extend(map(parse, cells))
    except (csv.Error, ValueError, KeyError):  # ParseError and EmptyInput are ValueErrors
        return None
    return tuple(map(tuple, columns))


# The keys a JSON document may hold.
_DOCUMENT_KEYS = ("version", "provenance", "fabric", "kernels")


def _json_document(text: str) -> Mapping:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except (ValueError, RecursionError) as exc:  # over-long integer literals, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, Mapping):
        raise ParseError("top-level JSON value must be an object")
    for key in doc:
        if key not in _DOCUMENT_KEYS:
            raise ParseError(f"unknown key {key!r}")
    version = doc.get("version", DATASET_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise ParseError("version must be an integer", column="version")
    if not isinstance(doc.get("provenance"), (str, type(None))):
        raise ParseError("provenance must be a string", column="provenance")
    if not 1 <= version <= DATASET_VERSION:
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
    for key in block:
        if key not in _FABRIC_FIELDS:
            raise ParseError(f"malformed fabric block: unknown key {key!r}", column="fabric")
    try:
        return FabricSpec(**{key: block[key] for key in _FABRIC_FIELDS})
    except KeyError as exc:
        raise ParseError(f"malformed fabric block: missing {exc}", column="fabric") from None


def _record_fault(record: object) -> str:
    """Why a JSON kernel record does not fit the keyword arguments of `KernelProfile`."""
    if not isinstance(record, Mapping):
        return "not an object"
    unknown = [key for key in record if key not in KERNEL_COLUMNS]
    missing = [column for column in KERNEL_COLUMNS if column not in record]  # `estimated`, optional, is last
    return f"unknown key {unknown[0]!r}" if unknown else f"missing key {missing[0]!r}"


_KERNEL_KEYS = frozenset(KERNEL_COLUMNS)


def _json_columns(records: list) -> tuple[tuple, ...] | None:
    """Each field's column, or None when a record is not an object holding
    every key but the optional `estimated` and no other."""
    if set(map(type, records)) != {dict} or not all(map(_KERNEL_KEYS.issuperset, records)):
        return None
    try:
        columns = [tuple(map(itemgetter(column), records)) for column in KERNEL_COLUMNS[:-1]]
    except KeyError:
        return None
    return (*columns, tuple(map(dict.get, records, repeat("estimated"), repeat(False))))


def _columns_valid(columns: tuple[tuple, ...]) -> bool:
    """Whether `columns` hold at least one row and a `KernelProfile` made of
    each row passes its checks: names are non-empty strings, domains
    strings, flags bools, and each number passes its `KERNEL_BOUNDS` test."""
    names, domains, *_, flags = columns
    return (
        bool(names)
        and all(names)
        and set(map(type, names)) <= {str}
        and set(map(type, domains)) <= {str}
        and set(map(type, flags)) <= {bool}
        and all(
            _numbers_within(values, KERNEL_BOUNDS[field][0])
            for field, values in zip(KERNEL_COLUMNS, columns)
            if field in KERNEL_BOUNDS
        )
    )


def _numbers_within(values: tuple, within: Callable[[object], bool]) -> bool:
    """Whether every value is an int or float passing `within`, an interval test.

    Without a NaN the values are totally ordered, so the least and the
    greatest decide; a NaN would make their sum NaN.
    """
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        total = sum(values)
    except OverflowError:  # an int too large for a float, which no interval admits
        return False
    return total == total and within(min(values)) and within(max(values))


def _record_kernels(records: Iterable) -> tuple[list[KernelProfile], list[str]]:
    """Build a `KernelProfile` from each record, collecting what each violates."""
    kernels = []
    violations = []
    try:
        for position, record in enumerate(records, 1):
            try:
                kernels.append(KernelProfile(**record))
            except InvalidKernel as exc:
                violations.append(str(exc))
            except TypeError:  # only a JSON record can lack a column or carry another key
                violations.append(f"kernel record {position}: {_record_fault(record)}")
    except csv.Error as exc:  # e.g. a field longer than the csv module's limit
        raise ParseError(str(exc)) from None
    if not kernels and not violations:
        raise EmptyInput("input document contains no records")
    return kernels, violations


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

    Each field is read into one column (CSV a slice of rows at a time), and
    each column is checked whole against the checks `KernelProfile` makes,
    so no `KernelProfile` is built until the dataset's ``kernels`` are read.
    When a column fails its check, or a row or record is malformed, the
    document is read again record by record, building each `KernelProfile`,
    and every violation is reported with the message, line and column that
    record's own checks give.
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
    fabric = fabric or loaded_fabric or _BUILTIN_FABRIC
    provenance = provenance if provenance is not None else (doc.get("provenance") or "")
    version = doc.get("version", DATASET_VERSION)

    columns = _csv_columns(text) if format == "csv" else _json_columns(records)
    if columns is not None and _columns_valid(columns):
        ds = KernelDataset._from_columns(columns, fabric, provenance, version)
        violations = []
    else:
        kernels, violations = _record_kernels(records)
        ds = KernelDataset(kernels, fabric, provenance, version)
    if ds:  # else every record already has its violation
        violations += validate_dataset(ds)
    if violations:
        raise DatasetValidationError(violations)
    return ds


def dump_dataset(ds: KernelDataset, format: str = "json") -> str:
    """Serialize a dataset; ``load_dataset`` reads the result back unchanged,
    except blanks around a name or domain, which the CSV loader drops."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        # the writer quotes a cell holding the terminator "\n", but a "\r" needs quotes too
        quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(KERNEL_COLUMNS)
        for row in zip(*ds.columns):
            name, domain = row[:2]
            cells = [fmt(value) for (_, _, _, fmt), value in zip(_SCHEMA, row)]
            (quoted if "\r" in name or "\r" in domain else writer).writerow(cells)
        return buf.getvalue()
    if format == "json":
        doc = {
            "version": ds.version,
            "provenance": ds.provenance,
            "fabric": {key: getattr(ds.fabric, key) for key in _FABRIC_FIELDS},
            "kernels": [dict(zip(KERNEL_COLUMNS, row)) for row in zip(*ds.columns)],
        }
        return json.dumps(doc, indent=2) + "\n"
    raise ValueError(f"unknown dataset format: {format!r}")

