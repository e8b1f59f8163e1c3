"""KPI identities, time-series datasets, normalization, and the JSON codec.

A KPI is a metric measured on a node and is keyed by the text form
``metric@node``.  Datasets are dense matrices: one row per timestamp, one
column per KPI, values finite, timestamps strictly increasing.

:func:`to_json` and :func:`from_json` are the one codec, driven by type hints,
between dataclasses (reports, specs, the config, the model file) and JSON.  A
:class:`KpiId` is its ``metric@node`` string, a :data:`Vector` or
:data:`Matrix` is a nested array of numbers, and a field is keyed by its
``"json"`` metadata entry if it has one, else by its name.  Reading needs
every key, refuses unknown ones and checks types exactly: an integer takes no
float, a number no boolean, and an array only finite numbers in exactly its
number of dimensions.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import os
import types
import typing
import warnings
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import (
    DataError,
    DimensionMismatch,
    IoError,
    MalformedKpiId,
    MissingValue,
    SchemaError,
)

TIMESTAMP_COLUMN = "timestamp"
MISSING_POLICIES = ("forward_fill", "reject")

# float64 arrays, read by :func:`from_json` with exactly this many dimensions.
Vector = typing.Annotated[np.ndarray, 1]
Matrix = typing.Annotated[np.ndarray, 2]


@dataclass(frozen=True, order=True)
class KpiId:
    """Identity of one KPI: a metric name on a node."""

    metric: str
    node: str

    def __post_init__(self) -> None:
        for part, label in ((self.metric, "metric"), (self.node, "node")):
            if not part:
                raise MalformedKpiId(f"empty {label} in KPI id")
            if "@" in part:
                raise MalformedKpiId(f"'@' not allowed inside {label}: {part!r}")

    def __str__(self) -> str:
        return f"{self.metric}@{self.node}"


def parse_kpi_id(text: str) -> KpiId:
    """Parse ``metric@node`` into a :class:`KpiId`.

    Exactly one ``@`` must be present and both sides must be non-empty.
    """
    if text.count("@") != 1:
        raise MalformedKpiId(f"expected exactly one '@' in KPI id: {text!r}")
    metric, node = text.split("@")
    return KpiId(metric=metric, node=node)


@dataclass(frozen=True)
class KpiDescriptor:
    """Human-readable description of a KPI, used to phrase questions."""

    kpi: KpiId
    description: str
    unit: str | None = None


@dataclass(eq=False)
class TimeSeriesDataset:
    """Dense multivariate KPI series.

    ``values`` has shape (T, n) aligned with ``kpis``; ``timestamps`` are
    strictly increasing integers (sample indices or epoch seconds).  Treat
    instances as immutable; operations return new datasets.
    """

    timestamps: np.ndarray
    kpis: list[KpiId]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.kpis) < 1:
            raise SchemaError("dataset needs at least one KPI column")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.kpis):
            raise DimensionMismatch(
                f"values shape {self.values.shape} does not match {len(self.kpis)} KPI columns"
            )
        if self.timestamps.shape[0] != self.values.shape[0]:
            raise DimensionMismatch("one timestamp per row required")
        if np.any(self.timestamps[1:] <= self.timestamps[:-1]):  # np.diff could overflow
            raise SchemaError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise SchemaError("values must be finite")

    @property
    def n_kpis(self) -> int:
        return len(self.kpis)

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])


def _parse_timestamp(cell: str, path: str | os.PathLike[str], row_no: int) -> int:
    text = cell.strip()
    if not text:
        raise MissingValue(f"{path}: row {row_no}: empty timestamp cell")
    try:
        value = int(text)
    except ValueError as exc:
        raise SchemaError(f"{path}: row {row_no}: timestamp {text!r} is not an integer") from exc
    if not -(2**63) <= value < 2**63:
        raise SchemaError(f"{path}: row {row_no}: timestamp {text!r} does not fit in 64 bits")
    return value


def read_utf8(path: str | os.PathLike[str], what: str) -> str:
    """The text of a UTF-8 file; undecodable bytes are a :class:`SchemaError` naming the file and row."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read {what}: {path}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row_no = data.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"{path}: row {row_no} is not valid UTF-8") from exc


def _csv_reader(text: str, path: str | os.PathLike[str]) -> typing.Iterator[list[str]]:
    """Rows of the CSV ``text`` read from ``path``; a csv error names its row."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"{path}: row {reader.line_num}: {exc}") from exc


def _fast_rows(text: str, n_kpis: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The timestamps and values under the header line, parsed by numpy's C reader in one call.

    ``None`` leaves the rows to the per-cell loop of :func:`load_dataset`, which
    words every error: text that is not ASCII (numpy misreads some non-ASCII
    digits) or holds a quote or a carriage return, no rows, a cell numpy refuses,
    a value that is not finite, or timestamps that do not strictly increase.
    """
    body = text.partition("\n")[2]
    if not text.isascii() or '"' in text or "\r" in text or not body.strip():
        return None
    row = np.dtype([("timestamp", np.int64), ("values", np.float64, (n_kpis,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # some numpy releases read "12.0" as 12, with a warning
            table = np.loadtxt(io.StringIO(body), dtype=row, delimiter=",", comments=None, quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None
    timestamps, values = table["timestamp"].copy(), np.ascontiguousarray(table["values"])
    if not np.isfinite(values).all() or not (timestamps[1:] > timestamps[:-1]).all():
        return None
    return timestamps, values


def _kpi_cell(cell: str, path: str | os.PathLike[str], row_no: int) -> KpiId:
    """The KPI id in a CSV cell; a malformed one names the file and row."""
    try:
        return parse_kpi_id(cell.strip())
    except MalformedKpiId as exc:
        raise MalformedKpiId(f"{path}: row {row_no}: {exc}") from exc


def load_dataset(path: str | os.PathLike[str], missing_policy: str = "forward_fill") -> TimeSeriesDataset:
    """Load a KPI dataset from CSV.

    Layout: header ``timestamp,<metric@node>,...``, one row per sample.
    ``missing_policy`` controls empty value cells: ``forward_fill`` copies the
    previous row's value for that column (an empty cell in the first row is
    unrecoverable), ``reject`` refuses any empty cell.
    """
    if missing_policy not in MISSING_POLICIES:
        raise ValueError(f"unknown missing_policy: {missing_policy!r}")
    content = read_utf8(path, "dataset")
    reader = _csv_reader(content, path)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file") from None
    if not header or header[0].strip() != TIMESTAMP_COLUMN:
        raise SchemaError(f"{path}: row 1: first header cell must be {TIMESTAMP_COLUMN!r}")
    kpis = [_kpi_cell(cell, path, 1) for cell in header[1:]]
    if not kpis:
        raise SchemaError(f"{path}: row 1: no KPI columns")
    if len(set(kpis)) != len(kpis):
        raise SchemaError(f"{path}: row 1: duplicate KPI columns")
    fast = _fast_rows(content, len(kpis))
    if fast is not None:
        return TimeSeriesDataset(timestamps=fast[0], kpis=kpis, values=fast[1])

    timestamps: list[int] = []
    rows: list[list[float]] = []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(kpis) + 1:
            raise SchemaError(f"{path}: row {row_no} has {len(row)} cells, expected {len(kpis) + 1}")
        timestamp = _parse_timestamp(row[0], path, row_no)
        if timestamps and timestamp <= timestamps[-1]:
            raise SchemaError(f"{path}: row {row_no}: timestamp {timestamp} is not after {timestamps[-1]}")
        timestamps.append(timestamp)
        parsed: list[float] = []
        for col, cell in enumerate(row[1:]):
            text = cell.strip()
            if not text:
                if missing_policy == "reject" or not rows:
                    raise MissingValue(f"{path}: row {row_no} column {kpis[col]} is empty")
                parsed.append(rows[-1][col])
                continue
            try:
                value = float(text)
            except ValueError as exc:
                raise SchemaError(f"{path}: row {row_no} column {kpis[col]}: {text!r} is not a number") from exc
            if not math.isfinite(value):
                raise SchemaError(f"{path}: row {row_no} column {kpis[col]}: non-finite value")
            parsed.append(value)
        rows.append(parsed)

    values = np.asarray(rows, dtype=np.float64) if rows else np.empty((0, len(kpis)))
    return TimeSeriesDataset(timestamps=np.asarray(timestamps, dtype=np.int64), kpis=kpis, values=values)


def write_dataset(dataset: TimeSeriesDataset, path: str | os.PathLike[str]) -> None:
    """Write a dataset as CSV with 17 significant digits (exact round trip)."""
    try:
        handle = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise IoError(f"cannot write dataset: {path}") from exc
    with handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([TIMESTAMP_COLUMN, *(str(k) for k in dataset.kpis)])
        for ts, row in zip(dataset.timestamps, dataset.values):
            writer.writerow([int(ts), *(f"{v:.17g}" for v in row)])


@dataclass(eq=False)
class NormalizationStats:
    """Per-column mean and population standard deviation.

    ``std`` is recorded exactly as measured; a zero entry means the column was
    constant and an effective scale of 1.0 is used when normalizing.
    """

    mean: Vector
    std: Vector

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise DimensionMismatch("mean and std must be 1-D and the same length")
        if np.any(self.std < 0):
            raise DataError("std entries must be non-negative")

    @property
    def effective_std(self) -> np.ndarray:
        return np.where(self.std == 0.0, 1.0, self.std)

    def transform(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.shape[-1] != self.mean.shape[0]:
            raise DimensionMismatch(
                f"expected {self.mean.shape[0]} columns, got {values.shape[-1]}"
            )
        return (values - self.mean) / self.effective_std


def fit_normalization(dataset: TimeSeriesDataset) -> NormalizationStats:
    """Compute per-column mean and population std over all rows.

    A column whose std overflows float64 is a :class:`DataError` naming its
    KPI: a model can neither hold nor normalize with an infinite std.
    """
    if dataset.n_rows < 1:
        raise DataError("cannot fit normalization on an empty dataset")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = dataset.values.mean(axis=0)
        std = dataset.values.std(axis=0)  # ddof=0: population std
    overflowed = np.flatnonzero(~np.isfinite(std))
    if overflowed.size:
        raise DataError(f"KPI {dataset.kpis[overflowed[0]]}: standard deviation overflows float64")
    return NormalizationStats(mean=mean, std=std)


def load_descriptors(path: str | os.PathLike[str]) -> dict[KpiId, KpiDescriptor]:
    """Load a KPI descriptor table from CSV (``kpi,description[,unit]``)."""
    reader = _csv_reader(read_utf8(path, "descriptor table"), path)
    try:
        header = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise SchemaError(f"{path}: empty file") from None
    if header[:2] != ["kpi", "description"]:
        raise SchemaError(f"{path}: header must start with kpi,description")
    has_unit = len(header) > 2 and header[2] == "unit"
    table: dict[KpiId, KpiDescriptor] = {}
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < 2:
            raise SchemaError(f"{path}: row {row_no} has {len(row)} cell, expected at least 2")
        kpi = _kpi_cell(row[0], path, row_no)
        if kpi in table:
            raise SchemaError(f"{path}: row {row_no}: duplicate KPI {kpi}")
        unit = row[2].strip() or None if has_unit and len(row) > 2 else None
        table[kpi] = KpiDescriptor(kpi=kpi, description=row[1].strip(), unit=unit)
    return table


_SCALARS = {bool: "a boolean", int: "an integer", str: "a string"}


def to_json(value: object) -> object:
    """The JSON form of a dataclass value (and of anything its fields hold)."""
    if isinstance(value, KpiId):
        return str(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if is_dataclass(value) and not isinstance(value, type):
        return {key: to_json(getattr(value, name)) for name, key, _ in _json_fields(type(value))}
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, dict):
        return {to_json(k): to_json(v) for k, v in value.items()}
    return value


def from_json(payload: object, cls: typing.Any, what: str, where: str = "") -> typing.Any:
    """Build ``cls`` from its JSON form, checking every key and value.

    ``what`` names the document in error messages and ``where`` the path of
    ``payload`` inside it.  A missing or unknown key, or a value of the wrong
    type, raises :class:`SchemaError`; so does a ``ValueError`` from a
    dataclass's own checks.  A :class:`DataError` from them propagates.
    """
    label = where or what
    if cls is float:
        if isinstance(payload, bool) or not isinstance(payload, (int, float)):
            raise SchemaError(f"{what} field {label} must be a number")
        return float(payload)
    if cls in _SCALARS:
        if not isinstance(payload, cls) or (cls is int and isinstance(payload, bool)):
            raise SchemaError(f"{what} field {label} must be {_SCALARS[cls]}")
        return payload
    if cls is KpiId:
        if not isinstance(payload, str):
            raise SchemaError(f"{what} KPI id is not a string: {label} is {payload!r}")
        return parse_kpi_id(payload)
    if is_dataclass(cls):
        if not isinstance(payload, dict):
            raise SchemaError(f"{what} field {label} must be an object")
        return _dataclass_from_json(payload, cls, what, where)
    origin = typing.get_origin(cls)
    if origin is typing.Annotated:
        return _array(payload, typing.get_args(cls)[1], what, label)
    if origin in (tuple, list):
        if not isinstance(payload, list):
            raise SchemaError(f"{what} field {label} must be an array")
        item = typing.get_args(cls)[0]
        return origin(from_json(v, item, what, f"{where}[{i}]") for i, v in enumerate(payload))
    if origin is dict:
        if not isinstance(payload, dict):
            raise SchemaError(f"{what} field {label} must be an object")
        key_type, value_type = typing.get_args(cls)
        return {
            from_json(k, key_type, what, where): from_json(v, value_type, what, f"{where}.{k}")
            for k, v in payload.items()
        }
    inner = _optional_inner(cls)
    if inner is None:
        raise SchemaError(f"{what} field {label} has an unsupported type")
    return None if payload is None else from_json(payload, inner, what, where)


def _array(payload: object, ndim: int, what: str, label: str) -> np.ndarray:
    """A float64 array of ``ndim`` dimensions read from nested JSON arrays of finite numbers."""
    malformed = SchemaError(f"{what} field {label} must be a {ndim}-D array of finite numbers")
    leaves = [payload]
    for _ in range(ndim):
        if not set(map(type, leaves)) <= {list}:
            raise malformed
        leaves = list(itertools.chain.from_iterable(leaves))
    if not set(map(type, leaves)) <= {int, float}:  # a JSON number is never a bool
        raise malformed
    try:
        array = np.array(payload, dtype=np.float64)
    except (ValueError, OverflowError) as exc:  # ragged rows, or an integer beyond float range
        raise malformed from exc
    if array.ndim != ndim or not np.isfinite(array).all():
        raise malformed
    return array


def _optional_inner(hint: typing.Any) -> typing.Any:
    """The non-None member of an Optional hint, or None if not Optional."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if len(args) == 1 and len(typing.get_args(hint)) == 2:
            return args[0]
    return None


@functools.cache
def _json_fields(cls: type) -> tuple[tuple[str, str, object], ...]:
    """(field name, JSON key, type hint) of each field of a dataclass."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((f.name, f.metadata.get("json", f.name), hints[f.name]) for f in fields(cls))


def _dataclass_from_json(payload: dict, cls: type, what: str, where: str) -> object:
    known = _json_fields(cls)
    keys = {key for _, key, _ in known}
    for key in payload:
        if key not in keys:
            raise SchemaError(f"unknown {what} field: {f'{where}.{key}' if where else key}")
    kwargs = {}
    for name, key, hint in known:
        label = f"{where}.{key}" if where else key
        if key not in payload:
            raise SchemaError(f"{what} is missing key {label!r}")
        kwargs[name] = from_json(payload[key], hint, what, label)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"invalid {what} value under {where or what}: {exc}") from exc
