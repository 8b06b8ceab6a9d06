"""Ordered data types: datasets, intervals, evidence records, and queries.

Treatment, mediator, and outcome values live on totally ordered numeric
domains.  Comparisons throughout the package use the strict ``<`` of float
arithmetic; equal outcomes are never "strictly below" a threshold.  Values
are normalized to ``float`` exactly once at load time and matched exactly
afterwards (no fuzzy comparison).
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    EmptyDataError,
    InvalidEvidenceError,
    ParseError,
    PositivityError,
    SchemaError,
)

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """Outcome or mediator interval ``[lower, upper)`` or ``[lower, upper]``.

    The lower endpoint is always included; ``upper_closed`` selects between
    the half-open and the closed form.  Either endpoint may be infinite.
    A point interval (``lower == upper``) must be closed, otherwise it is
    empty and rejected.
    """

    lower: float
    upper: float
    upper_closed: bool = False

    def __post_init__(self):
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi):
            raise InvalidEvidenceError("interval endpoints must not be NaN")
        if lo > hi:
            raise InvalidEvidenceError(f"empty interval: lower {lo} > upper {hi}")
        if lo == hi:
            if not self.upper_closed:
                raise InvalidEvidenceError(
                    f"empty interval: [{lo}, {hi}) contains no points"
                )
            if math.isinf(lo):
                raise InvalidEvidenceError("point interval at infinity is invalid")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def point(cls, value: float) -> "Interval":
        return cls(value, value, upper_closed=True)

    @classmethod
    def full(cls) -> "Interval":
        return cls(NEG_INF, POS_INF, upper_closed=False)

    def contains(self, value: float) -> bool:
        if self.upper_closed:
            return self.lower <= value <= self.upper
        return self.lower <= value < self.upper


#: Evidence kinds: an observed treatment arm together with progressively
#: richer factual information about the same subject.
KIND_OUTCOME = "outcome-only"            # (X = x*, Y in I_Y)
KIND_POINT_MEDIATOR = "point-mediator"   # (X = x*, M = m*, Y in I_Y)
KIND_INTERVAL_MEDIATOR = "interval-mediator"  # (X = x*, M in I_M, Y in I_Y)


@dataclass(frozen=True)
class Evidence:
    """Factual (post-treatment) conditioning event defining a subpopulation.

    Exactly one of three shapes, inferred from which fields are present:

    * outcome-only: ``x_star`` and ``interval_y``;
    * point-mediator: additionally ``m_star`` (exact mediator value);
    * interval-mediator: additionally ``interval_m``.

    ``m_star`` and ``interval_m`` are mutually exclusive.
    """

    x_star: float
    interval_y: Interval
    m_star: float | None = None
    interval_m: Interval | None = None

    def __post_init__(self):
        if self.m_star is not None and self.interval_m is not None:
            raise InvalidEvidenceError(
                "evidence cannot carry both an exact mediator value and a mediator interval"
            )
        object.__setattr__(self, "x_star", float(self.x_star))
        if self.m_star is not None:
            object.__setattr__(self, "m_star", float(self.m_star))

    @property
    def kind(self) -> str:
        if self.m_star is not None:
            return KIND_POINT_MEDIATOR
        if self.interval_m is not None:
            return KIND_INTERVAL_MEDIATOR
        return KIND_OUTCOME


@dataclass(frozen=True)
class Query:
    """One estimation request: contrast ``x_base -> x_alt`` for the event
    ``outcome >= y_threshold``.

    ``m_fixed`` selects controlled-direct quantities, ``c_stratum`` restricts
    to an exact covariate match, and ``evidence`` (optional) carries the
    factual conditioning event for the with-evidence variants.
    """

    x_base: float
    x_alt: float
    y_threshold: float
    m_fixed: float | None = None
    c_stratum: tuple | None = None
    evidence: Evidence | None = None

    def __post_init__(self):
        object.__setattr__(self, "x_base", float(self.x_base))
        object.__setattr__(self, "x_alt", float(self.x_alt))
        object.__setattr__(self, "y_threshold", float(self.y_threshold))
        if self.m_fixed is not None:
            object.__setattr__(self, "m_fixed", float(self.m_fixed))
        if self.c_stratum is not None:
            object.__setattr__(
                self, "c_stratum", tuple(float(v) for v in self.c_stratum)
            )


@dataclass(frozen=True)
class ColumnRoles:
    """Mapping from table columns to their roles."""

    x: str
    m: str
    y: str
    c: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(self.c))
        names = [self.x, self.m, self.y, *self.c]
        if len(set(names)) != len(names):
            raise SchemaError(f"role columns must be distinct, got {names}")

    @property
    def all_columns(self) -> tuple[str, ...]:
        return (self.x, self.m, self.y, *self.c)


class Dataset:
    """Immutable table of (treatment, mediator, outcome, covariates) records.

    Columns are float64 arrays marked read-only; all operations are pure, so
    a dataset is safely shareable across concurrent readers.
    """

    def __init__(self, columns: dict[str, np.ndarray], roles: ColumnRoles):
        for name in roles.all_columns:
            if name not in columns:
                raise SchemaError(f"missing role column {name!r}")
        self._columns: dict[str, np.ndarray] = {}
        n = None
        for name, values in columns.items():
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim != 1:
                raise SchemaError(f"column {name!r} is not one-dimensional")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise SchemaError("columns have unequal lengths")
            if not np.all(np.isfinite(arr)):
                raise ParseError(f"column {name!r} contains non-finite values")
            arr = arr.copy()
            arr.flags.writeable = False
            self._columns[name] = arr
        if n is None or n == 0:
            raise EmptyDataError("dataset must contain at least one row")
        self._n = int(n)
        self.roles = roles

    def __len__(self) -> int:
        return self._n

    @property
    def n(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    @property
    def x(self) -> np.ndarray:
        return self._columns[self.roles.x]

    @property
    def m(self) -> np.ndarray:
        return self._columns[self.roles.m]

    @property
    def y(self) -> np.ndarray:
        return self._columns[self.roles.y]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def x_support(self) -> np.ndarray:
        return np.unique(self.x)

    def m_support(self) -> np.ndarray:
        return np.unique(self.m)

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset / resample; preserves schema and column order."""
        cols = {name: arr[indices] for name, arr in self._columns.items()}
        return Dataset(cols, self.roles)

    def equals(self, other: "Dataset") -> bool:
        return (
            self.roles == other.roles
            and self.column_names == other.column_names
            and all(
                np.array_equal(self._columns[c], other._columns[c])
                for c in self.column_names
            )
        )

    def to_csv(self) -> str:
        """Serialize with a header line, ``,`` delimiter, and ``.`` decimals."""
        names = self.column_names
        lines = [",".join(names)]
        cols = [self._columns[c] for c in names]
        for i in range(self._n):
            lines.append(",".join(repr(float(col[i])) for col in cols))
        return "\n".join(lines) + "\n"


def _parse_cell(text: str, column: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(
            f"line {line_no}: cannot parse {text!r} in column {column!r} as a number"
        ) from None
    if math.isnan(value) or math.isinf(value):
        raise ParseError(f"line {line_no}: non-finite value in column {column!r}")
    return value


def load_dataset(source, roles: ColumnRoles) -> Dataset:
    """Parse delimited text (path, string, bytes, or file object) into a Dataset.

    A ``str`` without a line break, or an ``os.PathLike``, names a file; a
    ``str`` with one is the CSV text itself.  The first line is a header;
    the delimiter is ``,``; decimals use ``.`` regardless of locale.
    Non-role columns are ignored.  Errors: a malformed row raises
    :class:`ParseError` naming the line, a missing role column raises
    :class:`SchemaError`, and a header-only table raises
    :class:`EmptyDataError`.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, os.PathLike) or (
        isinstance(source, str) and "\n" not in source and "\r" not in source
    ):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif isinstance(source, str):
        text = source
    elif isinstance(source, io.IOBase) or hasattr(source, "read"):
        raw = source.read()
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    else:
        raise SchemaError(f"unsupported source type {type(source)!r}")

    lines = [ln for ln in text.splitlines()]
    if not lines or not lines[0].strip():
        raise EmptyDataError("input has no header line")
    header = [h.strip() for h in lines[0].split(",")]
    missing = [c for c in roles.all_columns if c not in header]
    if missing:
        raise SchemaError(f"missing role columns {missing!r} in header {header!r}")
    index = {c: header.index(c) for c in roles.all_columns}

    columns: dict[str, list[float]] = {c: [] for c in roles.all_columns}
    n_rows = 0
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) < len(header):
            raise ParseError(
                f"line {line_no}: expected {len(header)} cells, got {len(cells)}"
            )
        for col in roles.all_columns:
            columns[col].append(_parse_cell(cells[index[col]].strip(), col, line_no))
        n_rows += 1
    if n_rows == 0:
        raise EmptyDataError("input contains a header but no data rows")
    arrays = {c: np.asarray(v, dtype=np.float64) for c, v in columns.items()}
    return Dataset(arrays, roles)


def stratum_values(
    dataset: Dataset, c_stratum: Sequence[float] | None
) -> tuple[float, ...] | None:
    """The stratum as floats, one per covariate column, or ``None`` for no
    stratum; a stratum of the wrong length raises :class:`SchemaError`."""
    if c_stratum is None or len(tuple(c_stratum)) == 0:
        return None
    values = tuple(float(v) for v in c_stratum)
    cols = dataset.roles.c
    if len(values) != len(cols):
        raise SchemaError(
            f"stratum {values!r} does not match covariate columns {cols!r}"
        )
    return values


def stratify(dataset: Dataset, c_stratum: Sequence[float] | None) -> Dataset:
    """Exact-match covariate conditioning.

    With ``c_stratum`` empty or ``None`` the dataset is returned unchanged.
    An empty stratum violates the positivity requirement and raises
    :class:`PositivityError`.
    """
    values = stratum_values(dataset, c_stratum)
    if values is None:
        return dataset
    mask = np.ones(dataset.n, dtype=bool)
    for col, v in zip(dataset.roles.c, values):
        mask &= dataset.column(col) == v
    if not mask.any():
        raise PositivityError(f"no rows in covariate stratum {values!r}")
    return dataset.take(np.flatnonzero(mask))
