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
import re
import stat
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

#: Rows per block when :meth:`Dataset.to_csv` joins its lines; bounds the
#: temporary strings held at once.
_CSV_BLOCK_ROWS = 1 << 10


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
        """Whether ``value`` lies in the interval: a plain bool for a float,
        and row-wise, a boolean array, for an array."""
        below_upper = value <= self.upper if self.upper_closed else value < self.upper
        return (self.lower <= value) & below_upper


def _finite(value, name: str) -> float:
    """``value`` as a float; NaN and infinities raise
    :class:`InvalidEvidenceError` naming the field."""
    value = float(value)
    if not math.isfinite(value):
        raise InvalidEvidenceError(f"{name} must be a finite number, got {value!r}")
    return value


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

    ``m_star`` and ``interval_m`` are mutually exclusive, and ``x_star``
    and ``m_star`` must be finite.
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
        object.__setattr__(self, "x_star", _finite(self.x_star, "x_star"))
        if self.m_star is not None:
            object.__setattr__(self, "m_star", _finite(self.m_star, "m_star"))

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

    ``m_fixed`` selects controlled-direct quantities and ``c_stratum``
    restricts to an exact covariate match.  Every number must be finite:
    NaN or an infinity raises :class:`InvalidEvidenceError`.
    """

    x_base: float
    x_alt: float
    y_threshold: float
    m_fixed: float | None = None
    c_stratum: tuple | None = None

    def __post_init__(self):
        for name in ("x_base", "x_alt", "y_threshold"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))
        if self.m_fixed is not None:
            object.__setattr__(self, "m_fixed", _finite(self.m_fixed, "m_fixed"))
        if self.c_stratum is not None:
            object.__setattr__(
                self, "c_stratum", tuple(_finite(v, "c_stratum") for v in self.c_stratum)
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


def _distinct_rows(columns: Sequence[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Distinct row tuples of equal-length columns, column by column in
    lexicographic order (first column first), and each row's tuple id.
    Values match with ``==``; a tuple's stored values are those of its
    first row, so float ``-0.0`` and ``0.0`` keep the spelling seen first."""
    first, ids = _row_ids(np.unique(column, return_inverse=True) for column in columns)
    return [column[first] for column in columns], ids


def _row_ids(coded) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row, in lexicographic order, and each
    row's id, from each column's sorted distinct values and codes (int64
    first-column codes are overwritten): one mixed-radix int64 key, ranked
    densely while its space fits the table, else (or near 2**63) by np.unique."""
    coded = iter(coded)
    levels, key = next(coded)
    n, size, key = key.size, levels.size, key.astype(np.int64, copy=False)
    for levels, codes in coded:
        if size * levels.size >= 1 << 63:
            _, key = np.unique(key, return_inverse=True)
            size = int(key.max()) + 1
        # in place, and each temporary freed at once, so that the peak
        # memory stays near that of one sort of the table
        key *= levels.size
        key += codes
        size *= levels.size
        del codes
    if size <= n:
        seen = np.zeros(size, dtype=bool)
        seen[key] = True
        ids = (np.cumsum(seen) - 1)[key]
    else:
        _, ids = np.unique(key, return_inverse=True)
    del key
    first = np.full(int(ids.max()) + 1, n)
    np.minimum.at(first, ids, np.arange(n))
    return first, ids


def _coding(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A column's distinct int64 bit patterns, sorted, and each row's index
    in them in the smallest integer type that holds it."""
    bits, codes = np.unique(column.view(np.int64), return_inverse=True)
    return bits, codes.astype(np.min_scalar_type(bits.size))


class Dataset:
    """Immutable table of (treatment, mediator, outcome, covariates) records.

    Columns are float64 arrays marked read-only; all operations are pure, so
    a dataset is safely shareable across concurrent readers.  ``codings``
    may give columns' ``(bits, codes)`` coding as :meth:`to_csv` uses it:
    the column's distinct int64 bit patterns, sorted (levels no row carries
    are allowed), and each row's index in them in the smallest unsigned
    type that holds it.  The caller vouches that they match the columns;
    the dataset keeps them read-only, and :meth:`take` drops them.
    """

    def __init__(self, columns: dict[str, np.ndarray], roles: ColumnRoles,
                 codings: dict[str, tuple[np.ndarray, np.ndarray]] | None = None):
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
        self._codings = {}
        for name, (bits, codes) in (codings or {}).items():
            codes.flags.writeable = False
            self._codings[name] = (bits, codes)

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
        """Serialize with a header line, ``,`` delimiter, and ``.`` decimals.

        Every value is written as ``repr(float(v))``, spelled once per distinct
        int64 bit pattern of a column (so ``-0.0`` and ``0.0`` keep their own
        spellings).  A column's coding is the one the dataset keeps (as
        :func:`~pocmed.oracle.sample_observational` gives it), else one
        ``np.unique`` of its bits.  If the columns' levels can form no more
        rows than the table has, each distinct row is joined once and the
        lines are gathered from those, else each row is joined; in blocks
        of :data:`_CSV_BLOCK_ROWS`.  Either way, and whatever levels a
        coding holds beyond the column's, the text is the same."""
        names, n, block = self.column_names, self._n, _CSV_BLOCK_ROWS
        coded = [self._codings.get(c) or _coding(self._columns[c]) for c in names]
        columns = [(np.asarray([repr(v) for v in bits.view(np.float64).tolist()], dtype=object),
                    codes) for bits, codes in coded]
        if math.prod(spelled.size for spelled, _ in columns) <= n:
            first, ids = _row_ids(coded)
            rows = zip(*(spelled[codes[first]].tolist() for spelled, codes in columns))
            rows = np.asarray(list(map(",".join, rows)), dtype=object)
            blocks = (rows[ids[lo : lo + block]].tolist() for lo in range(0, n, block))
        else:
            blocks = (map(",".join, zip(*(s[c[lo : lo + block]].tolist() for s, c in columns)))
                      for lo in range(0, n, block))
        return "\n".join([",".join(names), *map("\n".join, blocks)]) + "\n"


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


def _decode(raw: bytes) -> str:
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        at = exc.start + 3 * raw.startswith(b"\xef\xbb\xbf")
        raise ParseError(f"byte {at}: {raw[at]:#04x} is not UTF-8 text") from None


def _read_text(source) -> tuple[str, str | None]:
    """The text of ``source`` without one leading UTF-8 byte-order mark (a
    file's line breaks read as in text mode), and the absolute path of a
    regular file whose suffix numpy does not decompress, else ``None``.
    A file that cannot be read raises :class:`ParseError` naming its path
    and the reason."""
    if isinstance(source, bytes):
        return _decode(source), None
    if isinstance(source, os.PathLike) or (
        isinstance(source, str) and "\n" not in source and "\r" not in source
    ):
        try:
            with open(source, "rb") as fh:
                raw, mode = fh.read(), os.fstat(fh.fileno()).st_mode
        except OSError as exc:
            raise ParseError(f"cannot read {os.fspath(source)!r}: {exc.strerror or exc}") from None
        text, path = _decode(raw).replace("\r\n", "\n").replace("\r", "\n"), os.fspath(source)
        reread = stat.S_ISREG(mode) and isinstance(path, str)
        reread = reread and not path.endswith((".gz", ".bz2", ".xz", ".lzma"))  # numpy decompresses
        return text, os.path.abspath(path) if reread else None
    if isinstance(source, str):
        return source.removeprefix("\ufeff"), None
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        raw = source.read()
        return (_decode(raw) if isinstance(raw, bytes) else raw.removeprefix("\ufeff")), None
    raise SchemaError(f"unsupported source type {type(source)!r}")


def load_dataset(source, roles: ColumnRoles) -> Dataset:
    """Parse delimited text (path, string, bytes, or file object) into a Dataset.

    A ``str`` without a line break, or an ``os.PathLike``, names a file; a
    ``str`` with one is the CSV text itself.  The first line is a header;
    the delimiter is ``,``; decimals use ``.`` regardless of locale; blank
    lines are skipped and cells are parsed by ``float`` after stripping.
    Text is UTF-8; one leading byte-order mark (``\\ufeff``, as spreadsheet
    programs write it) is dropped, so it never becomes part of the first
    column name.  Quoted cells and headers are not unquoted.
    Non-role columns are ignored, and their names may repeat.  Errors: a
    byte that is not UTF-8 raises :class:`ParseError` naming its offset,
    and so does a row with more or fewer cells than the header, or a role
    cell that is not a finite number, naming the line; a role column that
    is missing, or named more than once, raises :class:`SchemaError`; and
    a header-only table raises :class:`EmptyDataError`.

    Two readers give the same values, those of Python's ``float``:

    1. numpy's C reader (``np.loadtxt``) parses every cell, from a regular
       file by its path (see :func:`_read_text`), else from memory; if one
       is not a number, it reads again with the cells of the non-role
       columns discarded unparsed, so they may hold any text;
    2. where it gives up, the per-cell reader runs over the whole input and
       raises the error for the first bad line.  It reads the tables that
       numpy's number parser or line splitting would read differently:
       role cells such as ``1_0`` or Unicode digits, a lone ``\\r`` line
       break before the last line, rows of only spaces, and the line breaks
       in :data:`_SPLITLINES_ONLY`.
    """
    text, path = _read_text(source)
    header_line = _first_line(text)
    if not header_line.strip():
        raise EmptyDataError("input has no header line")
    header = [h.strip() for h in header_line.split(",")]
    missing = [c for c in roles.all_columns if c not in header]
    if missing:
        raise SchemaError(f"missing role columns {missing!r} in header {header!r}")
    repeated = [c for c in roles.all_columns if header.count(c) > 1]
    if repeated:
        raise SchemaError(f"role columns {repeated!r} appear more than once in header {header!r}")
    names = roles.all_columns
    index = [header.index(c) for c in names]
    columns = _parse_c(text, len(header_line), path, len(header), index)
    if columns is None:
        columns = _parse_per_cell(text.splitlines(), len(header), index, names)
    return Dataset(dict(zip(names, columns)), roles)


def _first_line(text: str) -> str:
    """``text.splitlines()[0]``, or ``""`` for no lines, without splitting
    the rest of ``text``."""
    end = text.find("\n")
    return next(iter(text[: len(text) if end < 0 else end].splitlines()), "")


#: The line breaks of ``str.splitlines`` that numpy's reader takes for cell
#: text.  In text without them ``np.loadtxt`` and ``str.splitlines`` see the
#: same lines and cells, and every role cell that numpy parses has the value
#: ``float`` gives it after stripping.  A lone ``\r`` needs no check: numpy
#: refuses one inside the text and ends a line at a final one, as
#: ``str.splitlines`` does.
_SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

#: Any character after the header but blanks: without one, ``np.loadtxt``
#: would warn that it read no data.
_NON_BLANK = re.compile(r"\S")


def _loadtxt(text: str, skip: int, path: str | None, converters=None) -> np.ndarray:
    if path is None:
        stream = io.StringIO(text)
        stream.seek(skip)
        return np.loadtxt(stream, delimiter=",", comments=None, ndmin=2, converters=converters)
    return np.loadtxt(path, delimiter=",", comments=None, ndmin=2, converters=converters,
                      skiprows=1, encoding="utf-8-sig")


def _parse_c(text: str, skip: int, path, width: int, index: list[int]) -> list[np.ndarray] | None:
    """The columns ``index`` of the rows after the first ``skip`` characters
    (the header line) read by numpy's C reader, or ``None`` if the text has
    a line break in :data:`_SPLITLINES_ONLY`, has no row, or a row does not
    have ``width`` cells with finite float role values.  The cells of the
    other columns may hold text.  A lone ``\\r`` inside the text or a blank
    row of spaces also gives ``None``.  With a ``path``, numpy reads that
    file after its first line, in chunks, not ``text`` line by line."""
    if any(c in text for c in _SPLITLINES_ONLY):
        return None
    if _NON_BLANK.search(text, skip) is None:
        return None
    try:
        table = _loadtxt(text, skip, path)
    except ValueError:
        # A cell is not a number: read again with the cells without a role
        # discarded unparsed.  Not on the first try, as a Python call per
        # discarded cell costs more than parsing a number in C.
        others = {j: (lambda cell: 0.0) for j in range(width) if j not in index}
        if not others:
            return None
        try:
            table = _loadtxt(text, skip, path, others)
        except ValueError:
            return None
    if table.shape[1] != width:
        return None
    columns = [table[:, j] for j in index]
    if not all(np.isfinite(column).all() for column in columns):
        return None
    return columns


def _parse_per_cell(
    lines: list[str], width: int, index: list[int], names: Sequence[str]
) -> list[np.ndarray]:
    """The columns ``index`` (named ``names``) of the non-blank rows
    ``lines[1:]``, parsed one cell at a time; the first bad row raises."""
    columns: list[list[float]] = [[] for _ in index]
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"line {line_no}: expected {width} cells, got {len(cells)}")
        for values, j, name in zip(columns, index, names):
            values.append(_parse_cell(cells[j].strip(), name, line_no))
    if not columns[0]:
        raise EmptyDataError("input contains a header but no data rows")
    return [np.asarray(values, dtype=np.float64) for values in columns]


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
