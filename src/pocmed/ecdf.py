"""Empirical conditional distribution estimators.

All identification formulas downstream consume only the query surface
defined here: conditional outcome CDFs given the treatment cell or the
(treatment, mediator) cell, the mediator conditional pmf, the joint
outcome-mediator CDF, and the cross-world outcome CDF obtained by mixing
cell CDFs over the mediator distribution of a different treatment arm.

Probabilities are exact ratios of integer counts.  The cross-world mixture
is one Python-int numerator over one Python-int common denominator, divided
once (correctly rounded at any size), so the identity
``crossworld_cdf(y, x, x) == cdf_y_given_x(y, x)`` holds bit-for-bit.

:class:`CountMatrix` answers the queries for many count tables at once,
one float64 per table and NaN where a conditioning cell is empty;
:class:`CdfModel` is its checked view of one table, which raises
:class:`PositivityError` there instead of returning a silent value.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import POS_INF, Dataset, _distinct_rows, stratum_values
from .errors import EmptyDataError, PositivityError


def _bounds(*keys: np.ndarray) -> np.ndarray:
    """Runs of equal ``keys`` in a table sorted by them: run ``k`` is rows
    ``bounds[k]:bounds[k + 1]``.  Values match with float ``==``, so
    ``-0.0`` and ``0.0`` share a run."""
    start = np.zeros(keys[0].size, dtype=bool)
    start[:1] = True
    for key in keys:
        start[1:] |= key[1:] != key[:-1]
    return np.append(np.flatnonzero(start), keys[0].size)


class CountTable(NamedTuple):
    """Distinct ``(x, m, y)`` tuples in lexicographic order and the number
    of rows carrying each; tuples with a zero count are ignored."""

    x: np.ndarray
    m: np.ndarray
    y: np.ndarray
    counts: np.ndarray


class RowCounts:
    """Count tables of a dataset's rows, or of resamples of them, inside one
    covariate stratum.

    Each row is mapped once to its distinct ``(x, m, y[, c])`` tuple; a
    count table is then one ``bincount`` of tuple ids, cut to the stratum.
    """

    def __init__(self, dataset: Dataset, c_stratum=None):
        self._stratum = stratum_values(dataset, c_stratum)
        covariates = []
        if self._stratum is not None:
            covariates = [dataset.column(c) for c in dataset.roles.c]
        keys, self._ids = _distinct_rows((dataset.x, dataset.m, dataset.y, *covariates))
        self._size = keys[0].size
        self._inside = None
        if self._stratum is not None:
            inside = np.ones(self._size, dtype=bool)
            for column, value in zip(keys[3:], self._stratum):
                inside &= column == value
            self._inside = np.flatnonzero(inside)
            keys = [k[self._inside] for k in keys[:3]]
        self._keys = keys

    @property
    def n(self) -> int:
        """The number of rows coded, inside the stratum or not."""
        return self._ids.size

    @property
    def stratum(self) -> tuple[float, ...] | None:
        """The covariate stratum as floats, or ``None`` for every row."""
        return self._stratum

    @property
    def size(self) -> int:
        """The number of distinct tuples, the length of :meth:`bincount`."""
        return self._size

    def bincount(self, idx: np.ndarray | None = None) -> np.ndarray:
        """The rows carrying each distinct tuple, inside the stratum or not:
        of every row, or of the rows ``idx`` (repeats counted)."""
        return np.bincount(self._ids if idx is None else self._ids[idx], minlength=self._size)

    def table(self, idx: np.ndarray | None = None) -> CountTable:
        """Counts of every row, or of the rows ``idx`` (repeats counted)."""
        counts = self.bincount(idx)
        if self._inside is not None:
            counts = counts[self._inside]
            if not counts.any():
                raise PositivityError(f"no rows in covariate stratum {self._stratum!r}")
        return CountTable(*self._keys, counts)

    def matrix(self, counts: np.ndarray) -> CountMatrix:
        """The CDF queries of many resamples inside the stratum: row ``i``
        of ``counts`` is :meth:`bincount` of resample ``i``."""
        if self._inside is not None:
            counts = counts[:, self._inside]
        return CountMatrix(*self._keys, counts)


def _layout(x: np.ndarray, m: np.ndarray) -> tuple[dict, dict, dict]:
    """Where the ``(x, m)`` cells and the treatment arms lie in a table
    sorted by ``(x, m, y)``: each cell's rows ``{(x, m): (start, end)}``,
    each arm's mediator levels ``{x: [m, ...]}`` (ascending) and each arm's
    rows ``{x: (start, end)}``."""
    bounds = _bounds(x, m).tolist()
    starts = bounds[:-1]
    cells, m_levels, arms = {}, {}, {}
    for key, s, e in zip(zip(x[starts].tolist(), m[starts].tolist()), starts, bounds[1:]):
        cells[key] = (s, e)
        m_levels.setdefault(key[0], []).append(key[1])
        arms[key[0]] = (arms.get(key[0], (s,))[0], e)
    return cells, m_levels, arms


def _ratio(num, den) -> np.ndarray:
    """``num / den`` per table, NaN where ``den`` is 0.  Both are integer
    counts below 2**53, exact in float64, so each quotient has the bits of
    Python's ``int / int``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.true_divide(num, den)


class CountMatrix:
    """The CDF queries for many count tables over the same tuples at once.

    ``x``, ``m`` and ``y`` are distinct ``(x, m, y)`` tuples in
    lexicographic order, and row ``i`` of ``counts`` holds table ``i``'s
    rows per tuple.  Each query returns one float64 per table, NaN where
    its conditioning cell is empty: an empty treatment arm or ``(x, m)``
    cell, or a mediator level with rows under ``x_alt`` but none under
    ``x_base`` (in an empty table, every query).

    A count below a threshold is a difference of the row-wise cumulative
    counts along the tuple order, in which every ``(x, m)`` cell is a run
    with its outcome levels ascending.  The cross-world CDF is one integer
    numerator over the common denominator ``n(x_alt) * prod_m n(x_base, m)``
    (over the levels with rows under ``x_alt``), both Python ints, whose
    quotient is correctly rounded at every size.
    """

    def __init__(self, x: np.ndarray, m: np.ndarray, y: np.ndarray, counts: np.ndarray):
        self._cum = np.zeros((counts.shape[0], counts.shape[1] + 1), dtype=np.int64)
        np.cumsum(counts, axis=1, out=self._cum[:, 1:])
        self._y = y
        self._cells, self._m_levels, self._arms = _layout(x, m)

    def _rows(self, start: int, end: int) -> np.ndarray:
        """Rows per table in the tuples ``start:end``."""
        return self._cum[:, end] - self._cum[:, start]

    def _arm_rows(self, x: float) -> np.ndarray:
        return self._rows(*self._arms.get(x, (0, 0)))

    def _below(self, cell: tuple, y: float, strict: bool) -> np.ndarray:
        s, e = cell
        side = "left" if strict else "right"
        return self._rows(s, s + int(np.searchsorted(self._y[s:e], y, side)))

    # -- estimators ------------------------------------------------------

    def cdf_y_given_x(self, y: float, x: float, strict: bool = True) -> np.ndarray:
        return self.joint_cdf_ym_given_x(y, POS_INF, x, strict)

    def cdf_y_given_xm(self, y: float, x: float, m: float, strict: bool = True) -> np.ndarray:
        cell = self._cells.get((float(x), float(m)))
        if cell is None:
            return np.full(self._cum.shape[0], np.nan)
        return _ratio(self._below(cell, y, strict), self._rows(*cell))

    def mediator_pmf(self, m: float, x: float) -> np.ndarray:
        x = float(x)
        cell = self._cells.get((x, float(m)))
        return _ratio(0 if cell is None else self._rows(*cell), self._arm_rows(x))

    def joint_cdf_ym_given_x(
        self,
        y: float,
        m: float,
        x: float,
        strict_y: bool = True,
        strict_m: bool = True,
    ) -> np.ndarray:
        x = float(x)
        below = 0
        for level in self._m_levels.get(x, ()):
            if level < m if strict_m else level <= m:
                below = below + self._below(self._cells[(x, level)], y, strict_y)
        return _ratio(below, self._arm_rows(x))

    def crossworld_cdf(self, y: float, x_base: float, x_alt: float) -> np.ndarray:
        x_base, x_alt = float(x_base), float(x_alt)
        tables = self._cum.shape[0]
        num, den = np.zeros(tables, dtype=object), np.ones(tables, dtype=object)
        for level in self._m_levels.get(x_alt, ()):
            # Python ints before any product: the products outgrow int64
            alt = self._rows(*self._cells[(x_alt, level)]).astype(object)
            # a level missing under x_base is the empty run: its den is 0
            cell = self._cells.get((x_base, level), (0, 0))
            base = self._rows(*cell).astype(object)
            below = self._below(cell, y, True).astype(object)
            # a level without rows under x_alt is left out of the sum
            factor = np.where(alt > 0, base, 1)
            num = num * factor + below * alt * den
            den = den * factor
        den = den * self._arm_rows(x_alt).astype(object)
        return np.array([n / d if d else np.nan for n, d in zip(num.tolist(), den.tolist())])


class CdfModel:
    """The CDF queries of one count table (optionally one covariate
    stratum), checked: where :class:`CountMatrix` gives NaN, a query raises
    :class:`PositivityError` naming the empty cell.  Read-only; all queries
    are pure and concurrently callable.

    ``source`` is a :class:`Dataset`, whose rows in ``c_stratum`` are
    counted, or a :class:`CountTable` already restricted to it.  Tuples
    with a zero count are dropped, and the rest make the one row of a
    :class:`CountMatrix`.
    """

    def __init__(self, source: Dataset | CountTable, c_stratum=None):
        if isinstance(source, Dataset):
            source = RowCounts(source, c_stratum).table()
        self.c_stratum = None if c_stratum is None else tuple(c_stratum)
        present = source.counts > 0
        x, m, y, counts = (column[present] for column in source)
        self.n = int(counts.sum())
        if self.n == 0:
            raise EmptyDataError("count table has no rows")
        self._matrix = CountMatrix(x, m, y, counts[None])

    # -- basic surface --------------------------------------------------

    def x_levels(self) -> tuple[float, ...]:
        return tuple(sorted(self._matrix._arms))

    def mediator_support(self, x: float) -> tuple[float, ...]:
        return tuple(self._matrix._m_levels[self._require_x(x)])

    def _require_x(self, x: float) -> float:
        x = float(x)
        if x not in self._matrix._arms:
            raise PositivityError(f"no rows with treatment level {x!r}")
        return x

    # -- estimators ------------------------------------------------------

    def cdf_y_given_x(self, y: float, x: float, strict: bool = True) -> float:
        """P(outcome < y | treatment = x); ``strict=False`` gives <=."""
        return self.joint_cdf_ym_given_x(y, POS_INF, x, strict)

    def cdf_y_given_xm(self, y: float, x: float, m: float, strict: bool = True) -> float:
        """P(outcome < y | treatment = x, mediator = m)."""
        key = (float(x), float(m))
        if key not in self._matrix._cells:
            raise PositivityError(
                f"no rows with treatment level {key[0]!r} and mediator level {key[1]!r}"
            )
        return self._matrix.cdf_y_given_xm(y, *key, strict).item()

    def mediator_pmf(self, m: float, x: float) -> float:
        """P(mediator = m | treatment = x); 0.0 for unseen mediator values."""
        return self._matrix.mediator_pmf(m, self._require_x(x)).item()

    def joint_cdf_ym_given_x(
        self,
        y: float,
        m: float,
        x: float,
        strict_y: bool = True,
        strict_m: bool = True,
    ) -> float:
        """P(outcome < y, mediator < m | treatment = x), strictness per flag."""
        x = self._require_x(x)
        return self._matrix.joint_cdf_ym_given_x(y, m, x, strict_y, strict_m).item()

    def crossworld_cdf(self, y: float, x_base: float, x_alt: float) -> float:
        """CDF of the outcome that would arise with treatment held at
        ``x_base`` while the mediator follows its distribution under
        ``x_alt``:  sum over m of
        P(Y < y | X=x_base, M=m) * P(M=m | X=x_alt).

        Requires every mediator level observed under ``x_alt`` to be
        populated in the ``x_base`` arm.
        """
        x_base, x_alt = self._require_x(x_base), self._require_x(x_alt)
        for level in self._matrix._m_levels[x_alt]:
            if (x_base, level) not in self._matrix._cells:
                raise PositivityError(
                    f"mediator level {level!r} observed under treatment {x_alt!r} "
                    f"has no rows under treatment {x_base!r}"
                )
        return self._matrix.crossworld_cdf(y, x_base, x_alt).item()
