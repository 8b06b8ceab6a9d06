"""Row-resampling reference for the count-table bootstrap.

:class:`RowCdfModel` builds the CDF surface from sorted rows, one array of
outcomes per cell, and :func:`row_bootstrap_ci` re-runs one target on a row
copy of every resample, ``target(data.take(idx))``, one family after the
other.  Both are the implementations the count-table versions replaced;
the count-table versions must agree with them bit for bit.
"""

from fractions import Fraction

import numpy as np

import pocmed as pm
from pocmed.errors import BootstrapFailureError, PositivityError


def _percentile(values: np.ndarray, p: float) -> float:
    return float(np.quantile(values, p, method="linear"))


def row_bootstrap_ci(dataset, target, cfg) -> dict:
    """Percentile bootstrap of one target over row copies of the resamples."""
    points = dict(target(dataset))
    n = dataset.n
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)
    samples = {k: [] for k in points}
    degenerate = 0
    for child in children:
        idx = np.random.default_rng(child).integers(0, n, n)
        try:
            values = target(dataset.take(idx))
        except PositivityError:
            degenerate += 1
            continue
        for key, value in values.items():
            if value is not None:
                samples[key].append(float(value))
    if degenerate == cfg.replicates:
        raise BootstrapFailureError(
            f"all {cfg.replicates} bootstrap replicates hit empty cells"
        )
    alpha = (1.0 - cfg.level) / 2.0
    out = {}
    for key, point in points.items():
        reps = np.asarray(samples[key], dtype=np.float64)
        if point is None or reps.size == 0:
            continue
        out[key] = pm.CiResult(
            point=float(point),
            lower=_percentile(reps, alpha),
            upper=_percentile(reps, 1.0 - alpha),
            replicate_mean=float(reps.mean()),
            degenerate_count=degenerate,
        )
    return out


class RowCdfModel:
    """The CDF surface built from sorted rows: per (x, m) cell and per
    treatment arm the sorted outcomes themselves, counted by binary search."""

    def __init__(self, dataset: pm.Dataset, c_stratum=None):
        data = pm.stratify(dataset, c_stratum)
        self.dataset = data
        self.c_stratum = None if c_stratum is None else tuple(c_stratum)

        x, m, y = data.x, data.m, data.y
        order = np.lexsort((y, m, x))
        xs, ms, ys = x[order], m[order], y[order]

        # contiguous (x, m) cells with y sorted inside each cell
        cell_breaks = np.flatnonzero((xs[1:] != xs[:-1]) | (ms[1:] != ms[:-1])) + 1
        starts = np.concatenate(([0], cell_breaks))
        ends = np.concatenate((cell_breaks, [len(xs)]))
        self._cell_y: dict[tuple[float, float], np.ndarray] = {}
        for s, e in zip(starts, ends):
            self._cell_y[(float(xs[s]), float(ms[s]))] = ys[s:e]

        # per treatment level: sorted outcomes, paired (y, m) view, support
        x_breaks = np.flatnonzero(xs[1:] != xs[:-1]) + 1
        xstarts = np.concatenate(([0], x_breaks))
        xends = np.concatenate((x_breaks, [len(xs)]))
        self._x_y_sorted: dict[float, np.ndarray] = {}
        self._x_m_levels: dict[float, np.ndarray] = {}
        self._n_x: dict[float, int] = {}
        for s, e in zip(xstarts, xends):
            level = float(xs[s])
            self._x_y_sorted[level] = np.sort(ys[s:e])
            self._x_m_levels[level] = np.unique(ms[s:e])
            self._n_x[level] = int(e - s)

    # -- basic surface --------------------------------------------------

    @property
    def n(self) -> int:
        return self.dataset.n

    def x_levels(self) -> tuple[float, ...]:
        return tuple(sorted(self._n_x))

    def mediator_support(self, x: float) -> tuple[float, ...]:
        self._require_x(float(x))
        return tuple(float(v) for v in self._x_m_levels[float(x)])

    def _require_x(self, x: float) -> None:
        if x not in self._n_x:
            raise PositivityError(f"no rows with treatment level {x!r}")

    def _cell(self, x: float, m: float) -> np.ndarray:
        key = (float(x), float(m))
        cell = self._cell_y.get(key)
        if cell is None:
            raise PositivityError(
                f"no rows with treatment level {key[0]!r} and mediator level {key[1]!r}"
            )
        return cell

    @staticmethod
    def _count_below(sorted_y: np.ndarray, y: float, strict: bool) -> int:
        side = "left" if strict else "right"
        return int(np.searchsorted(sorted_y, y, side=side))

    # -- estimators ------------------------------------------------------

    def cdf_y_given_x(self, y: float, x: float, strict: bool = True) -> float:
        """P(outcome < y | treatment = x); ``strict=False`` gives <=."""
        x = float(x)
        self._require_x(x)
        return self._count_below(self._x_y_sorted[x], y, strict) / self._n_x[x]

    def cdf_y_given_xm(self, y: float, x: float, m: float, strict: bool = True) -> float:
        """P(outcome < y | treatment = x, mediator = m)."""
        cell = self._cell(x, m)
        return self._count_below(cell, y, strict) / len(cell)

    def mediator_pmf(self, m: float, x: float) -> float:
        """P(mediator = m | treatment = x); 0.0 for unseen mediator values."""
        x = float(x)
        self._require_x(x)
        cell = self._cell_y.get((x, float(m)))
        return (len(cell) if cell is not None else 0) / self._n_x[x]

    def joint_cdf_ym_given_x(
        self,
        y: float,
        m: float,
        x: float,
        strict_y: bool = True,
        strict_m: bool = True,
    ) -> float:
        """P(outcome < y, mediator < m | treatment = x), strictness per flag."""
        x = float(x)
        self._require_x(x)
        total = 0
        for level in self._x_m_levels[x]:
            level = float(level)
            inside = level < m if strict_m else level <= m
            if inside:
                total += self._count_below(self._cell_y[(x, level)], y, strict_y)
        return total / self._n_x[x]

    def crossworld_cdf(self, y: float, x_base: float, x_alt: float) -> float:
        """CDF of the outcome that would arise with treatment held at
        ``x_base`` while the mediator follows its distribution under
        ``x_alt``:  sum over m of
        P(Y < y | X=x_base, M=m) * P(M=m | X=x_alt).

        Requires every mediator level observed under ``x_alt`` to be
        populated in the ``x_base`` arm.
        """
        x_base, x_alt = float(x_base), float(x_alt)
        self._require_x(x_base)
        self._require_x(x_alt)
        n_alt = self._n_x[x_alt]
        acc = Fraction(0)
        for level in self._x_m_levels[x_alt]:
            level = float(level)
            base_cell = self._cell_y.get((x_base, level))
            if base_cell is None:
                raise PositivityError(
                    f"mediator level {level!r} observed under treatment {x_alt!r} "
                    f"has no rows under treatment {x_base!r}"
                )
            weight = Fraction(len(self._cell_y[(x_alt, level)]), n_alt)
            below = self._count_below(base_cell, y, True)
            acc += Fraction(below, len(base_cell)) * weight
        return float(acc)
