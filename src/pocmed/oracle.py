"""Ground-truth engine for threshold structural models.

A model is three structural nodes (treatment, mediator, outcome), each a
deterministic function of its observed parents and one independent
uniform-[0,1] noise source, plus an optional finite covariate table.
Discrete nodes are encoded as step functions of their uniform source
(thresholds), which makes the noise coupling explicit: the same uniform
draw is shared by a node across all interventions, so counterfactual
quantities are well defined and exactly computable.

Both ways of computing a truth fill one table of counterfactual columns
(the mediator and outcome under each intervention) with one weight per
row.  The exact path partitions the (mediator-noise, outcome-noise) unit
square of each covariate stratum into rectangles on which every column is
constant, one row per rectangle weighted by its area times the stratum
weight; the Monte Carlo path samples the noise sources, one row of weight
1.0 per draw.  Every truth is then a weighted sum of indicators on that
table, the same code for both paths.  The exact partition is kept in a
small cache (:data:`_PARTITIONS`) under the inputs that decide it, so the
truths of one query and its evidence variants build it once.
Observational conditional CDFs implied by a model are exposed through
:class:`AnalyticCdf`, which duck-types the empirical estimator surface so
identification formulas can be evaluated at infinite-sample truth; each
instance memoises its answers for its lifetime.

:func:`check_monotonicity` collects every crossing that the lazy
:func:`_crossing_events` yields; the oracle-equivalence suite's gate stops
at the first outcome or compound crossing instead.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import ColumnRoles, Dataset, Evidence, Query, KIND_INTERVAL_MEDIATOR, KIND_POINT_MEDIATOR, POS_INF
from .errors import ConditioningError, InvalidEvidenceError, UnsupportedSpecError

_MC_CHUNK = 1 << 17


def sigmoid(t: float) -> float:
    if t >= 0:
        return 1.0 / (1.0 + math.exp(-t))
    z = math.exp(t)
    return z / (1.0 + z)


# -- structural nodes --------------------------------------------------------


class LogisticNode:
    """Binary node: value 1 iff its uniform source is below
    ``sigmoid(intercept + coefs . parents)``."""

    def __init__(self, intercept: float, coefs: Sequence[float] = ()):
        self.intercept = float(intercept)
        self.coefs = tuple(float(c) for c in coefs)
        if not all(map(math.isfinite, (self.intercept, *self.coefs))):
            raise UnsupportedSpecError(
                f"logistic node needs finite parameters, got intercept "
                f"{self.intercept!r} and coefs {list(self.coefs)!r}"
            )

    def prob_one(self, parents: Sequence[float]) -> float:
        if len(parents) != len(self.coefs):
            raise UnsupportedSpecError(
                f"logistic node expects {len(self.coefs)} parents, got {len(parents)}"
            )
        return sigmoid(self.intercept + sum(c * p for c, p in zip(self.coefs, parents)))

    def step(self, parents: Sequence[float]):
        return bernoulli_cell(self.prob_one(parents))

    def values(self, parent_cols: np.ndarray, u: np.ndarray) -> np.ndarray:
        t = np.full(u.shape, self.intercept)
        for j, c in enumerate(self.coefs):
            t += c * parent_cols[:, j]
        p = 1.0 / (1.0 + np.exp(-t))
        return (u < p).astype(np.float64)

    def value_levels(self) -> tuple[float, ...]:
        return (0.0, 1.0)


class TableNode:
    """Tabulated step node: for each parent combination, interior cut
    points and the value taken on each resulting sub-interval (values
    listed in increasing-``u`` order)."""

    def __init__(self, cells: Mapping[tuple, tuple[Sequence[float], Sequence[float]]]):
        table = {}
        for parents, (cuts, values) in cells.items():
            key = tuple(map(float, parents))
            cuts = tuple(map(float, cuts))
            values = tuple(map(float, values))
            if len(values) != len(cuts) + 1:
                raise UnsupportedSpecError(
                    f"cell {key!r}: need len(cuts)+1 values, got {len(values)}"
                )
            bounds = (0.0, *cuts, 1.0)
            if not all(map(operator.lt, bounds, bounds[1:])):
                raise UnsupportedSpecError(
                    f"cell {key!r}: cuts must be strictly increasing inside (0, 1)"
                )
            table[key] = (cuts, values)
        self._table = table
        self._lookup = None  # built by the first call of values

    def step(self, parents: Sequence[float]):
        key = tuple(float(p) for p in parents)
        try:
            return self._table[key]
        except KeyError:
            raise UnsupportedSpecError(f"no table cell for parents {key!r}") from None

    def values(self, parent_cols: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Node values for parent rows ``parent_cols`` and uniforms ``u``.

        Parent columns are coded by ``searchsorted`` against the node's key
        levels (a NaN appended codes any other value).  A lookup built by
        the first call maps a key prefix's id and the next code to the
        longer prefix's id (past the last if no key has it), so the codes
        end in small-int cell ids, and a stable sort of those gathers each
        cell's rows.  A row without a table cell raises for the smallest
        such combination in lexicographic order.
        """
        out = np.empty(u.shape, dtype=np.float64)
        if parent_cols.shape[1] == 0:
            cuts, values = self.step(())
            out[:] = np.asarray(values)[np.searchsorted(cuts, u, side="right")]
            return out
        if u.size == 0:
            return out
        k = parent_cols.shape[1]
        if self._lookup is None or self._lookup[0] != k:
            keys = [key for key in self._table if len(key) == k]
            levels = [np.append(np.unique([key[j] for key in keys]), np.nan) for j in range(k)]
            ids, size, tables = np.zeros(len(keys), dtype=np.intp), 1, []
            for j, lv in enumerate(levels):
                codes = np.searchsorted(lv, [key[j] for key in keys])
                prefixes, ids = np.unique(ids * lv.size + codes, return_inverse=True)
                tables.append(np.full((size + 1) * lv.size, prefixes.size))
                tables[-1][prefixes], size = np.arange(prefixes.size), prefixes.size
            steps = dict(zip(ids.tolist(), map(self._table.__getitem__, keys)))
            self._lookup = (k, levels, tables, steps)
        _, levels, tables, steps = self._lookup
        cell = np.zeros(u.size, dtype=np.intp)
        for lv, table, col in zip(levels, tables, parent_cols.T):
            code = np.searchsorted(lv, col)
            cell = table[cell * lv.size + np.where(lv[code] == col, code, lv.size - 1)]
        if (cell == len(steps)).any():
            missing = parent_cols[cell == len(steps)]
            self.step(missing[np.lexsort(missing.T[::-1])[0]].tolist())
        order = np.argsort(cell.astype(np.min_scalar_type(len(steps))), kind="stable")
        counts = np.bincount(cell, minlength=len(steps))
        present = np.flatnonzero(counts)
        for i, rows in zip(present.tolist(), np.split(order, np.cumsum(counts[present])[:-1])):
            cuts, values = steps[i]
            out[rows] = np.asarray(values)[np.searchsorted(cuts, u[rows], side="right")]
        return out

    def value_levels(self) -> tuple[float, ...]:
        levels = sorted({v for _, values in self._table.values() for v in values})
        return tuple(levels)


class FunctionNode:
    """Opaque node ``value = fn(u, *parents)``; usable on the Monte Carlo
    path only (no threshold structure to partition)."""

    def __init__(self, fn: Callable[..., float]):
        self.fn = fn

    def step(self, parents: Sequence[float]):
        raise UnsupportedSpecError(
            "exact computation requires threshold (step-function) nodes"
        )

    def values(self, parent_cols: np.ndarray, u: np.ndarray) -> np.ndarray:
        return np.asarray(
            [self.fn(ui, *row) for ui, row in zip(u, parent_cols)], dtype=np.float64
        )

    def value_levels(self) -> tuple[float, ...]:
        raise UnsupportedSpecError("function nodes do not declare value levels")


def bernoulli_cell(p: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Table cell for a binary node with success probability ``p`` under the
    shared-uniform coupling (value 1 iff u < p)."""
    p = float(p)
    if math.isnan(p):
        raise UnsupportedSpecError("success probability is NaN")
    if p <= 0.0:
        return (), (0.0,)
    if p >= 1.0:
        return (), (1.0,)
    return (p,), (1.0, 0.0)


@dataclass(frozen=True)
class ScmSpec:
    """Structural model: treatment, mediator, and outcome nodes plus an
    optional finite covariate distribution ``((c_tuple, weight), ...)``.

    Parent conventions: treatment sees ``(*c,)``, the mediator sees
    ``(x, *c)``, the outcome sees ``(x, m, *c)``.  Instances are immutable
    and shareable.
    """

    treatment: object
    mediator: object
    outcome: object
    covariates: tuple | None = None

    def covariate_support(self) -> tuple[tuple[tuple, float], ...]:
        if self.covariates is None:
            return (((), 1.0),)
        pairs = tuple(
            (tuple(float(v) for v in c), float(w)) for c, w in self.covariates
        )
        total = sum(w for _, w in pairs)
        if total <= 0:
            raise UnsupportedSpecError("covariate weights must be positive")
        return tuple((c, w / total) for c, w in pairs)

    def treatment_levels(self, c: tuple = ()) -> tuple[float, ...]:
        cuts, values = self.treatment.step(tuple(c))
        return tuple(sorted(set(values)))

    def mediator_levels(self, c: tuple = ()) -> tuple[float, ...]:
        levels: set[float] = set()
        for x in self.treatment_levels(c):
            _, values = self.mediator.step((x, *c))
            levels.update(values)
        return tuple(sorted(levels))


def logistic_bernoulli_preset() -> ScmSpec:
    """Built-in demonstration model: fair-coin treatment, then mediator and
    outcome are Bernoulli with logistic thresholds
    sigmoid(1 + 0.5 x) and sigmoid(1 + 0.5 (x + m))."""
    return ScmSpec(
        treatment=LogisticNode(0.0),
        mediator=LogisticNode(1.0, (0.5,)),
        outcome=LogisticNode(1.0, (0.5, 0.5)),
    )


# -- sampling ----------------------------------------------------------------


def _uniform_matrix(seed: int, n: int, cols: int) -> np.ndarray:
    """Uniform draws in fixed-size chunks with per-chunk child streams, so
    the result depends only on (seed, position), not on how the index range
    might be split across workers."""
    ss = np.random.SeedSequence(seed)
    n_chunks = max(1, -(-n // _MC_CHUNK))
    children = ss.spawn(n_chunks)
    parts = []
    remaining = n
    for child in children:
        take = min(_MC_CHUNK, remaining)
        parts.append(np.random.default_rng(child).random((take, cols)))
        remaining -= take
    return np.concatenate(parts, axis=0) if len(parts) > 1 else parts[0]


def _draw_exogenous(scm: ScmSpec, n: int, seed: int):
    u = _uniform_matrix(seed, n, 4)
    support = scm.covariate_support()
    if scm.covariates is None:
        c_matrix = np.empty((n, 0))
    else:
        weights = np.cumsum([w for _, w in support])
        idx = np.searchsorted(weights, u[:, 0], side="right")
        idx = np.minimum(idx, len(support) - 1)
        c_matrix = np.asarray([c for c, _ in support], dtype=np.float64)[idx]
    return c_matrix, u[:, 1], u[:, 2], u[:, 3]


def sample_observational(scm: ScmSpec, n: int, seed: int) -> Dataset:
    """Draw ``n`` iid observational rows; deterministic given ``seed``."""
    if n < 1:
        raise ValueError("sample size must be at least 1")
    c_matrix, u_x, u_m, u_y = _draw_exogenous(scm, n, seed)
    x = scm.treatment.values(c_matrix, u_x)
    m = scm.mediator.values(np.column_stack([x, c_matrix]), u_m)
    y = scm.outcome.values(np.column_stack([x, m, c_matrix]), u_y)
    c_names = tuple(f"c{i+1}" for i in range(c_matrix.shape[1]))
    columns = {"x": x, "m": m, "y": y}
    for i, name in enumerate(c_names):
        columns[name] = c_matrix[:, i]
    return Dataset(columns, ColumnRoles("x", "m", "y", c_names))


# -- analytic observational CDFs ---------------------------------------------


def _step_mass(step, pred) -> float:
    # full and empty events are returned exactly, so that genuinely
    # zero-mass evidence is detected as zero rather than as summation dust
    cuts, values = step
    flags = [pred(v) for v in values]
    if all(flags):
        return 1.0
    if not any(flags):
        return 0.0
    edges = (0.0, *cuts, 1.0)
    return sum(edges[i + 1] - edges[i] for i, f in enumerate(flags) if f)


def _step_cdf(step, y: float, strict: bool) -> float:
    if strict:
        return _step_mass(step, lambda v: v < y)
    return _step_mass(step, lambda v: v <= y)


#: Query answers one :class:`AnalyticCdf` memoises before its memo starts over.
_ANSWER_LIMIT = 1 << 14


class AnalyticCdf:
    """Infinite-sample observational conditional CDFs of a threshold model,
    exposing the same query surface as the empirical estimator.

    The node steps, mediator pmfs and mediator supports are pure functions
    of the immutable model, and so is every query answer, so each instance
    caches them for its lifetime, keyed by ``float`` (``-0.0`` and ``0.0``
    share a key, as they compare equal).  The answers of
    ``cdf_y_given_xm``, ``joint_cdf_ym_given_x`` (which also serves
    ``cdf_y_given_x``), ``crossworld_cdf`` and ``outcome_levels`` are
    memoised under the query's name and its float arguments, with the
    strictness flags as ``bool``; that memo holds at most
    :data:`_ANSWER_LIMIT` answers and starts over when full."""

    def __init__(self, scm: ScmSpec, c_stratum: Sequence[float] | None = None):
        c = tuple(float(v) for v in (c_stratum or ()))
        if scm.covariates is not None and not c:
            raise UnsupportedSpecError(
                "analytic CDFs condition on a covariate stratum; pass c_stratum"
            )
        self.scm = scm
        self.c = c
        self._med_steps: dict = {}
        self._out_steps: dict = {}
        self._pmfs: dict = {}
        self._supports: dict = {}
        self._answers: dict = {}

    def _remember(self, key: tuple, answer):
        if len(self._answers) >= _ANSWER_LIMIT:
            self._answers.clear()
        self._answers[key] = answer
        return answer

    def _mediator_step(self, x: float):
        x = float(x)
        step = self._med_steps.get(x)
        if step is None:
            step = self._med_steps[x] = self.scm.mediator.step((x, *self.c))
        return step

    def _outcome_step(self, x: float, m: float):
        key = (float(x), float(m))
        step = self._out_steps.get(key)
        if step is None:
            step = self._out_steps[key] = self.scm.outcome.step((*key, *self.c))
        return step

    def x_levels(self) -> tuple[float, ...]:
        return self.scm.treatment_levels(self.c)

    def mediator_support(self, x: float) -> tuple[float, ...]:
        x = float(x)
        support = self._supports.get(x)
        if support is None:
            _, values = self._mediator_step(x)
            support = tuple(sorted({v for v in values if self.mediator_pmf(v, x) > 0.0}))
            self._supports[x] = support
        return support

    def mediator_pmf(self, m: float, x: float) -> float:
        key = (float(m), float(x))
        pmf = self._pmfs.get(key)
        if pmf is None:
            pmf = self._pmfs[key] = _step_mass(
                self._mediator_step(x), lambda v: v == key[0]
            )
        return pmf

    def cdf_y_given_xm(self, y: float, x: float, m: float, strict: bool = True) -> float:
        key = ("xm", float(y), float(x), float(m), bool(strict))
        answer = self._answers.get(key)
        if answer is None:
            answer = self._remember(key, _step_cdf(self._outcome_step(x, m), y, strict))
        return answer

    @staticmethod
    def _mixture(terms: list[tuple[float, float]]) -> float:
        """Normalized pmf-weighted mixture of cell CDFs; exact 0.0 / 1.0 at
        the empty and full boundaries regardless of weight rounding."""
        if not terms:
            return 0.0
        if all(c == 1.0 for _, c in terms):
            return 1.0
        if all(c == 0.0 for _, c in terms):
            return 0.0
        num = math.fsum(p * c for p, c in terms)
        den = math.fsum(p for p, _ in terms)
        return num / den

    def cdf_y_given_x(self, y: float, x: float, strict: bool = True) -> float:
        return self.joint_cdf_ym_given_x(y, POS_INF, x, strict)

    def joint_cdf_ym_given_x(
        self, y: float, m: float, x: float, strict_y: bool = True, strict_m: bool = True
    ) -> float:
        key = ("joint", float(y), float(m), float(x), bool(strict_y), bool(strict_m))
        answer = self._answers.get(key)
        if answer is not None:
            return answer
        support = self.mediator_support(x)
        included = [
            (self.mediator_pmf(level, x), self.cdf_y_given_xm(y, x, level, strict_y))
            for level in support
            if (level < m if strict_m else level <= m)
        ]
        if len(included) == len(support):
            return self._remember(key, self._mixture(included))
        num = math.fsum(p * c for p, c in included)
        den = math.fsum(self.mediator_pmf(level, x) for level in support)
        return self._remember(key, num / den)

    def crossworld_cdf(self, y: float, x_base: float, x_alt: float) -> float:
        key = ("crossworld", float(y), float(x_base), float(x_alt))
        answer = self._answers.get(key)
        if answer is None:
            terms = [
                (self.mediator_pmf(m, x_alt), self.cdf_y_given_xm(y, x_base, m))
                for m in self.mediator_support(x_alt)
            ]
            answer = self._remember(key, self._mixture(terms))
        return answer

    def outcome_levels(self) -> tuple[float, ...]:
        answer = self._answers.get(("levels",))
        if answer is None:
            levels: set[float] = set()
            for x in self.x_levels():
                for m in self.mediator_support(x):
                    _, values = self._outcome_step(x, m)
                    levels.update(values)
            answer = self._remember(("levels",), tuple(sorted(levels)))
        return answer


# -- counterfactual table ------------------------------------------------------


@dataclass(frozen=True)
class TruthReport:
    """Ground-truth values with their computation method.

    Exact values carry zero standard error; Monte Carlo values carry the
    binomial standard error sqrt(p (1 - p) / n).
    """

    values: dict
    method: str
    n: int | None
    se: dict


def _strata(scm: ScmSpec, q: Query):
    if q.c_stratum is not None:
        return ((tuple(q.c_stratum), 1.0),)
    return scm.covariate_support()


def _stripes(scm: ScmSpec, c: tuple, x_levels: Sequence[float]) -> list:
    """Stripes of the mediator-noise axis in stratum ``c`` on which the
    mediator under every one of ``x_levels`` is constant, as
    ``(width, {x: mediator value})`` pairs in increasing-``u`` order."""
    med_steps = {x: scm.mediator.step((x, *c)) for x in x_levels}
    m_cuts = sorted({cut for cuts, _ in med_steps.values() for cut in cuts})
    m_edges = (0.0, *m_cuts, 1.0)
    stripes = []
    for lo, hi in zip(m_edges, m_edges[1:]):
        mid = 0.5 * (lo + hi)
        med = {
            x: values[bisect.bisect_right(cuts, mid)]
            for x, (cuts, values) in med_steps.items()
        }
        stripes.append((hi - lo, med))
    return stripes


#: Exact partitions built by :func:`_partition`, least recently used first,
#: at most :data:`_PARTITION_LIMIT` of them.
_PARTITIONS: dict = {}
_PARTITION_LIMIT = 8


def _partition(scm: ScmSpec, strata, x_levels: tuple, xm_pairs: tuple):
    """Rectangle weights of the (u_M, u_Y) unit squares of ``strata`` and
    their stripes, as :func:`_square_cells` describes them."""
    weights, stripes = [], []
    for c, w_c in strata:
        steps = {}
        for w_m, by_x in _stripes(scm, c, x_levels):
            pairs = {(x1, by_x[x2]) for x1 in x_levels for x2 in x_levels}
            pairs.update(xm_pairs)
            for pair in pairs:
                if pair not in steps:
                    steps[pair] = scm.outcome.step((*pair, *c))
            y_cuts = sorted({cut for pair in pairs for cut in steps[pair][0]})
            y_edges = (0.0, *y_cuts, 1.0)
            mids = []
            stripes.append((len(weights), by_x, mids, steps, {}))
            for lo, hi in zip(y_edges, y_edges[1:]):
                weights.append(w_c * (w_m * (hi - lo)))
                mids.append(0.5 * (lo + hi))
    weights = np.array(weights)
    weights.flags.writeable = False
    return weights, stripes


def _square_cells(scm: ScmSpec, q: Query, e: Evidence | None):
    """Rectangles of the (u_M, u_Y) unit square of every stratum on which
    the mediator under each treatment level of ``q`` and ``e``, and the
    outcome of every reachable (x, mediator) pair and of the fixed
    mediator values, are constant.

    Returns the rectangle weights ``w_c * (w_m * w_y)`` in stratum,
    stripe, outcome-piece order (they sum to 1.0) and the ``med`` and
    ``outc`` column makers of :func:`_columns`.  Every mediator column
    those makers see is constant on a stripe, so ``outc`` reads it once
    per stripe and remembers it.

    The partition is decided by the mediator and outcome nodes, the
    strata, the treatment levels and the fixed (x, m) cells, so it is
    kept in :data:`_PARTITIONS` under those (the nodes by identity, never
    the model by equality: list-valued covariates are unhashable).  An
    entry holds its nodes, so their ids cannot be reused while it lives."""
    x_levels = [q.x_base, q.x_alt] + ([e.x_star] if e is not None else [])
    x_levels = tuple(dict.fromkeys(float(x) for x in x_levels))
    xm_pairs = []
    if q.m_fixed is not None:
        xm_pairs += [(q.x_base, q.m_fixed), (q.x_alt, q.m_fixed)]
    if e is not None and e.kind == KIND_POINT_MEDIATOR:
        xm_pairs.append((e.x_star, e.m_star))
    strata, xm_pairs = _strata(scm, q), tuple(xm_pairs)
    key = (id(scm.mediator), id(scm.outcome), strata, x_levels, xm_pairs)
    entry = _PARTITIONS.pop(key, None)
    if entry is None:
        if len(_PARTITIONS) >= _PARTITION_LIMIT:
            del _PARTITIONS[next(iter(_PARTITIONS))]
        entry = (scm.mediator, scm.outcome, *_partition(scm, strata, x_levels, xm_pairs))
    _PARTITIONS[key] = entry
    _, _, weights, stripes = entry

    def med(x):
        return np.array([by_x[x] for _, by_x, mids, _, _ in stripes for _ in mids])

    def outc(x, m_col):
        m_col, col = m_col.tolist(), []
        for start, _, mids, steps, seen in stripes:
            pair = (x, m_col[start])
            if pair not in seen:
                cuts, levels = steps[pair]
                seen[pair] = [levels[bisect.bisect_right(cuts, mid)] for mid in mids]
            col += seen[pair]
        return np.array(col)

    return weights, med, outc


def _mc_draws(scm: ScmSpec, q: Query, n: int, seed: int):
    """``n`` draws of the noise, shared by every intervention (marginal over
    covariates unless the query fixes a stratum): weights of 1.0 and the
    ``med`` and ``outc`` column makers of :func:`_columns`."""
    c_matrix, _, u_m, u_y = _draw_exogenous(scm, n, seed)
    if q.c_stratum is not None:
        c_matrix = np.tile(np.asarray(q.c_stratum, dtype=np.float64), (n, 1))

    def med(x):
        xs = np.full(n, float(x))
        return scm.mediator.values(np.column_stack([xs, c_matrix]), u_m)

    def outc(x, m_col):
        xs = np.full(n, float(x))
        return scm.outcome.values(np.column_stack([xs, m_col, c_matrix]), u_y)

    return np.ones(n), med, outc


def _columns(q: Query, e: Evidence | None, med, outc) -> dict:
    """The counterfactual columns of ``q`` and ``e``: ``med(x)`` is the
    mediator under treatment ``x`` and ``outc(x, m_col)`` the outcome under
    treatment ``x`` with the mediator held at ``m_col``, row by row."""
    m_base, m_alt = med(q.x_base), med(q.x_alt)
    cols = {
        "m_base": m_base,
        "m_alt": m_alt,
        "y_base": outc(q.x_base, m_base),
        "y_alt": outc(q.x_alt, m_alt),
        "y_cross": outc(q.x_base, m_alt),
        "y_nde": outc(q.x_alt, m_base),
    }
    if q.m_fixed is not None:
        fixed = np.full_like(m_base, q.m_fixed)
        cols["y_base_m"] = outc(q.x_base, fixed)
        cols["y_alt_m"] = outc(q.x_alt, fixed)
    if e is not None:
        m_star = med(e.x_star)
        cols["m_star"] = m_star
        cols["y_star"] = outc(e.x_star, m_star)
        if e.kind == KIND_POINT_MEDIATOR:
            cols["y_star_cell"] = outc(e.x_star, np.full_like(m_star, e.m_star))
    return cols


def _table(scm: ScmSpec, q: Query, e: Evidence | None, method: str, n: int, seed: int):
    """Row weights, their total and the counterfactual columns of ``q`` and
    ``e``: one row per rectangle of the exact partition (total 1.0), or per
    Monte Carlo draw (total ``n``)."""
    if method == "exact":
        (w, med, outc), total = _square_cells(scm, q, e), 1.0
    elif method == "mc":
        if n < 1:
            raise ValueError("sample size must be at least 1")
        (w, med, outc), total = _mc_draws(scm, q, n, seed), float(n)
    else:
        raise UnsupportedSpecError(f"unknown method {method!r}")
    return w, total, _columns(q, e, med, outc)


def _sum(v: np.ndarray) -> float:
    """Left-to-right sum of ``v``: the bits of a running ``+=`` from 0.0
    (``0.0 +`` turns a sum of ``-0.0`` terms into 0.0, as that running sum
    does).  Over weights of 1.0 it is the integer count that ``np.mean``
    divides."""
    return 0.0 + float(np.cumsum(v)[-1]) if v.size else 0.0


def _inside(iv, v: np.ndarray) -> np.ndarray:
    """Row-wise ``iv.contains``."""
    below_upper = v <= iv.upper if iv.upper_closed else v < iv.upper
    return (iv.lower <= v) & below_upper


def _flips(q: Query, cols: dict) -> dict:
    """Total, natural direct and natural indirect flip events (and the
    controlled-direct one when ``m_fixed`` is set)."""
    y = q.y_threshold
    flip = (cols["y_base"] < y) & (y <= cols["y_alt"])
    ind = {
        "t_pns": flip,
        "nd_pns": flip & (cols["y_cross"] < y),
        "ni_pns": flip & (y <= cols["y_cross"]),
    }
    if q.m_fixed is not None:
        ind["cd_pns"] = (cols["y_base_m"] < y) & (y <= cols["y_alt_m"])
    return ind


def _report(values: dict, method: str, n: int | None) -> TruthReport:
    """Exact values, or Monte Carlo ones from ``n`` draws with their
    binomial standard errors."""
    if method == "exact":
        return TruthReport(values, "exact", None, dict.fromkeys(values, 0.0))
    se = {k: math.sqrt(max(p * (1 - p), 0.0) / n) for k, p in values.items()}
    return TruthReport(values, "mc", n, se)


def truth_pns(
    scm: ScmSpec, q: Query, method: str = "exact", n: int = 100_000, seed: int = 0
) -> TruthReport:
    """Definitional total/direct/indirect flip probabilities (and the
    controlled-direct one when ``m_fixed`` is set), computed from the
    counterfactual events on shared noise."""
    w, total, cols = _table(scm, q, None, method, n, seed)
    values = {k: _sum(w[flip]) / total for k, flip in _flips(q, cols).items()}
    return _report(values, method, n)


def _limit_indicators(q: Query, e: Evidence, w: np.ndarray, cols: dict) -> dict:
    """Zero-mass evidence: value of the conditional quantities in the limit
    construction, i.e. the counterfactual event evaluated at the noise
    threshold that the evidence interval collapses onto.  Region measures
    are interventional (computed on the noise partition, not through
    observational conditionals); the boundary point groups with the closed
    side, matching the half-open interval convention."""
    y = q.y_threshold
    if e.kind == KIND_POINT_MEDIATOR:
        # one-dimensional: everything lives on the outcome-noise axis
        a = _sum(w[cols["y_base_m"] < y])
        b = _sum(w[cols["y_alt_m"] < y])
        low = _sum(w[cols["y_star_cell"] < e.interval_y.lower])
        return {"cd_pns": 1.0 if (b <= low < a) else 0.0}
    a, b, r = (_sum(w[cols[k] < y]) for k in ("y_base", "y_alt", "y_cross"))
    below = cols["y_star"] < e.interval_y.lower
    if e.kind == KIND_INTERVAL_MEDIATOR:
        below &= cols["m_star"] < e.interval_m.lower
    low = _sum(w[below])
    inside = b <= low < a
    return {
        "t_pns": 1.0 if inside else 0.0,
        "nd_pns": 1.0 if (inside and low < r) else 0.0,
        "ni_pns": 1.0 if (inside and r <= low) else 0.0,
    }


def truth_with_evidence(
    scm: ScmSpec,
    q: Query,
    e: Evidence,
    method: str = "exact",
    n: int = 100_000,
    seed: int = 0,
    degenerate: str = "error",
) -> TruthReport:
    """Definitional conditional flip probabilities given a factual evidence
    event.

    With zero-probability evidence the conditional is undefined;
    ``degenerate="error"`` raises :class:`ConditioningError`, while
    ``degenerate="threshold-limit"`` returns the limit-construction values
    (see :func:`_limit_indicators`).
    """
    if e.kind == KIND_POINT_MEDIATOR and q.m_fixed is None:
        raise InvalidEvidenceError("point-mediator evidence requires m_fixed")
    w, _, cols = _table(scm, q, e, method, n, seed)
    if e.kind == KIND_POINT_MEDIATOR:
        ev = (cols["m_star"] == e.m_star) & _inside(e.interval_y, cols["y_star_cell"])
        names = ["cd_pns"]
    else:
        ev = _inside(e.interval_y, cols["y_star"])
        if e.kind == KIND_INTERVAL_MEDIATOR:
            ev &= _inside(e.interval_m, cols["m_star"])
        names = ["t_pns", "nd_pns", "ni_pns"]
    den = _sum(w[ev])
    if den == 0.0:
        if method == "mc":
            raise ConditioningError("no Monte Carlo draws satisfy the evidence event")
        if degenerate == "threshold-limit":
            return _report(_limit_indicators(q, e, w, cols), method, None)
        raise ConditioningError("evidence event has zero probability")
    flips = _flips(q, cols)
    values = {k: _sum(w[flips[k] & ev]) / den for k in names}
    return _report(values, method, int(den))


def truth_effects(
    scm: ScmSpec, q: Query, method: str = "exact", n: int = 100_000, seed: int = 0
) -> TruthReport:
    """Mean-scale diagnostics: total, controlled-direct (when ``m_fixed``
    is set), natural direct, and natural indirect effects.  The total
    effect decomposes as te(x', x) = nde(x', x) - nie(x, x')."""
    w, total, cols = _table(scm, q, None, method, n, seed)
    contrasts = {
        "te": ("y_alt", "y_base"),
        "nde": ("y_nde", "y_base"),
        "nie": ("y_cross", "y_base"),
    }
    if q.m_fixed is not None:
        contrasts["cde"] = ("y_alt_m", "y_base_m")
    sums = {k: _sum(w * cols[k]) for pair in contrasts.values() for k in pair}
    values = {k: (sums[a] - sums[b]) / total for k, (a, b) in contrasts.items()}
    if method == "exact":
        return TruthReport(values, "exact", None, {})
    se = {
        k: float(np.std(cols[a] - cols[b]) / math.sqrt(n))
        for k, (a, b) in contrasts.items()
    }
    return TruthReport(values, "mc", n, se)


# -- monotone-coupling diagnostics --------------------------------------------


def _step_regions(step, thresholds) -> dict[float, tuple[tuple[float, float], ...]]:
    """For each threshold y, the u-intervals where the step value is < y."""
    cuts, values = step
    edges = (0.0, *cuts, 1.0)
    out = {}
    for y in thresholds:
        ivs = []
        for i, v in enumerate(values):
            if v < y:
                lo, hi = edges[i], edges[i + 1]
                if ivs and ivs[-1][1] == lo:
                    ivs[-1] = (ivs[-1][0], hi)
                else:
                    ivs.append((lo, hi))
        out[y] = tuple(ivs)
    return out


def _interval_subtract_measure(a, b) -> float:
    """Measure of set difference a - b for sorted disjoint interval lists."""
    total = 0.0
    for lo, hi in a:
        cursor = lo
        for blo, bhi in b:
            if bhi <= cursor or blo >= hi:
                continue
            if blo > cursor:
                total += blo - cursor
            cursor = max(cursor, min(bhi, hi))
            if cursor >= hi:
                break
        if cursor < hi:
            total += hi - cursor
    return total


_TOL = 1e-12


@dataclass(frozen=True)
class MonotonicityReport:
    """Crossing diagnostics for the shared-noise coupling.

    Each violation records a pair of counterfactual sub-level regions with
    positive measure on both set differences, i.e. a two-sided crossing
    that breaks the one-sidedness the identification formulas rely on.
    The compound check covers every pair of (treatment-of-outcome,
    treatment-of-mediator, threshold) regions, including unequal
    thresholds, so a passing model supports the with-evidence formulas as
    well."""

    outcome_violations: tuple
    compound_violations: tuple
    mediator_violations: tuple

    @property
    def outcome_ok(self) -> bool:
        return not self.outcome_violations

    @property
    def compound_ok(self) -> bool:
        return not self.compound_violations

    @property
    def mediator_ok(self) -> bool:
        return not self.mediator_violations

    @property
    def ok(self) -> bool:
        return self.outcome_ok and self.compound_ok


def _crossings(regions: Sequence[Sequence], weights: Sequence[float]):
    """Every pair ``i < j`` of ``regions``, in row-major order, whose two
    set differences both exceed ``_TOL``, as ``(i, j, d1, d2)``.

    A region is one sorted disjoint interval list per stripe of weight
    ``weights[s]``.  All differences are first estimated at once: the unit
    interval is cut at every region end, a 0/1 matrix marks the pieces
    each region covers, and ``d[i, j] = |i| - |i & j|`` is one matrix
    product.  The estimate differs from the exact subtraction by rounding
    only, a few ulps per piece (~1e-15 for a few dozen pieces), so a pair
    whose estimate stays below ``_TOL / 2`` (or below a margin widened by
    that rounding bound, for very many pieces) cannot cross.  The pairs
    kept are measured again by exact interval subtraction, which alone
    decides and reports them; a single stripe of weight ``1.0`` leaves
    that measure unchanged."""
    points = sorted({p for region in regions for ivs in region for iv in ivs for p in iv})
    if len(points) < 2:
        return
    index = {p: k for k, p in enumerate(points)}
    n_pieces = len(points) - 1
    cover = np.zeros((len(regions), len(weights) * n_pieces))
    for r, region in enumerate(regions):
        for s, ivs in enumerate(region):
            for lo, hi in ivs:
                cover[r, s * n_pieces + index[lo] : s * n_pieces + index[hi]] = 1.0
    mass = cover * np.outer(weights, np.diff(points)).ravel()
    d = mass.sum(axis=1)[:, None] - mass @ cover.T
    rounding = 4 * np.finfo(np.float64).eps * cover.shape[1]
    rows, cols = np.nonzero(np.minimum(d, d.T) > min(_TOL / 2, _TOL - rounding))
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i >= j:
            continue
        d1 = d2 = 0.0
        for w, iv1, iv2 in zip(weights, regions[i], regions[j]):
            d1 += w * _interval_subtract_measure(iv1, iv2)
            d2 += w * _interval_subtract_measure(iv2, iv1)
        if d1 > _TOL and d2 > _TOL:
            yield i, j, d1, d2


def _crossing_events(scm: ScmSpec, mediator: bool = True):
    """Every two-sided crossing between counterfactual sub-level regions
    over the threshold partition, lazily, as ``(kind, violation)`` with
    ``kind`` one of ``"outcome"``, ``"compound"`` and ``"mediator"``: per
    covariate stratum the outcome crossings, then the compound ones, then
    (unless ``mediator`` is false) the mediator ones.  A consumer that
    stops early skips the regions and exact measures after it."""
    for c, _w in scm.covariate_support():
        x_levels = scm.treatment_levels(c)
        m_levels = scm.mediator_levels(c)

        # outcome thresholds: distinct values across all cells
        y_values: set[float] = set()
        out_steps = {}
        for x in x_levels:
            for m in m_levels:
                step = scm.outcome.step((x, m, *c))
                out_steps[(x, m)] = step
                y_values.update(step[1])
        y_grid = tuple(sorted(y_values))

        cell_regions = {
            key: _step_regions(step, y_grid) for key, step in out_steps.items()
        }
        tagged = [(key, y) for key in out_steps for y in y_grid]
        regions = [(cell_regions[key][y],) for key, y in tagged]
        for i, j, d1, d2 in _crossings(regions, (1.0,)):
            yield "outcome", (c, tagged[i], tagged[j], d1, d2)

        # compound regions on the square, expressed on shared stripes
        stripes = _stripes(scm, c, x_levels)
        ctagged = [((x1, x2), y) for x1 in x_levels for x2 in x_levels for y in y_grid]
        regions = [
            [cell_regions[(x_out, med[x_med])][y] for _w2, med in stripes]
            for (x_out, x_med), y in ctagged
        ]
        for i, j, d1, d2 in _crossings(regions, [w_s for w_s, _ in stripes]):
            yield "compound", (c, ctagged[i], ctagged[j], d1, d2)

        if not mediator:
            continue
        # mediator response regions (relevant to joint-evidence use)
        m_grid = tuple(sorted(m_levels))
        med_regions = {
            x: _step_regions(scm.mediator.step((x, *c)), m_grid) for x in x_levels
        }
        mtagged = [(x, m) for x in x_levels for m in m_grid]
        regions = [(med_regions[x][m],) for x, m in mtagged]
        for i, j, d1, d2 in _crossings(regions, (1.0,)):
            yield "mediator", (c, mtagged[i], mtagged[j], d1, d2)


def check_monotonicity(scm: ScmSpec) -> MonotonicityReport:
    """Compare every pair of counterfactual sub-level regions over the
    threshold partition and report every two-sided crossing.

    Pairs are pruned by a vectorised estimate of both set differences;
    every reported crossing is measured by exact interval subtraction
    (see :func:`_crossings`)."""
    found = {"outcome": [], "compound": [], "mediator": []}
    for kind, violation in _crossing_events(scm):
        found[kind].append(violation)
    return MonotonicityReport(*(tuple(v) for v in found.values()))

