"""Ground-truth engine for threshold structural models.

A model is three structural nodes (treatment, mediator, outcome), each a
deterministic function of its observed parents and one independent
uniform-[0,1] noise source, plus an optional finite covariate table.
Discrete nodes are encoded as step functions of their uniform source
(thresholds), which makes the noise coupling explicit: the same uniform
draw is shared by a node across all interventions, so counterfactual
quantities are well defined and exactly computable.

Every truth is computed exactly, from one table of counterfactual columns
(the mediator and outcome under each intervention) with one weight per
row.  The (mediator-noise, outcome-noise) unit square of each covariate
stratum is partitioned into rectangles on which every column is constant,
one row per rectangle weighted by its area times the stratum weight, and
a truth is a weighted sum of indicators on that table.  Sampling
(:func:`sample_observational`) goes through each node's ``draw``, which
gives every uniform in a rectangle that rectangle's value.
The exact partition is kept in the ``functools.lru_cache`` of
:func:`_partition` under the inputs that decide it, so the truths of one
query and its evidence variants build it once; each entry also memoises,
read-only, every counterfactual column built on it, so those truths build
each column once, and the memo goes with its entry.
Observational conditional CDFs implied by a model are exposed through
:class:`AnalyticCdf`, which duck-types the empirical estimator surface so
identification formulas can be evaluated at infinite-sample truth; each
instance memoises its answers, the mediator pmfs and supports among them,
in one memo for its lifetime.

:func:`check_monotonicity` collects every crossing that the lazy
:func:`_crossing_events` yields; the oracle-equivalence suite's gate stops
at the first outcome or compound crossing instead.  A covariate stratum
whose steps all ascend, as in every model the suites draw, takes a closed
form: each of its sub-level regions is a prefix of its stripe, so only
compound regions can cross.  Any other stratum measures every pair of
its regions by exact interval subtraction.  Either way every report is
the one exact interval subtraction gives.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

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

    #: bit patterns of the node's values 0.0 and 1.0, in increasing order
    _BITS = np.array([0.0, 1.0]).view(np.int64)
    _BITS.flags.writeable = False

    def __init__(self, intercept: float, coefs: Sequence[float] = ()):
        self.intercept = float(intercept)
        self.coefs = tuple(float(c) for c in coefs)
        if not all(map(math.isfinite, (self.intercept, *self.coefs))):
            raise UnsupportedSpecError(
                f"logistic node needs finite parameters, got intercept "
                f"{self.intercept!r} and coefs {list(self.coefs)!r}"
            )

    def _require_parents(self, count: int) -> None:
        if count != len(self.coefs):
            raise UnsupportedSpecError(
                f"logistic node expects {len(self.coefs)} parents, got {count}"
            )

    def prob_one(self, parents: Sequence[float]) -> float:
        self._require_parents(len(parents))
        return sigmoid(self.intercept + sum(c * p for c, p in zip(self.coefs, parents)))

    def step(self, parents: Sequence[float]):
        return bernoulli_cell(self.prob_one(parents))

    def draw(self, cols: Sequence[np.ndarray], codings: Sequence, u: np.ndarray):
        """Values and ``(bits, codes)`` coding for parent columns ``cols``;
        the codes are the ``u < p`` comparison (``codings`` is not read).
        ``p`` is :meth:`prob_one`'s, bit for bit: the predictor is summed
        in its order and each distinct one goes through :func:`sigmoid`."""
        self._require_parents(len(cols))
        s = np.zeros(u.shape)
        for j, c in enumerate(self.coefs):
            s = s + c * cols[j]
        t, row = np.unique(self.intercept + s, return_inverse=True)
        hit = u < np.array([sigmoid(v) for v in t.tolist()])[row]
        return hit.astype(np.float64), (self._BITS, hit.view(np.uint8))


def _match(levels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each value's index in the sorted ``levels``, which end in a NaN: the
    NaN's index for a value equal to none of the others."""
    code = np.searchsorted(levels, values)
    return np.where(levels[code] == values, code, levels.size - 1)


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
            if not all(map(math.isfinite, key + values)):
                raise UnsupportedSpecError(
                    f"cell {key!r}: parents and values must be finite, got values {list(values)!r}"
                )
            table[key] = (cuts, values)
        self._table = table
        self._lookup = None  # built by the first call of draw

    def step(self, parents: Sequence[float]):
        key = tuple(float(p) for p in parents)
        try:
            return self._table[key]
        except KeyError:
            raise UnsupportedSpecError(f"no table cell for parents {key!r}") from None

    def _sampler(self, k: int):
        """The lookup of :meth:`draw` for ``k`` parents, built on first use:
        each parent position's key levels with a NaN appended, which stands
        for any other value; one table per position that maps a key
        prefix's id and the next level to the longer prefix's id (past the
        last if no key has it); the node's distinct value bit patterns; and
        per cell id, the cell's cuts and the codes of its values."""
        if self._lookup is None or self._lookup[0] != k:
            keys = [key for key in self._table if len(key) == k]
            levels = [np.append(np.unique([key[j] for key in keys]), np.nan) for j in range(k)]
            ids, size, tables = np.zeros(len(keys), dtype=np.intp), 1, []
            for j, lv in enumerate(levels):
                codes = np.searchsorted(lv, [key[j] for key in keys])
                prefixes, ids = np.unique(ids * lv.size + codes, return_inverse=True)
                tables.append(np.full((size + 1, lv.size), prefixes.size))
                tables[-1].flat[prefixes], size = np.arange(prefixes.size), prefixes.size
            cells = [self._table[key] for key in keys]
            bits = np.unique(np.array([v for _, values in cells for v in values]).view(np.int64))
            steps = [None] * len(keys)
            for i, (cuts, values) in zip(ids.tolist(), cells):
                codes = np.searchsorted(bits, np.array(values).view(np.int64))
                steps[i] = (np.array(cuts), codes.astype(np.min_scalar_type(bits.size)))
            self._lookup = (k, levels, tables, bits, steps)
        return self._lookup[1:]

    def draw(self, cols: Sequence[np.ndarray], codings: Sequence, u: np.ndarray):
        """Values and ``(bits, codes)`` coding for parent columns ``cols``
        and uniforms ``u``: ``bits`` are the node's distinct value bit
        patterns, sorted as int64, and ``codes`` each row's index in them.

        ``codings[j]`` is the ``(bits, codes)`` coding of ``cols[j]``, or
        ``None`` to code that column by ``searchsorted`` against the key
        levels.  Each parent's levels are mapped onto the node's key levels
        once, so a row reaches its cell id by one gather per parent and no
        coded column is searched.  A stable sort of the cell ids gathers
        each cell's rows.  A row without a table cell raises for the
        smallest such combination in lexicographic order.
        """
        if not cols:
            self.step(())
        levels, tables, bits, steps = self._sampler(len(cols))
        cell = np.zeros(u.size, dtype=np.intp)
        for j, (lv, table, col, coding) in enumerate(zip(levels, tables, cols, codings)):
            src, codes = (lv.view(np.int64), _match(lv, col)) if coding is None else coding
            remapped = table[:, _match(lv, src.view(np.float64))]
            cell = remapped.ravel()[cell * src.size + codes if j else codes]
        missing = cell == len(steps)
        if missing.any():
            rows = np.column_stack(cols)[missing]
            self.step(rows[np.lexsort(rows.T[::-1])[0]].tolist())
        out = np.empty(u.size, dtype=np.min_scalar_type(bits.size))
        order = np.argsort(cell.astype(np.min_scalar_type(len(steps))), kind="stable")
        counts = np.bincount(cell, minlength=len(steps))
        present = np.flatnonzero(counts)
        for i, rows in zip(present.tolist(), np.split(order, np.cumsum(counts[present])[:-1])):
            cuts, codes = steps[i]
            out[rows] = codes[np.searchsorted(cuts, u[rows], side="right")]
        return bits.view(np.float64)[out], (bits, out)


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
        weights = [w for _, w in pairs]
        total = sum(weights)
        if not all(math.isfinite(w) and w >= 0 for w in weights) or not 0 < total < math.inf:
            raise UnsupportedSpecError(
                f"covariate weights must be finite and non-negative with a positive, "
                f"finite total, got {weights!r}"
            )
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
    each draw depends only on (seed, position).  The chunk layout stays as
    it is because every sampled table, golden and benchmark digest depends
    on this stream."""
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
    """Covariate rows, each covariate column's ``(bits, codes)`` coding
    (from the support index of each row), and the node uniforms."""
    support = scm.covariate_support()
    u = _uniform_matrix(seed, n, 4)
    if scm.covariates is None:
        return np.empty((n, 0)), [], u[:, 1], u[:, 2], u[:, 3]
    weights = np.cumsum([w for _, w in support])
    idx = np.searchsorted(weights, u[:, 0], side="right")
    idx = np.minimum(idx, len(support) - 1)
    points = np.asarray([c for c, _ in support], dtype=np.float64)
    codings = []
    for col in points.T:
        bits, codes = np.unique(col.view(np.int64), return_inverse=True)
        codings.append((bits, codes.astype(np.min_scalar_type(bits.size))[idx]))
    return points[idx], codings, u[:, 1], u[:, 2], u[:, 3]


def sample_observational(scm: ScmSpec, n: int, seed: int) -> Dataset:
    """Draw ``n`` iid observational rows; deterministic given ``seed``.

    Each column is drawn with its ``(bits, codes)`` coding (see
    :meth:`TableNode.draw`), and a table node reads its parents' codings
    instead of searching their columns.  The :class:`Dataset` keeps the
    codings, so :meth:`Dataset.to_csv` sorts none of those columns."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("sample size must be at least 1")
    c_matrix, c_codings, u_x, u_m, u_y = _draw_exogenous(scm, n, seed)
    c_cols = list(c_matrix.T)
    x, x_coding = scm.treatment.draw(c_cols, c_codings, u_x)
    m, m_coding = scm.mediator.draw([x, *c_cols], [x_coding, *c_codings], u_m)
    y, y_coding = scm.outcome.draw([x, m, *c_cols], [x_coding, m_coding, *c_codings], u_y)
    c_names = tuple(f"c{i+1}" for i in range(c_matrix.shape[1]))
    columns = {"x": x, "m": m, "y": y, **dict(zip(c_names, c_cols))}
    codings = {"x": x_coding, "m": m_coding, "y": y_coding, **dict(zip(c_names, c_codings))}
    return Dataset(columns, ColumnRoles("x", "m", "y", c_names), codings=codings)


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

    Every answer is a pure function of the immutable model, so each
    instance memoises its answers for its lifetime in one dict, under the
    query's name and its arguments as ``float`` (``-0.0`` and ``0.0``
    share a key, as they compare equal) and the strictness flags as
    ``bool``: ``mediator_pmf``, ``mediator_support``, ``cdf_y_given_xm``,
    ``joint_cdf_ym_given_x`` (which also serves ``cdf_y_given_x``),
    ``crossworld_cdf`` and ``outcome_levels``.  Node steps are read from
    the model at each answer worked out.  The memo holds at most
    :data:`_ANSWER_LIMIT` answers and starts over when full."""

    def __init__(self, scm: ScmSpec, c_stratum: Sequence[float] | None = None):
        c = () if c_stratum is None else tuple(float(v) for v in c_stratum)
        if scm.covariates is not None and not c:
            raise UnsupportedSpecError(
                "analytic CDFs condition on a covariate stratum; pass c_stratum"
            )
        self.scm = scm
        self.c = c
        self._answers: dict = {}

    def _remember(self, key: tuple, answer):
        if len(self._answers) >= _ANSWER_LIMIT:
            self._answers.clear()
        self._answers[key] = answer
        return answer

    def x_levels(self) -> tuple[float, ...]:
        return self.scm.treatment_levels(self.c)

    def mediator_support(self, x: float) -> tuple[float, ...]:
        key = ("support", float(x))
        support = self._answers.get(key)
        if support is None:
            _, values = self.scm.mediator.step((key[1], *self.c))
            levels = {v for v in values if self.mediator_pmf(v, x) > 0.0}
            support = self._remember(key, tuple(sorted(levels)))
        return support

    def mediator_pmf(self, m: float, x: float) -> float:
        key = ("pmf", float(m), float(x))
        pmf = self._answers.get(key)
        if pmf is None:
            step = self.scm.mediator.step((key[2], *self.c))
            pmf = self._remember(key, _step_mass(step, lambda v: v == key[1]))
        return pmf

    def cdf_y_given_xm(self, y: float, x: float, m: float, strict: bool = True) -> float:
        key = ("xm", float(y), float(x), float(m), bool(strict))
        answer = self._answers.get(key)
        if answer is None:
            step = self.scm.outcome.step((key[2], key[3], *self.c))
            answer = self._remember(key, _step_cdf(step, y, strict))
        return answer

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
        num = math.fsum(
            self.mediator_pmf(level, x) * self.cdf_y_given_xm(y, x, level, strict_y)
            for level in support
            if (level < m if strict_m else level <= m)
        )
        den = math.fsum(self.mediator_pmf(level, x) for level in support)
        return self._remember(key, num / den)

    def crossworld_cdf(self, y: float, x_base: float, x_alt: float) -> float:
        key = ("crossworld", float(y), float(x_base), float(x_alt))
        answer = self._answers.get(key)
        if answer is None:
            support = self.mediator_support(x_alt)
            num = math.fsum(
                self.mediator_pmf(m, x_alt) * self.cdf_y_given_xm(y, x_base, m) for m in support
            )
            den = math.fsum(self.mediator_pmf(m, x_alt) for m in support)
            answer = self._remember(key, num / den)
        return answer

    def outcome_levels(self) -> tuple[float, ...]:
        answer = self._answers.get(("levels",))
        if answer is None:
            levels: set[float] = set()
            for x in self.x_levels():
                for m in self.mediator_support(x):
                    _, values = self.scm.outcome.step((x, m, *self.c))
                    levels.update(values)
            answer = self._remember(("levels",), tuple(sorted(levels)))
        return answer


# -- counterfactual table ------------------------------------------------------


@dataclass(frozen=True)
class TruthReport:
    """Exact ground-truth values, by quantity name."""

    values: dict


def _strata(scm: ScmSpec, q: Query):
    if q.c_stratum is not None:
        return ((tuple(q.c_stratum), 1.0),)
    return scm.covariate_support()


def _stripes(mediator, c: tuple, x_levels: Sequence[float]) -> list:
    """Stripes of the mediator-noise axis in stratum ``c`` on which the
    ``mediator`` node under every one of ``x_levels`` is constant, as
    ``(width, {x: mediator value})`` pairs in increasing-``u`` order."""
    med_steps = {x: mediator.step((x, *c)) for x in x_levels}
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


@functools.lru_cache(maxsize=8)
def _partition(mediator, outcome, strata, x_levels: tuple, xm_pairs: tuple):
    """Rectangle weights of the (u_M, u_Y) unit squares of ``strata`` and
    the ``column`` maker over them, as :func:`_square_cells` describes
    them; the last 8 are kept."""
    weights, stripes = [], []
    for c, w_c in strata:
        steps = {}
        for w_m, by_x in _stripes(mediator, c, x_levels):
            pairs = {(x1, by_x[x2]) for x1 in x_levels for x2 in x_levels}
            pairs.update(xm_pairs)
            for pair in pairs:
                if pair not in steps:
                    steps[pair] = outcome.step((*pair, *c))
            y_cuts = sorted({cut for pair in pairs for cut in steps[pair][0]})
            y_edges = (0.0, *y_cuts, 1.0)
            mids = []
            stripes.append((by_x, mids, steps))
            for lo, hi in zip(y_edges, y_edges[1:]):
                weights.append(w_c * (w_m * (hi - lo)))
                mids.append(0.5 * (lo + hi))
    weights = np.array(weights)
    weights.flags.writeable = False
    return weights, _column_maker(stripes)


def _square_cells(scm: ScmSpec, q: Query, e: Evidence | None):
    """Rectangles of the (u_M, u_Y) unit square of every stratum on which
    the mediator under each treatment level of ``q`` and ``e``, and the
    outcome of every reachable (x, mediator) pair and of the fixed
    mediator values, are constant.

    Returns the rectangle weights ``w_c * (w_m * w_y)`` in stratum,
    stripe, outcome-piece order (they sum to 1.0) and the ``column``
    maker of :func:`_columns`.

    The partition is decided by the mediator and outcome nodes, the
    strata, the treatment levels and the fixed (x, m) cells, so
    :func:`_partition`'s ``lru_cache`` keeps it under those, never under
    the model (list-valued covariates are unhashable).  No node class
    defines ``__eq__``, so the nodes are keyed by identity, and an entry
    holds its nodes, so their ids cannot be reused while it lives.  Its
    column maker memoises every counterfactual column built on it under
    the column's key, so the truths of one query and its evidence
    variants build each column once.  That memo holds at most the
    mediator under each treatment level and the outcome under each pair
    of levels or fixed cell, and it is dropped with its entry."""
    x_levels = [q.x_base, q.x_alt] + ([e.x_star] if e is not None else [])
    x_levels = tuple(dict.fromkeys(float(x) for x in x_levels))
    xm_pairs = []
    if q.m_fixed is not None:
        xm_pairs += [(q.x_base, q.m_fixed), (q.x_alt, q.m_fixed)]
    if e is not None and e.kind == KIND_POINT_MEDIATOR:
        xm_pairs.append((e.x_star, e.m_star))
    return _partition(scm.mediator, scm.outcome, _strata(scm, q), x_levels, tuple(xm_pairs))


def _column_maker(stripes: list):
    """The ``column`` maker of :func:`_columns` over the rectangles of
    ``stripes``, one value per rectangle: a stripe's mediator under each
    treatment level and its outcome steps are read at the stripe's
    outcome-piece midpoints."""

    def build(_column, kind, x, other=None):
        if kind == "med":
            return np.array([by_x[x] for by_x, mids, _ in stripes for _ in mids])
        col = []
        for by_x, mids, steps in stripes:
            cuts, levels = steps[(x, by_x[other] if kind == "arm" else other)]
            col += [levels[bisect.bisect_right(cuts, mid)] for mid in mids]
        return np.array(col)

    return _Columns(build)


class _Columns:
    """A partition's column maker, ``column(*key)``: ``build(column,
    *key)`` with its columns remembered under their keys and made
    read-only, so a column asked for again is the same array.  ``build``
    is handed the maker at each call, so it can build a column from
    another and no reference cycle keeps the memo alive."""

    def __init__(self, build):
        self._build = build
        self._memo = {}

    def __call__(self, *key):
        col = self._memo.get(key)
        if col is None:
            col = self._memo[key] = self._build(self, *key)
            col.flags.writeable = False
        return col


def _columns(q: Query, e: Evidence | None, column) -> dict:
    """The counterfactual columns of ``q`` and ``e``, row by row.  Each is
    asked of ``column`` by what it is: ``column("med", x)`` is the mediator
    under treatment ``x``, ``column("arm", x, a)`` the outcome under ``x``
    with the mediator of arm ``a``, and ``column("at", x, m)`` the outcome
    under ``x`` with the mediator held at ``m``, one value per rectangle.
    ``column`` builds each key once per partition (:class:`_Columns`), for
    every truth that reads that partition."""
    cols = {
        "m_base": column("med", q.x_base),
        "m_alt": column("med", q.x_alt),
        "y_base": column("arm", q.x_base, q.x_base),
        "y_alt": column("arm", q.x_alt, q.x_alt),
        "y_cross": column("arm", q.x_base, q.x_alt),
        "y_nde": column("arm", q.x_alt, q.x_base),
    }
    if q.m_fixed is not None:
        cols["y_base_m"] = column("at", q.x_base, q.m_fixed)
        cols["y_alt_m"] = column("at", q.x_alt, q.m_fixed)
    if e is not None:
        cols["m_star"] = column("med", e.x_star)
        cols["y_star"] = column("arm", e.x_star, e.x_star)
        if e.kind == KIND_POINT_MEDIATOR:
            cols["y_star_cell"] = column("at", e.x_star, e.m_star)
    return cols


def _table(scm: ScmSpec, q: Query, e: Evidence | None):
    """Rectangle weights of the exact partition (they sum to 1.0) and the
    counterfactual columns of ``q`` and ``e``, one row per rectangle."""
    w, column = _square_cells(scm, q, e)
    return w, _columns(q, e, column)


def _sum(v: np.ndarray) -> float:
    """Left-to-right sum of ``v``: the bits of a running ``+=`` from 0.0
    (``0.0 +`` turns a sum of ``-0.0`` terms into 0.0, as that running sum
    does).  The rectangle weights sum to 1.0, so the summed weights of an
    event are its probability."""
    return 0.0 + float(np.cumsum(v)[-1]) if v.size else 0.0


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


def truth_pns(scm: ScmSpec, q: Query) -> TruthReport:
    """Definitional total/direct/indirect flip probabilities (and the
    controlled-direct one when ``m_fixed`` is set), computed from the
    counterfactual events on shared noise."""
    w, cols = _table(scm, q, None)
    return TruthReport({k: _sum(w[flip]) for k, flip in _flips(q, cols).items()})


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
    degenerate: str = "error",
) -> TruthReport:
    """Definitional conditional flip probabilities given a factual evidence
    event.

    With zero-probability evidence the conditional is undefined;
    ``degenerate="error"`` raises :class:`ConditioningError`, while
    ``degenerate="threshold-limit"`` returns the limit-construction values
    (see :func:`_limit_indicators`); any other value raises
    :class:`UnsupportedSpecError`.
    """
    if degenerate not in ("error", "threshold-limit"):
        raise UnsupportedSpecError(
            f"unknown degenerate {degenerate!r}: use 'error' or 'threshold-limit'"
        )
    if e.kind == KIND_POINT_MEDIATOR and q.m_fixed is None:
        raise InvalidEvidenceError("point-mediator evidence requires m_fixed")
    w, cols = _table(scm, q, e)
    if e.kind == KIND_POINT_MEDIATOR:
        ev = (cols["m_star"] == e.m_star) & e.interval_y.contains(cols["y_star_cell"])
        names = ["cd_pns"]
    else:
        ev = e.interval_y.contains(cols["y_star"])
        if e.kind == KIND_INTERVAL_MEDIATOR:
            ev &= e.interval_m.contains(cols["m_star"])
        names = ["t_pns", "nd_pns", "ni_pns"]
    den = _sum(w[ev])
    if den == 0.0:
        if degenerate == "threshold-limit":
            return TruthReport(_limit_indicators(q, e, w, cols))
        raise ConditioningError("evidence event has zero probability")
    flips = _flips(q, cols)
    return TruthReport({k: _sum(w[flips[k] & ev]) / den for k in names})


def truth_effects(scm: ScmSpec, q: Query) -> TruthReport:
    """Mean-scale diagnostics: total, controlled-direct (when ``m_fixed``
    is set), natural direct, and natural indirect effects.  The total
    effect decomposes as te(x', x) = nde(x', x) - nie(x, x')."""
    w, cols = _table(scm, q, None)
    contrasts = {
        "te": ("y_alt", "y_base"),
        "nde": ("y_nde", "y_base"),
        "nie": ("y_cross", "y_base"),
    }
    if q.m_fixed is not None:
        contrasts["cde"] = ("y_alt_m", "y_base_m")
    sums = {k: _sum(w * cols[k]) for pair in contrasts.values() for k in pair}
    return TruthReport({k: sums[a] - sums[b] for k, (a, b) in contrasts.items()})


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
    ``weights[s]``; each set difference is measured by exact interval
    subtraction, summed over the stripes."""
    for i, j in itertools.combinations(range(len(regions)), 2):
        d1 = d2 = 0.0
        for w, iv1, iv2 in zip(weights, regions[i], regions[j]):
            d1 += w * _interval_subtract_measure(iv1, iv2)
            d2 += w * _interval_subtract_measure(iv2, iv1)
        if d1 > _TOL and d2 > _TOL:
            yield i, j, d1, d2


def _ascends(values) -> bool:
    """Whether a step's ``values``, in increasing-``u`` order, never fall."""
    return all(map(operator.le, values, values[1:]))


def _prefix_ends(step, thresholds) -> dict[float, float]:
    """For each threshold y, the end ``e`` of the prefix ``[0, e)`` where
    an ascending step's value is < y (``0.0`` for none of it): the region
    that :func:`_step_regions` gives as ``((0.0, e),)``, or ``()``."""
    cuts, values = step
    edges = (0.0, *cuts, 1.0)
    return {y: edges[bisect.bisect_left(values, y)] for y in thresholds}


def _prefix_crossings(ends: np.ndarray, weights: Sequence[float]):
    """:func:`_crossings` for regions that are prefixes ``[0, ends[r, s])``
    of every stripe ``s``, yielding the same pairs with the same bits.

    Interval subtraction measures ``[0, e1) - [0, e2)`` as exactly
    ``max(e1 - e2, 0.0)``, so ``d[i, j]`` is that difference times the
    stripe's weight, summed from ``0.0`` in stripe order, as
    :func:`_crossings` sums it; the pairs are read off all of ``d`` at
    once."""
    d = np.zeros((len(ends), len(ends)))
    for s, w in enumerate(weights):
        d += w * np.maximum(ends[:, s, None] - ends[:, s], 0.0)
    rows, cols = np.nonzero(np.triu((d > _TOL) & (d.T > _TOL), 1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        yield i, j, d[i, j].item(), d[j, i].item()


def _crossing_events(scm: ScmSpec, mediator: bool = True):
    """Every two-sided crossing between counterfactual sub-level regions
    over the threshold partition, lazily, as ``(kind, violation)`` with
    ``kind`` one of ``"outcome"``, ``"compound"`` and ``"mediator"``: per
    covariate stratum the outcome crossings, then the compound ones, then
    (unless ``mediator`` is false) the mediator ones.  A consumer that
    stops early skips the regions and exact measures after it.

    A stratum whose outcome cells and mediator arms all have ascending
    step values (:func:`_ascends`) takes a closed form.  Each of its
    sub-level regions is a prefix ``[0, e)`` of its stripe
    (:func:`_prefix_ends`), and of two prefixes of one stripe one holds
    the other, so it has no outcome or mediator crossing and those stages
    are skipped; its compound regions go to :func:`_prefix_crossings`,
    which yields what :func:`_crossings` would.  Every other stratum
    takes the interval path, and no report changes either way."""
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
        med_steps = {x: scm.mediator.step((x, *c)) for x in x_levels}
        prefixes = all(_ascends(v) for _, v in (*out_steps.values(), *med_steps.values()))

        cell_regions = {
            key: (_prefix_ends if prefixes else _step_regions)(step, y_grid)
            for key, step in out_steps.items()
        }
        if not prefixes:
            tagged = [(key, y) for key in out_steps for y in y_grid]
            regions = [(cell_regions[key][y],) for key, y in tagged]
            for i, j, d1, d2 in _crossings(regions, (1.0,)):
                yield "outcome", (c, tagged[i], tagged[j], d1, d2)

        # compound regions on the square, expressed on shared stripes
        stripes = _stripes(scm.mediator, c, x_levels)
        ctagged = [((x1, x2), y) for x1 in x_levels for x2 in x_levels for y in y_grid]
        regions = [
            [cell_regions[(x_out, med[x_med])][y] for _w2, med in stripes]
            for (x_out, x_med), y in ctagged
        ]
        weights = [w_s for w_s, _ in stripes]
        if prefixes:
            crossings = _prefix_crossings(np.array(regions), weights)
        else:
            crossings = _crossings(regions, weights)
        for i, j, d1, d2 in crossings:
            yield "compound", (c, ctagged[i], ctagged[j], d1, d2)

        if not mediator or prefixes:
            continue
        # mediator response regions (relevant to joint-evidence use)
        m_grid = tuple(sorted(m_levels))
        med_regions = {x: _step_regions(step, m_grid) for x, step in med_steps.items()}
        mtagged = [(x, m) for x in x_levels for m in m_grid]
        regions = [(med_regions[x][m],) for x, m in mtagged]
        for i, j, d1, d2 in _crossings(regions, (1.0,)):
            yield "mediator", (c, mtagged[i], mtagged[j], d1, d2)


def check_monotonicity(scm: ScmSpec) -> MonotonicityReport:
    """Compare every pair of counterfactual sub-level regions over the
    threshold partition and report every two-sided crossing.

    In a stratum whose steps all ascend only compound pairs can cross, and
    their set differences are read from the prefix ends (see
    :func:`_crossing_events`).  Elsewhere every pair is measured by exact
    interval subtraction (see :func:`_crossings`).  The report is the same
    bit for bit either way."""
    found = {"outcome": [], "compound": [], "mediator": []}
    for kind, violation in _crossing_events(scm):
        found[kind].append(violation)
    return MonotonicityReport(*(tuple(v) for v in found.values()))

