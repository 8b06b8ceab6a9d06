"""Nonparametric bootstrap confidence intervals for the estimators.

Rows are resampled iid with replacement (same size as the data) and
percentile intervals are formed from the replicate values.  Replicates that
hit an empty conditioning cell are dropped and counted rather than imputed,
matching the estimators' hard positivity contract.

The estimators depend on the data only through the counts of their
distinct ``(x, m, y)`` tuples, and a resample only changes those counts.  So
:func:`bootstrap_ci` takes only callables built by :func:`estimator_target`;
each runs once, on the full data, and its replicates are evaluated in
batches.  Every replicate draws the same row indices as a row resample
would, and one ``bincount`` of their tuple ids fills its row of a
replicate-by-tuple count matrix (:class:`~pocmed.ecdf.CountMatrix`, filled
in chunks of replicates so that it stays small).  The collector of the
scalar formulas, ``identify._margin_inputs``, reads the family's kernel
inputs from it for all replicates at once, and ``_family`` turns them into
one float64 column per quantity (``identify._clipped_columns``); the
target's evaluation on the full data is row 0 of the same evaluator.  The
:class:`~pocmed.ecdf.CdfModel` of a row copy is a checked one-row view of
the same queries, so every replicate value equals the value of the target
on a row copy of that resample.  A replicate is degenerate for a family
exactly where one of its inputs is NaN, which is where the scalar query
raises :class:`PositivityError`; it is NaN in every column, as an
undefined share is in its own, and intervals read the non-NaN values.

The quantile rule is numpy's "linear" method: for sorted replicate values
``v[0..B-1]`` and probability ``p``, with ``h = (B - 1) p``,
``f = floor(h)`` and ``g = h - f``, the quantile is
``v[f] + g * (v[f + 1] - v[f])`` for ``g < 0.5`` and
``v[f + 1] - (1 - g) * (v[f + 1] - v[f])`` for ``g >= 0.5``, fixed so that
independent ports agree bit-for-bit.

Replicates are deterministic functions of ``(seed, replicate index)``:
replicate ``r`` draws from ``SeedSequence(seed, spawn_key=(r,))``, the
``r``-th stream of ``SeedSequence(seed).spawn(B)``, so results do not
depend on evaluation order, chunking or the process that draws them.

A bootstrap that draws at least ``_FORK_DRAWS`` (2**21) row indices,
replicates times rows, uses a second process where ``os.fork`` exists: a
forked child (``pocmed._fork``) evaluates replicates ``B // 2`` to
``B - 1`` while this process evaluates the rest, and sends back its
quantity columns, which are joined in replicate order.  Every output is
byte-identical to the one-process run.  ``pocmed._fork`` forks no
child from a child, so a bootstrap inside ``verify``'s child draws both
halves in that process, and at most one child runs at a time.  There is
no switch for this.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .data import Dataset, Evidence, Query
from .ecdf import CdfModel, RowCounts
from .errors import BootstrapFailureError, InvalidEvidenceError
from . import _fork, identify
from .data import KIND_INTERVAL_MEDIATOR, KIND_POINT_MEDIATOR


#: Entries of the replicate-by-tuple count matrix held at once (int64, so
#: 2 MiB); with many distinct tuples the replicates are counted in chunks.
_CHUNK_COUNTS = 1 << 18

#: Row indices drawn (replicates times rows) from which the upper half of
#: the replicates is drawn in a forked child.  In a 45 MiB process on a
#: 2-core machine, the fork, the copy-on-write faults it brings and the
#: wait cost about 4-6 ms against about 9 ns per row index, and the split
#: broke even between 2**20 and 1.5 * 2**20 draws; this leaves a margin.
_FORK_DRAWS = 1 << 21


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 1000
    level: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("bootstrap needs at least 2 replicates")
        if not (0.0 < self.level < 1.0):
            raise ValueError("confidence level must be inside (0, 1)")


@dataclass(frozen=True)
class CiResult:
    """Point estimate on the full data plus a percentile interval."""

    point: float
    lower: float
    upper: float
    replicate_mean: float
    degenerate_count: int


class FamilyResult(dict):
    """The quantities of one estimator family, keyed by name (values, or
    :class:`CiResult` from :func:`bootstrap_ci`), with ``case_flag``: the
    identification branch the evaluation on the full data took (``None``
    when the family has none)."""

    def __init__(self, quantities: Mapping, case_flag: str | None = None):
        super().__init__(quantities)
        self.case_flag = case_flag


class Estimand(NamedTuple):
    """What a target built by :func:`estimator_target` estimates."""

    kind: str
    query: Query
    evidence: Evidence | None


def _family(estimand: Estimand, inputs) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The quantities of ``estimand``'s family from its kernel inputs
    ``(a, b, r, low, high)`` as float64 columns, one value per row
    (``identify._clipped_columns``): ``cd_pns``, or the ``t_``/``nd_``/``ni_``
    quantities with their shares; and the rows' case-B mask."""
    kind = estimand.kind
    t, nd, ni, prop_nd, prop_ni, case_b = identify._clipped_columns(*inputs)
    if kind == "cd":
        return {"cd_pns": nd}, case_b
    prefix = "pns" if kind == "natural" else kind
    return {f"t_{prefix}": t, f"nd_{prefix}": nd, f"ni_{prefix}": ni,
            "prop_nd": prop_nd, "prop_ni": prop_ni}, case_b


def _replicate_columns(counter: RowCounts, estimands: dict[str, Estimand], seed: int,
                       lo: int, hi: int) -> dict[str, list[dict[str, np.ndarray]]]:
    """The :func:`_family` columns of replicates ``lo`` to ``hi - 1`` for
    each named estimand, one dict per chunk of replicates, in replicate
    order.  Replicate ``r`` draws from the stream
    ``SeedSequence(seed, spawn_key=(r,))``, which is
    ``SeedSequence(seed).spawn(B)[r]``."""
    n = counter.n
    chunks: dict[str, list[dict[str, np.ndarray]]] = {name: [] for name in estimands}
    chunk = max(1, min(hi - lo, _CHUNK_COUNTS // counter.size))
    counts = np.empty((chunk, counter.size), dtype=np.int64)
    for start in range(lo, hi, chunk):
        stop = min(start + chunk, hi)
        for i, r in enumerate(range(start, stop)):
            stream = np.random.SeedSequence(seed, spawn_key=(r,))
            counts[i] = counter.bincount(np.random.default_rng(stream).integers(0, n, n))
        surface = counter.matrix(counts[: stop - start])
        for name, estimand in estimands.items():
            chunks[name].append(_family(estimand, identify._margin_inputs(surface, *estimand))[0])
        del surface  # before the next chunk's matrix is built
    return chunks


def _first_row(estimand: Estimand, inputs) -> FamilyResult:
    """Row 0 of :func:`_family`, in floats and ``None`` for NaN, with the
    case flag (none for ``cd`` without evidence, ``"unconditional"`` for
    ``natural`` without it)."""
    columns, case_b = _family(estimand, inputs)
    kind, _, evidence = estimand
    case = identify.CASE_B if case_b[0] else identify.CASE_A
    if evidence is None and kind in ("natural", "cd"):
        case = identify.CASE_UNCONDITIONAL if kind == "natural" else None
    return FamilyResult({k: None if np.isnan(c[0]) else float(c[0]) for k, c in columns.items()}, case)


def estimator_target(
    kind: str,
    query: Query,
    evidence: Evidence | None = None,
    mediator_monotone: bool = False,
) -> Callable[[Dataset | CdfModel], FamilyResult]:
    """Build a ``data -> {quantity: value}`` callable for one estimand
    family.

    ``kind`` is ``"natural"``, ``"cd"``, ``"pn"``, or ``"ps"``; calling a
    target of another kind raises :class:`ValueError`.  With evidence
    attached, ``natural`` takes outcome-only or mediator-interval evidence
    and ``cd`` requires point-mediator evidence.  Undefined proportions
    (zero total) come back as ``None``.

    The callable accepts a :class:`Dataset` or a :class:`CdfModel` already
    restricted to ``query.c_stratum`` and returns a :class:`FamilyResult`
    carrying the case flag: the values of the family's formula in
    :mod:`pocmed.identify`, read from row 0 of the same ``_family`` as
    every bootstrap replicate.  Its ``estimand`` attribute, an
    :class:`Estimand`, is what :func:`bootstrap_ci` evaluates on the
    replicates.  ``functools.wraps`` copies the attribute, so a wrapper is
    accepted there too if it returns its family's result unchanged; its
    body runs on the full data only.
    """
    if evidence is not None:
        if kind == "cd" and evidence.kind != KIND_POINT_MEDIATOR:
            raise InvalidEvidenceError(
                "controlled-direct evidence must carry an exact mediator value"
            )
        if kind == "natural" and evidence.kind == KIND_POINT_MEDIATOR:
            raise InvalidEvidenceError(
                "natural-family evidence cannot fix the mediator exactly"
            )
        if kind in ("pn", "ps"):
            raise InvalidEvidenceError(f"{kind} family does not accept evidence")
    joint = kind == "natural" and evidence is not None and evidence.kind == KIND_INTERVAL_MEDIATOR

    def run(data: Dataset | CdfModel) -> FamilyResult:
        model = data if isinstance(data, CdfModel) else CdfModel(data, query.c_stratum)
        if joint:
            identify._assume_monotone_mediator(mediator_monotone)
        return _first_row(run.estimand, identify._margin_inputs(model, kind, query, evidence))

    run.estimand = Estimand(kind, query, evidence)
    return run


def bootstrap_ci(
    dataset: Dataset | RowCounts,
    target: Callable[[CdfModel], Mapping] | Mapping[str, Callable],
    cfg: BootstrapConfig,
) -> FamilyResult | dict[str, FamilyResult]:
    """Percentile bootstrap for every quantity produced by ``target``.

    ``dataset`` is a :class:`Dataset`, or a :class:`RowCounts` of one
    coded for the targets' stratum (else :class:`ValueError`), which saves
    coding its rows again.  ``target`` is one callable, or a mapping of
    named callables evaluated on the same resamples, which returns one
    result per name.  Each must carry the ``estimand`` attribute of
    :func:`estimator_target` (such a target, or a wrapper made with
    ``functools.wraps``), or :class:`TypeError` is raised before anything
    runs.

    Each callable is treated as if it were bootstrapped on its own, in
    mapping order: it must run successfully on a :class:`CdfModel` of the
    full data and return there its family's own result, keys and values
    (else :class:`ValueError`); replicates on which its family raises
    :class:`PositivityError` are dropped and counted for it alone; if every
    replicate degenerates, :class:`BootstrapFailureError` is raised; the
    first error in that order is the one raised.  Quantities that are
    ``None`` in a replicate (undefined proportions) are excluded from that
    quantity's percentile set.  The callables run on the full data only;
    their replicates are their families' values read from the count
    matrix.
    """
    single = callable(target)
    targets = {"": target} if single else dict(target)
    for t in targets.values():
        if not hasattr(t, "estimand"):
            raise TypeError(f"bootstrap_ci needs targets built by estimator_target, got {t!r}")
    strata = {tuple(t.estimand.query.c_stratum or ()) for t in targets.values()}
    if len(strata) > 1:
        raise ValueError("estimator targets bootstrapped together must share a stratum")
    c_stratum = strata.pop() if strata else ()
    if isinstance(dataset, RowCounts):
        counter = dataset
        if counter.stratum != (c_stratum or None):
            raise ValueError(f"row counts of stratum {counter.stratum!r} cannot bootstrap "
                             f"targets of stratum {c_stratum or None!r}")
    else:
        counter = RowCounts(dataset, c_stratum)
    full = CdfModel(counter.table(), c_stratum or None)

    # Until ``failure``, the names whose per-target run would have got this
    # far; the error of the first name that failed is raised after the
    # names before it are finished, as separate runs in order would.
    names: list[str] = []
    points: dict[str, FamilyResult] = {}
    failure: Exception | None = None
    for name, t in targets.items():
        try:
            point = t(full)
            # a wrapper's result must be its bare family's, keys and values
            own = _first_row(t.estimand, identify._margin_inputs(full._matrix, *t.estimand))
            if dict(own) != dict(point):
                who = "the target" if single else f"target {name!r}"
                raise ValueError(f"{who} does not return its {t.estimand.kind!r} family's result")
        except Exception as exc:  # re-raised below, after the names before it
            failure = exc
            break
        names.append(name)
        points[name] = FamilyResult(point, getattr(point, "case_flag", None))
    if failure is not None and not names:
        raise failure

    estimands = {name: targets[name].estimand for name in names}
    draw = functools.partial(_replicate_columns, counter, estimands, cfg.seed)
    if cfg.replicates * counter.n < _FORK_DRAWS:
        chunks = draw(0, cfg.replicates)
    else:
        # a forked child draws the upper half of the replicates, this
        # process the lower half
        half = cfg.replicates // 2
        with _fork.beside(lambda: draw(half, cfg.replicates)) as child:
            chunks = draw(0, half)
            upper = child.join()
        for name in names:
            chunks[name] += upper[name]

    alpha = (1.0 - cfg.level) / 2.0
    out: dict[str, FamilyResult] = {}
    for name in names:
        columns = {key: np.concatenate([c[key] for c in chunks[name]]) for key in chunks[name][0]}
        degenerate = int(np.isnan(list(columns.values())).all(axis=0).sum())
        if degenerate == cfg.replicates:
            raise BootstrapFailureError(f"all {cfg.replicates} bootstrap replicates hit empty cells")
        cis = FamilyResult({}, points[name].case_flag)
        for key, point in points[name].items():
            reps = columns[key][~np.isnan(columns[key])]
            if point is None or reps.size == 0:
                continue
            lower, upper = np.quantile(reps, (alpha, 1.0 - alpha), method="linear").tolist()
            cis[key] = CiResult(float(point), lower, upper, float(reps.mean()), degenerate)
        out[name] = cis
    if failure is not None:
        raise failure
    return out[""] if single else out
