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
inputs from it for all replicates at once, and each replicate goes through
``_family``, as the target's evaluation on the full data does.  The
:class:`~pocmed.ecdf.CdfModel` of a row copy is a checked one-row view of
the same queries, so every replicate value equals the value of the target
on a row copy of that resample.  A replicate is degenerate for a family
exactly where one of its inputs is NaN, which is where the scalar query
raises :class:`PositivityError`.

The quantile rule is linear interpolation between order statistics: for
sorted replicate values ``v[0..B-1]`` and probability ``p``, with
``h = (B - 1) p``, the quantile is
``v[floor(h)] + (h - floor(h)) * (v[floor(h) + 1] - v[floor(h)])``
(numpy's default "linear" method), fixed so that independent ports agree
bit-for-bit.

Replicates are deterministic functions of ``(seed, replicate index)``
through spawned child streams, so results do not depend on evaluation
order or worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from .data import Dataset, Evidence, Query
from .ecdf import CdfModel, CountMatrix, RowCounts
from .errors import BootstrapFailureError, InvalidEvidenceError
from . import identify
from .data import KIND_INTERVAL_MEDIATOR, KIND_POINT_MEDIATOR


#: Entries of the replicate-by-tuple count matrix held at once (int64, so
#: 2 MiB); with many distinct tuples the replicates are counted in chunks.
_CHUNK_COUNTS = 1 << 18


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


def _family(estimand: Estimand, inputs) -> FamilyResult:
    """The result of ``estimand``'s family from its kernel inputs
    ``(a, b, r, low, high)``: ``cd_pns``, or the ``t_``/``nd_``/``ni_``
    quantities with their shares, and the case flag (none for ``cd``
    without evidence, ``"unconditional"`` for ``natural`` without it)."""
    kind, _, evidence = estimand
    nd, ni, _, case = identify._clipped(*inputs)
    if evidence is None and kind in ("natural", "cd"):
        case = identify.CASE_UNCONDITIONAL if kind == "natural" else None
    if kind == "cd":
        return FamilyResult({"cd_pns": nd}, case)
    triple = identify._make_triple(nd, ni, case)
    prefix = "pns" if kind == "natural" else kind
    return FamilyResult(
        {
            f"t_{prefix}": triple.t_pns,
            f"nd_{prefix}": triple.nd_pns,
            f"ni_{prefix}": triple.ni_pns,
            "prop_nd": triple.prop_nd,
            "prop_ni": triple.prop_ni,
        },
        case,
    )


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
    :mod:`pocmed.identify`, through the same ``_family`` as every
    bootstrap replicate.  Its ``estimand`` attribute, an
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
        return _family(run.estimand, identify._margin_inputs(model, kind, query, evidence))

    run.estimand = Estimand(kind, query, evidence)
    return run


def _replicate_values(surface: CountMatrix, estimand: Estimand) -> Iterator[FamilyResult | None]:
    """The results of one family on every resample of ``surface``, or None
    for a resample on which its evaluation raises :class:`PositivityError`:
    the family's kernel inputs, read for all resamples at once, go one
    resample at a time through :func:`_family`."""
    inputs = np.broadcast_arrays(*identify._margin_inputs(surface, *estimand))
    table = np.stack(inputs)
    bad = np.isnan(table).any(axis=0).tolist()
    for degenerate, row in zip(bad, table.T.tolist()):
        yield None if degenerate else _family(estimand, row)


def _percentile(values: np.ndarray, p: float) -> float:
    return float(np.quantile(values, p, method="linear"))


def bootstrap_ci(
    dataset: Dataset,
    target: Callable[[CdfModel], Mapping] | Mapping[str, Callable],
    cfg: BootstrapConfig,
) -> FamilyResult | dict[str, FamilyResult]:
    """Percentile bootstrap for every quantity produced by ``target``.

    ``target`` is one callable, or a mapping of named callables evaluated
    on the same resamples, which returns one result per name.  Each must
    carry the ``estimand`` attribute of :func:`estimator_target` (such a
    target, or a wrapper made with ``functools.wraps``), or
    :class:`TypeError` is raised before anything runs.

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
            (own,) = _replicate_values(full._matrix, t.estimand)
            if own is None or dict(own) != dict(point):
                who = "the target" if single else f"target {name!r}"
                raise ValueError(f"{who} does not return its {t.estimand.kind!r} family's result")
        except Exception as exc:  # re-raised below, after the names before it
            failure = exc
            break
        names.append(name)
        points[name] = FamilyResult(point, getattr(point, "case_flag", None))
    if failure is not None and not names:
        raise failure

    n = dataset.n
    samples = {name: {key: [] for key in points[name]} for name in names}
    degenerate = dict.fromkeys(names, 0)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)
    chunk = max(1, min(cfg.replicates, _CHUNK_COUNTS // counter.size))
    counts = np.empty((chunk, counter.size), dtype=np.int64)
    for lo in range(0, cfg.replicates, chunk):
        block = children[lo : lo + chunk]
        for i, child in enumerate(block):
            counts[i] = counter.bincount(np.random.default_rng(child).integers(0, n, n))
        surface = counter.matrix(counts[: len(block)])
        for name in names:
            for values in _replicate_values(surface, targets[name].estimand):
                if values is None:
                    degenerate[name] += 1
                    continue
                for key, value in values.items():
                    if value is not None:
                        samples[name][key].append(float(value))
        del surface  # before the next chunk's matrix is built
    for name in names:
        if degenerate[name] == cfg.replicates:
            raise BootstrapFailureError(
                f"all {cfg.replicates} bootstrap replicates hit empty cells"
            )
    if failure is not None:
        raise failure

    alpha = (1.0 - cfg.level) / 2.0
    out: dict[str, FamilyResult] = {}
    for name in names:
        cis = FamilyResult({}, points[name].case_flag)
        for key, point in points[name].items():
            reps = np.asarray(samples[name][key], dtype=np.float64)
            if point is None or reps.size == 0:
                continue
            cis[key] = CiResult(
                point=float(point),
                lower=_percentile(reps, alpha),
                upper=_percentile(reps, 1.0 - alpha),
                replicate_mean=float(reps.mean()),
                degenerate_count=degenerate[name],
            )
        out[name] = cis
    return out[""] if single else out
