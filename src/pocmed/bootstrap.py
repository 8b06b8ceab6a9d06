"""Nonparametric bootstrap confidence intervals for the estimators.

Rows are resampled iid with replacement (same size as the data) and
percentile intervals are formed from the replicate values.  Replicates that
hit an empty conditioning cell are dropped and counted rather than imputed,
matching the estimators' hard positivity contract.

The estimators depend on the data only through the counts of its distinct
``(x, m, y)`` tuples, so for targets built by :func:`estimator_target` a
replicate is evaluated from the counts of the resampled rows: each row is
mapped once to its tuple id, every replicate draws the same row indices as a
row resample would and counts them with ``bincount``, and one
:class:`~pocmed.ecdf.CdfModel` built from those counts serves every target of
the call.  The resampled multiset of rows is the same, so the values are
identical to re-running the targets on copied rows, which is what other
callables still get.

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

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .data import Dataset, Evidence, Query
from .ecdf import CdfModel, RowCounts
from .errors import BootstrapFailureError, InvalidEvidenceError, PositivityError
from . import identify
from .data import KIND_INTERVAL_MEDIATOR, KIND_OUTCOME, KIND_POINT_MEDIATOR


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


def estimator_target(
    kind: str,
    query: Query,
    evidence: Evidence | None = None,
    mediator_monotone: bool = False,
) -> Callable[[Dataset | CdfModel], FamilyResult]:
    """Build a ``data -> {quantity: value}`` callable for one estimand
    family.

    ``kind`` is ``"natural"``, ``"cd"``, ``"pn"``, or ``"ps"``.  With
    evidence attached, ``natural`` dispatches on the evidence shape
    (outcome-only or mediator-interval) and ``cd`` requires point-mediator
    evidence.  Undefined proportions (zero total) come back as ``None``.

    The callable accepts a :class:`Dataset` or a :class:`CdfModel` already
    restricted to ``query.c_stratum`` and returns a :class:`FamilyResult`
    carrying the case flag.  Its ``c_stratum`` attribute marks it for the
    count-table path of :func:`bootstrap_ci`.
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

    def shares(prefix: str, triple: identify.PnsTriple) -> FamilyResult:
        return FamilyResult(
            {
                f"t_{prefix}": triple.t_pns,
                f"nd_{prefix}": triple.nd_pns,
                f"ni_{prefix}": triple.ni_pns,
                "prop_nd": triple.prop_nd,
                "prop_ni": triple.prop_ni,
            },
            triple.case_flag,
        )

    def run(data: Dataset | CdfModel) -> FamilyResult:
        model = data if isinstance(data, CdfModel) else CdfModel(data, query.c_stratum)
        if kind == "natural":
            if evidence is None:
                triple = identify.natural_pns(model, query)
            elif evidence.kind == KIND_OUTCOME:
                triple, _ = identify.natural_pns_with_evidence(model, query, evidence)
            elif evidence.kind == KIND_INTERVAL_MEDIATOR:
                triple, _ = identify.natural_pns_with_mediator_evidence(
                    model, query, evidence, mediator_monotone=mediator_monotone
                )
            else:  # pragma: no cover - blocked in the constructor
                raise InvalidEvidenceError(evidence.kind)
            return shares("pns", triple)
        if kind == "cd":
            if evidence is None:
                return FamilyResult({"cd_pns": identify.cd_pns(model, query)})
            value, terms = identify.cd_pns_with_evidence(model, query, evidence)
            return FamilyResult({"cd_pns": value}, terms.case_flag)
        if kind == "pn":
            return shares("pn", identify.pn_family(model, query))
        if kind == "ps":
            return shares("ps", identify.ps_family(model, query))
        raise ValueError(f"unknown estimator kind {kind!r}")

    run.c_stratum = tuple(query.c_stratum or ())
    return run


def _percentile(values: np.ndarray, p: float) -> float:
    return float(np.quantile(values, p, method="linear"))


def bootstrap_ci(
    dataset: Dataset,
    target: Callable[[Dataset], Mapping] | Mapping[str, Callable],
    cfg: BootstrapConfig,
) -> FamilyResult | dict[str, FamilyResult]:
    """Percentile bootstrap for every quantity produced by ``target``.

    ``target`` is one callable, or a mapping of named callables evaluated
    on the same resamples (one loop, one count table per replicate), which
    returns one result per name.  Each callable is treated as if it were
    bootstrapped on its own, in mapping order: it must run successfully on
    the full dataset; replicates on which it raises
    :class:`PositivityError` are dropped and counted for it alone; if every
    replicate degenerates, :class:`BootstrapFailureError` is raised; the
    first error in that order is the one raised.  Quantities that are
    ``None`` in a replicate (undefined proportions) are excluded from that
    quantity's percentile set.  Callables built by :func:`estimator_target`
    for one query are evaluated from cell counts, any other callable on a
    row copy of each resample.
    """
    single = callable(target)
    targets = {"": target} if single else dict(target)
    strata = {t.c_stratum for t in targets.values() if hasattr(t, "c_stratum")}
    if len(strata) > 1:
        raise ValueError("estimator targets bootstrapped together must share a stratum")
    c_stratum = strata.pop() if strata else ()

    # Until ``failure``, the names whose per-target run would have got this
    # far; the error of the first name that failed is raised after the
    # names before it are finished, as separate runs in order would.
    names: list[str] = []
    points: dict[str, FamilyResult] = {}
    failure: Exception | None = None
    counter = full = None
    for name, t in targets.items():
        try:
            if hasattr(t, "c_stratum"):
                if full is None:
                    counter = RowCounts(dataset, c_stratum)
                    full = CdfModel(counter.table(), c_stratum or None)
                point = t(full)
            else:
                point = t(dataset)
        except Exception as exc:  # re-raised below, after the names before it
            failure = exc
            break
        names.append(name)
        points[name] = FamilyResult(point, getattr(point, "case_flag", None))
    if failure is not None and not names:
        raise failure

    counted = [hasattr(targets[name], "c_stratum") for name in names]
    n = dataset.n
    samples = {name: {key: [] for key in points[name]} for name in names}
    degenerate = dict.fromkeys(names, 0)
    with warnings.catch_warnings():
        # the point evaluations above have already warned
        warnings.simplefilter("ignore", identify.MediatorMonotonicityWarning)
        for child in np.random.SeedSequence(cfg.seed).spawn(cfg.replicates):
            idx = np.random.default_rng(child).integers(0, n, n)
            model = rows = None
            for j, name in enumerate(names):
                try:
                    if counted[j]:
                        if model is None:
                            model = CdfModel(counter.table(idx), c_stratum or None)
                        values = targets[name](model)
                    else:
                        if rows is None:
                            rows = dataset.take(idx)
                        values = targets[name](rows)
                except PositivityError:
                    degenerate[name] += 1
                    continue
                except Exception as exc:  # re-raised below, as the point failures
                    failure = exc
                    del names[j:]
                    break
                for key, value in values.items():
                    if value is not None:
                        samples[name][key].append(float(value))
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
