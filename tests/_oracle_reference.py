"""Reference implementations of the exact oracle's truths and its
monotonicity scan.

:func:`check_monotonicity` compares every pair of counterfactual sub-level
regions by exact interval subtraction; the pruned scan must return ``==``
reports.  :func:`truth_pns`, :func:`truth_with_evidence` and
:func:`truth_effects` evaluate every counterfactual event once per
rectangle of :func:`_square_rects` (exact) or once per Monte Carlo draw of
:func:`_mc_counterfactuals`, each truth written out for each method; the
one counterfactual table that replaced them must return reports of equal
``repr``, or the same error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from pocmed.data import Evidence, Query, KIND_INTERVAL_MEDIATOR, KIND_OUTCOME, KIND_POINT_MEDIATOR, NEG_INF
from pocmed.errors import ConditioningError, InvalidEvidenceError, UnsupportedSpecError
from pocmed.oracle import (
    MonotonicityReport,
    ScmSpec,
    TruthReport,
    _draw_exogenous,
    _step_cdf,
)

from _sampling_reference import drawn_values


@dataclass(frozen=True)
class _Rect:
    weight: float
    med: dict          # x level -> mediator value on this rectangle
    out: dict          # (x level, mediator value) -> outcome value


def _square_rects(
    scm: ScmSpec,
    c: tuple,
    x_levels: Iterable[float],
    xm_pairs: Iterable[tuple[float, float]] = (),
) -> list[_Rect]:
    """Rectangle partition of the (u_M, u_Y) unit square on which the
    mediator responses for all ``x_levels`` and the outcome responses for
    every reachable (x, mediator) pair plus ``xm_pairs`` are constant."""
    x_levels = tuple(dict.fromkeys(float(x) for x in x_levels))
    med_steps = {x: scm.mediator.step((x, *c)) for x in x_levels}
    m_cuts = sorted({cut for cuts, _ in med_steps.values() for cut in cuts})
    m_edges = (0.0, *m_cuts, 1.0)

    rects: list[_Rect] = []
    for i in range(len(m_edges) - 1):
        w_m = m_edges[i + 1] - m_edges[i]
        if w_m <= 0.0:
            continue
        mid_m = 0.5 * (m_edges[i] + m_edges[i + 1])
        med = {}
        for x in x_levels:
            cuts, values = med_steps[x]
            med[x] = values[int(np.searchsorted(cuts, mid_m, side="right"))]
        pairs = {(x1, med[x2]) for x1 in x_levels for x2 in x_levels}
        pairs.update((float(a), float(b)) for a, b in xm_pairs)
        out_steps = {pair: scm.outcome.step((pair[0], pair[1], *c)) for pair in pairs}
        y_cuts = sorted({cut for cuts, _ in out_steps.values() for cut in cuts})
        y_edges = (0.0, *y_cuts, 1.0)
        for j in range(len(y_edges) - 1):
            w_y = y_edges[j + 1] - y_edges[j]
            if w_y <= 0.0:
                continue
            mid_y = 0.5 * (y_edges[j] + y_edges[j + 1])
            out = {}
            for pair, (cuts, values) in out_steps.items():
                out[pair] = values[int(np.searchsorted(cuts, mid_y, side="right"))]
            rects.append(_Rect(w_m * w_y, med, out))
    return rects



def _strata(scm: ScmSpec, q: Query):
    if q.c_stratum is not None:
        return ((tuple(q.c_stratum), 1.0),)
    return scm.covariate_support()


def _xm_pairs_for(q: Query, e: Evidence | None):
    pairs = []
    if q.m_fixed is not None:
        pairs.append((q.x_base, q.m_fixed))
        pairs.append((q.x_alt, q.m_fixed))
    if e is not None and e.kind == KIND_POINT_MEDIATOR:
        pairs.append((e.x_star, e.m_star))
    return pairs


def _x_levels_for(q: Query, e: Evidence | None):
    levels = [q.x_base, q.x_alt]
    if e is not None:
        levels.append(e.x_star)
    return levels


def _counterfactual_flags(rect: _Rect, q: Query):
    y = q.y_threshold
    y_base = rect.out[(q.x_base, rect.med[q.x_base])]
    y_alt = rect.out[(q.x_alt, rect.med[q.x_alt])]
    y_cross = rect.out[(q.x_base, rect.med[q.x_alt])]
    flip = y_base < y <= y_alt
    return {
        "t_pns": flip,
        "nd_pns": flip and y_cross < y,
        "ni_pns": flip and y <= y_cross,
    }


def _cd_flag(rect: _Rect, q: Query) -> bool:
    y = q.y_threshold
    return (
        rect.out[(q.x_base, q.m_fixed)] < y <= rect.out[(q.x_alt, q.m_fixed)]
    )


def _evidence_flag(rect: _Rect, e: Evidence) -> bool:
    if e.kind == KIND_POINT_MEDIATOR:
        return rect.med[e.x_star] == e.m_star and e.interval_y.contains(
            rect.out[(e.x_star, e.m_star)]
        )
    factual_y = rect.out[(e.x_star, rect.med[e.x_star])]
    if e.kind == KIND_INTERVAL_MEDIATOR:
        return e.interval_m.contains(rect.med[e.x_star]) and e.interval_y.contains(
            factual_y
        )
    return e.interval_y.contains(factual_y)


def truth_pns(
    scm: ScmSpec, q: Query, method: str = "exact", n: int = 100_000, seed: int = 0
) -> TruthReport:
    """Definitional total/direct/indirect flip probabilities (and the
    controlled-direct one when ``m_fixed`` is set), computed from the
    counterfactual events on shared noise."""
    names = ["t_pns", "nd_pns", "ni_pns"] + (["cd_pns"] if q.m_fixed is not None else [])
    if method == "exact":
        totals = dict.fromkeys(names, 0.0)
        for c, w_c in _strata(scm, q):
            rects = _square_rects(scm, c, _x_levels_for(q, None), _xm_pairs_for(q, None))
            for rect in rects:
                flags = _counterfactual_flags(rect, q)
                if q.m_fixed is not None:
                    flags["cd_pns"] = _cd_flag(rect, q)
                for name in names:
                    if flags[name]:
                        totals[name] += w_c * rect.weight
        return TruthReport(totals, "exact", None, {k: 0.0 for k in totals})
    if method != "mc":
        raise UnsupportedSpecError(f"unknown method {method!r}")
    cols = _mc_counterfactuals(scm, q, None, n, seed)
    y = q.y_threshold
    flip = (cols["y_base"] < y) & (y <= cols["y_alt"])
    ind = {
        "t_pns": flip,
        "nd_pns": flip & (cols["y_cross"] < y),
        "ni_pns": flip & (y <= cols["y_cross"]),
    }
    if q.m_fixed is not None:
        ind["cd_pns"] = (cols["y_base_m"] < y) & (y <= cols["y_alt_m"])
    values = {k: float(np.mean(v)) for k, v in ind.items()}
    se = {k: math.sqrt(max(p * (1 - p), 0.0) / n) for k, p in values.items()}
    return TruthReport(values, "mc", n, se)


def _mc_counterfactuals(scm, q, e, n, seed):
    """Vector counterfactual draws on shared noise (marginal over covariates
    unless the query fixes a stratum)."""
    c_matrix, _, _, u_m, u_y = _draw_exogenous(scm, n, seed)
    if q.c_stratum is not None:
        c_matrix = np.tile(np.asarray(q.c_stratum, dtype=np.float64), (n, 1))
    def med(x):
        xs = np.full(n, float(x))
        return drawn_values(scm.mediator, np.column_stack([xs, c_matrix]), u_m)
    def outc(x, m_col):
        xs = np.full(n, float(x))
        return drawn_values(scm.outcome, np.column_stack([xs, m_col, c_matrix]), u_y)
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
        fixed = np.full(n, q.m_fixed)
        cols["y_base_m"] = outc(q.x_base, fixed)
        cols["y_alt_m"] = outc(q.x_alt, fixed)
    if e is not None:
        m_star = med(e.x_star)
        cols["m_star"] = m_star
        cols["y_star"] = outc(e.x_star, m_star)
        if e.kind == KIND_POINT_MEDIATOR:
            cols["y_star_cell"] = outc(e.x_star, np.full(n, e.m_star))
    return cols


def _limit_indicators(scm: ScmSpec, q: Query, e: Evidence) -> dict:
    """Zero-mass evidence: value of the conditional quantities in the limit
    construction, i.e. the counterfactual event evaluated at the noise
    threshold that the evidence interval collapses onto.  Region measures
    are interventional (computed on the noise partition, not through
    observational conditionals); the boundary point groups with the closed
    side, matching the half-open interval convention."""
    strata = _strata(scm, q)
    if e.kind == KIND_POINT_MEDIATOR:
        # one-dimensional: everything lives on the outcome-noise axis
        a = b = low = 0.0
        for c, w_c in strata:
            a += w_c * _step_cdf(
                scm.outcome.step((q.x_base, q.m_fixed, *c)), q.y_threshold, True
            )
            b += w_c * _step_cdf(
                scm.outcome.step((q.x_alt, q.m_fixed, *c)), q.y_threshold, True
            )
            if e.interval_y.lower != NEG_INF:
                low += w_c * _step_cdf(
                    scm.outcome.step((e.x_star, e.m_star, *c)), e.interval_y.lower, True
                )
        return {"cd_pns": 1.0 if (b <= low < a) else 0.0}

    a = b = r = low = 0.0
    for c, w_c in strata:
        rects = _square_rects(scm, c, _x_levels_for(q, e), _xm_pairs_for(q, e))
        for rect in rects:
            y_base = rect.out[(q.x_base, rect.med[q.x_base])]
            y_alt = rect.out[(q.x_alt, rect.med[q.x_alt])]
            y_cross = rect.out[(q.x_base, rect.med[q.x_alt])]
            w = w_c * rect.weight
            if y_base < q.y_threshold:
                a += w
            if y_alt < q.y_threshold:
                b += w
            if y_cross < q.y_threshold:
                r += w
            factual_y = rect.out[(e.x_star, rect.med[e.x_star])]
            if e.kind == KIND_OUTCOME:
                if e.interval_y.lower != NEG_INF and factual_y < e.interval_y.lower:
                    low += w
            else:
                if (
                    e.interval_y.lower != NEG_INF
                    and e.interval_m.lower != NEG_INF
                    and factual_y < e.interval_y.lower
                    and rect.med[e.x_star] < e.interval_m.lower
                ):
                    low += w
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
    names = (
        ["cd_pns"]
        if e.kind == KIND_POINT_MEDIATOR
        else ["t_pns", "nd_pns", "ni_pns"]
    )
    if method == "exact":
        num = dict.fromkeys(names, 0.0)
        den = 0.0
        for c, w_c in _strata(scm, q):
            rects = _square_rects(scm, c, _x_levels_for(q, e), _xm_pairs_for(q, e))
            for rect in rects:
                if not _evidence_flag(rect, e):
                    continue
                w = w_c * rect.weight
                den += w
                if e.kind == KIND_POINT_MEDIATOR:
                    flags = {"cd_pns": _cd_flag(rect, q)}
                else:
                    flags = _counterfactual_flags(rect, q)
                for name in names:
                    if flags[name]:
                        num[name] += w
        if den == 0.0:
            if degenerate == "threshold-limit":
                values = _limit_indicators(scm, q, e)
                return TruthReport(values, "exact", None, {k: 0.0 for k in values})
            raise ConditioningError("evidence event has zero probability")
        values = {k: v / den for k, v in num.items()}
        return TruthReport(values, "exact", None, {k: 0.0 for k in values})
    if method != "mc":
        raise UnsupportedSpecError(f"unknown method {method!r}")
    cols = _mc_counterfactuals(scm, q, e, n, seed)
    if e.kind == KIND_POINT_MEDIATOR:
        ev = (cols["m_star"] == e.m_star) & np.fromiter(
            (e.interval_y.contains(v) for v in cols["y_star_cell"]), bool, n
        )
    else:
        ev = np.fromiter((e.interval_y.contains(v) for v in cols["y_star"]), bool, n)
        if e.kind == KIND_INTERVAL_MEDIATOR:
            ev &= np.fromiter(
                (e.interval_m.contains(v) for v in cols["m_star"]), bool, n
            )
    k = int(np.count_nonzero(ev))
    if k == 0:
        raise ConditioningError("no Monte Carlo draws satisfy the evidence event")
    y = q.y_threshold
    if e.kind == KIND_POINT_MEDIATOR:
        ind = {"cd_pns": (cols["y_base_m"] < y) & (y <= cols["y_alt_m"])}
    else:
        flip = (cols["y_base"] < y) & (y <= cols["y_alt"])
        ind = {
            "t_pns": flip,
            "nd_pns": flip & (cols["y_cross"] < y),
            "ni_pns": flip & (y <= cols["y_cross"]),
        }
    values = {name: float(np.mean(v[ev])) for name, v in ind.items()}
    se = {name: math.sqrt(max(p * (1 - p), 0.0) / k) for name, p in values.items()}
    return TruthReport(values, "mc", k, se)


def truth_effects(
    scm: ScmSpec, q: Query, method: str = "exact", n: int = 100_000, seed: int = 0
) -> TruthReport:
    """Mean-scale diagnostics: total, controlled-direct (when ``m_fixed``
    is set), natural direct, and natural indirect effects.  The total
    effect decomposes as te(x', x) = nde(x', x) - nie(x, x')."""
    if method == "exact":
        means = {"y_base": 0.0, "y_alt": 0.0, "y_nde": 0.0, "y_cross": 0.0,
                 "y_base_m": 0.0, "y_alt_m": 0.0}
        for c, w_c in _strata(scm, q):
            rects = _square_rects(scm, c, _x_levels_for(q, None), _xm_pairs_for(q, None))
            for rect in rects:
                w = w_c * rect.weight
                means["y_base"] += w * rect.out[(q.x_base, rect.med[q.x_base])]
                means["y_alt"] += w * rect.out[(q.x_alt, rect.med[q.x_alt])]
                means["y_nde"] += w * rect.out[(q.x_alt, rect.med[q.x_base])]
                means["y_cross"] += w * rect.out[(q.x_base, rect.med[q.x_alt])]
                if q.m_fixed is not None:
                    means["y_base_m"] += w * rect.out[(q.x_base, q.m_fixed)]
                    means["y_alt_m"] += w * rect.out[(q.x_alt, q.m_fixed)]
        n_used = None
        se = {}
    elif method == "mc":
        cols = _mc_counterfactuals(scm, q, None, n, seed)
        diffs = {
            "te": cols["y_alt"] - cols["y_base"],
            "nde": cols["y_nde"] - cols["y_base"],
            "nie": cols["y_cross"] - cols["y_base"],
        }
        if q.m_fixed is not None:
            diffs["cde"] = cols["y_alt_m"] - cols["y_base_m"]
        values = {k: float(np.mean(v)) for k, v in diffs.items()}
        se = {k: float(np.std(v) / math.sqrt(n)) for k, v in diffs.items()}
        return TruthReport(values, "mc", n, se)
    else:
        raise UnsupportedSpecError(f"unknown method {method!r}")

    values = {
        "te": means["y_alt"] - means["y_base"],
        "nde": means["y_nde"] - means["y_base"],
        "nie": means["y_cross"] - means["y_base"],
    }
    if q.m_fixed is not None:
        values["cde"] = means["y_alt_m"] - means["y_base_m"]
    return TruthReport(values, "exact", n_used, se)


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


def check_monotonicity(scm: ScmSpec) -> MonotonicityReport:
    """Exhaustively compare counterfactual sub-level regions over the
    threshold partition and report every two-sided crossing."""
    outcome_v = []
    compound_v = []
    mediator_v = []
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
        tagged = [
            (key, y, cell_regions[key][y]) for key in out_steps for y in y_grid
        ]
        for i in range(len(tagged)):
            for j in range(i + 1, len(tagged)):
                k1, y1, r1 = tagged[i]
                k2, y2, r2 = tagged[j]
                d1 = _interval_subtract_measure(r1, r2)
                d2 = _interval_subtract_measure(r2, r1)
                if d1 > _TOL and d2 > _TOL:
                    outcome_v.append((c, (k1, y1), (k2, y2), d1, d2))

        # compound regions on the square, expressed on shared stripes
        med_steps = {x: scm.mediator.step((x, *c)) for x in x_levels}
        m_cuts = sorted({cut for cuts, _ in med_steps.values() for cut in cuts})
        m_edges = (0.0, *m_cuts, 1.0)
        stripes = []
        for i in range(len(m_edges) - 1):
            mid = 0.5 * (m_edges[i] + m_edges[i + 1])
            med = {
                x: med_steps[x][1][int(np.searchsorted(med_steps[x][0], mid, side="right"))]
                for x in x_levels
            }
            stripes.append((m_edges[i + 1] - m_edges[i], med))

        def compound_region(x_out, x_med, y):
            return [cell_regions[(x_out, med[x_med])][y] for _w2, med in stripes]

        ctagged = [
            ((x1, x2), y, compound_region(x1, x2, y))
            for x1 in x_levels
            for x2 in x_levels
            for y in y_grid
        ]
        for i in range(len(ctagged)):
            for j in range(i + 1, len(ctagged)):
                k1, y1, r1 = ctagged[i]
                k2, y2, r2 = ctagged[j]
                d1 = d2 = 0.0
                for (w_s, _), iv1, iv2 in zip(stripes, r1, r2):
                    d1 += w_s * _interval_subtract_measure(iv1, iv2)
                    d2 += w_s * _interval_subtract_measure(iv2, iv1)
                if d1 > _TOL and d2 > _TOL:
                    compound_v.append((c, (k1, y1), (k2, y2), d1, d2))

        # mediator response regions (relevant to joint-evidence use)
        m_grid = tuple(sorted(m_levels))
        med_regions = {
            x: _step_regions(med_steps[x], m_grid) for x in x_levels
        }
        mtagged = [(x, m, med_regions[x][m]) for x in x_levels for m in m_grid]
        for i in range(len(mtagged)):
            for j in range(i + 1, len(mtagged)):
                k1, m1, r1 = mtagged[i]
                k2, m2, r2 = mtagged[j]
                d1 = _interval_subtract_measure(r1, r2)
                d2 = _interval_subtract_measure(r2, r1)
                if d1 > _TOL and d2 > _TOL:
                    mediator_v.append((c, (k1, m1), (k2, m2), d1, d2))

    return MonotonicityReport(tuple(outcome_v), tuple(compound_v), tuple(mediator_v))
