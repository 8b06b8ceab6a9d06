"""Pairwise reference for the exact oracle's monotonicity scan and
rectangle partition.

:func:`check_monotonicity` compares every pair of counterfactual sub-level
regions by exact interval subtraction, and :func:`_square_rects` finds the
step value at each stripe midpoint with ``np.searchsorted``.  Both are the
implementations that the pruned scan and the ``bisect`` lookups replaced;
the fast versions must return ``==`` reports and ``==`` rectangle lists.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from pocmed.oracle import MonotonicityReport, ScmSpec, _Rect


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
