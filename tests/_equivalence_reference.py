"""Serial reference for the oracle-equivalence suite.

:func:`equivalence_suite` is the suite as it ran before it was split into a
plan and pure checks: each accepted model's random picks interleaved with
its identify calls and truths, one model at a time.  The split suite must
return an equal dict for every seed and size.  The model draws, the gate
and the query and evidence draws are verification's own.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from pocmed import identify
from pocmed.data import Evidence, Interval, NEG_INF, POS_INF
from pocmed.errors import InvalidEvidenceError
from pocmed.identify import MediatorMonotonicityWarning
from pocmed.oracle import AnalyticCdf, ScmSpec, truth_pns, truth_with_evidence
from pocmed.verification import (
    _MAX_ATTEMPTS,
    _gap_point,
    _gate,
    _random_outcome_interval,
    _random_query,
    lex_band_start,
    random_lex_scm,
    random_threshold_scm,
)


def _check_pair(diffs: list, name: str, got: float, want: float):
    diffs.append((name, abs(got - want)))


def _check_triple(diffs: list, prefix: str, triple, truth) -> None:
    """A :func:`_check_pair` per quantity, named ``prefix`` and its key."""
    for key in ("t_pns", "nd_pns", "ni_pns"):
        _check_pair(diffs, prefix + key, getattr(triple, key), truth.values[key])


def _equivalence_checks_for(scm: ScmSpec, rng: np.random.Generator) -> list:
    """All identification-vs-oracle comparisons for one accepted model."""
    an = AnalyticCdf(scm)
    diffs: list = []

    q = _random_query(rng, an, with_m=True)

    # controlled-direct and natural quantities, unconditional
    truth = truth_pns(scm, q)
    _check_pair(diffs, "cd", identify.cd_pns(an, q), truth.values["cd_pns"])
    _check_triple(diffs, "", identify.natural_pns(an, q), truth)

    x_levels = an.x_levels()
    x_star = float(x_levels[rng.integers(len(x_levels))])

    # outcome evidence, nondegenerate branch
    e_a = Evidence(x_star=x_star, interval_y=_random_outcome_interval(rng, an, x_star))
    triple_a, terms_a = identify.natural_pns_with_evidence(an, q, e_a)
    truth_a = truth_with_evidence(scm, q, e_a)
    _check_triple(diffs, "ev_a_", triple_a, truth_a)

    # outcome evidence, degenerate branch (zero-mass interval)
    e_b = Evidence(
        x_star=x_star,
        interval_y=Interval.point(_gap_point(rng, an.outcome_levels())),
    )
    triple_b, terms_b = identify.natural_pns_with_evidence(an, q, e_b)
    truth_b = truth_with_evidence(scm, q, e_b, degenerate="threshold-limit")
    _check_triple(diffs, "ev_b_", triple_b, truth_b)

    # point-mediator evidence around the controlled-direct query
    support = an.mediator_support(x_star)
    m_star = float(support[rng.integers(len(support))])

    levels = an.outcome_levels()
    interval = None
    for _ in range(50):
        cand = _random_outcome_interval(rng, an, x_star)
        low, high = identify._evidence_bounds(an, Evidence(x_star, cand, m_star=m_star))
        if high - low > 1e-6:
            interval = cand
            break
    if interval is not None:
        e_cd = Evidence(x_star=x_star, m_star=m_star, interval_y=interval)
        value, _ = identify.cd_pns_with_evidence(an, q, e_cd)
        truth_cd = truth_with_evidence(scm, q, e_cd)
        _check_pair(diffs, "cd_ev_a", value, truth_cd.values["cd_pns"])

    e_cd_b = Evidence(
        x_star=x_star, m_star=m_star, interval_y=Interval.point(_gap_point(rng, levels))
    )
    value_b, terms_cd_b = identify.cd_pns_with_evidence(an, q, e_cd_b)
    truth_cd_b = truth_with_evidence(scm, q, e_cd_b, degenerate="threshold-limit")
    _check_pair(diffs, "cd_ev_b", value_b, truth_cd_b.values["cd_pns"])

    # necessity / sufficiency families against their factual-event truths
    pn = identify.pn_family(an, q)
    truth_pn = truth_with_evidence(
        scm, q, Evidence(x_star=q.x_alt, interval_y=Interval(q.y_threshold, POS_INF)),
        degenerate="threshold-limit",
    )
    _check_triple(diffs, "pn_", pn, truth_pn)
    ps = identify.ps_family(an, q)
    truth_ps = truth_with_evidence(
        scm, q, Evidence(x_star=q.x_base, interval_y=Interval(NEG_INF, q.y_threshold)),
        degenerate="threshold-limit",
    )
    _check_triple(diffs, "ps_", ps, truth_ps)

    return diffs


def _lex_equivalence_checks(scm: ScmSpec, rng: np.random.Generator) -> list:
    """Joint mediator-outcome evidence comparisons on a lexicographic model.

    The evidence box keeps its lower corner aligned (the outcome cut sits
    at the start of the mediator band, or both lower bounds are open), the
    regime under which the joint-evidence identification applies."""
    an = AnalyticCdf(scm)
    diffs: list = []
    q = _random_query(rng, an)
    x_levels = an.x_levels()
    x_star = float(x_levels[rng.integers(len(x_levels))])
    support = an.mediator_support(x_star)

    if rng.random() < 0.5:
        m_lo = NEG_INF
        y_lo = NEG_INF
    else:
        j = int(rng.integers(len(support)))
        m_lo = float(support[j])
        y_lo = lex_band_start(m_lo)
    # upper corner: any mediator cut above m_lo, any outcome threshold above y_lo
    j_hi = int(rng.integers(len(support)))
    m_hi = float(support[j_hi]) + 0.5
    y_hi_choices = [lv + 0.5 for lv in an.outcome_levels() if lv + 0.5 > (y_lo if y_lo != NEG_INF else -1e18)]
    y_hi = float(y_hi_choices[rng.integers(len(y_hi_choices))]) if y_hi_choices else POS_INF
    if m_lo != NEG_INF and m_hi <= m_lo:
        m_hi = m_lo + 0.5
    try:
        e = Evidence(
            x_star=x_star,
            interval_y=Interval(y_lo, y_hi),
            interval_m=Interval(m_lo, m_hi),
        )
    except InvalidEvidenceError:
        return diffs
    low, high = identify._evidence_bounds(an, e)
    if high - low <= 1e-6:
        return diffs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MediatorMonotonicityWarning)
        triple, _ = identify.natural_pns_with_mediator_evidence(
            an, q, e, mediator_monotone=True
        )
    truth = truth_with_evidence(scm, q, e)
    _check_triple(diffs, "lex_", triple, truth)
    return diffs


def equivalence_suite(n_scms: int = 200, seed: int = 0) -> dict:
    """Accept ``n_scms`` randomized threshold models that pass the
    monotone-coupling diagnostics and compare every identification
    operation at analytic CDFs against the definitional oracle; also runs
    joint-evidence comparisons on lexicographic models (one per four
    accepted models).  Returns the max absolute difference and counters."""
    rng = np.random.default_rng(seed)
    accepted = 0
    rejected = 0
    max_diff = 0.0
    worst = ("", 0.0)
    n_checks = 0
    attempts = 0
    while accepted < n_scms and attempts < n_scms * _MAX_ATTEMPTS:
        attempts += 1
        kx = 2 if rng.random() < 0.6 else 3
        km = 2 if rng.random() < 0.7 else 3
        ky = 2 if rng.random() < 0.7 else 3
        scm = random_threshold_scm(
            rng,
            treatment_levels=kx,
            mediator_levels=km,
            outcome_levels=ky,
            coherent=bool(rng.random() < 0.9),
        )
        if not _gate(scm):
            rejected += 1
            continue
        accepted += 1
        diffs = _equivalence_checks_for(scm, rng)
        if accepted % 4 == 0:
            lex = random_lex_scm(
                rng,
                treatment_levels=2,
                stripes=int(rng.integers(2, 4)),
                inner=int(rng.integers(2, 4)),
            )
            if _gate(lex, lex=True):
                diffs.extend(_lex_equivalence_checks(lex, rng))
        for name, diff in diffs:
            n_checks += 1
            # a NaN difference becomes the worst check and stays so
            if not diff <= max_diff and not math.isnan(max_diff):
                max_diff = diff
                worst = (name, diff)
    return {
        "accepted": accepted,
        "rejected": rejected,
        "max_abs_diff": max_diff,
        "worst_check": worst[0],
        "n_checks": n_checks,
    }
