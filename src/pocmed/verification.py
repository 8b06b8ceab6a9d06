"""Self-contained verification suites.

Everything here treats the identification stack as a black box and
compares it against independently computed references:

* closed-form truths of the built-in preset model (rederived inline from
  the logistic thresholds);
* the exact counterfactual oracle on randomized threshold models, gated
  by the monotone-coupling diagnostics;
* algebraic identities (decomposition, proportion sums) on randomized
  models, queries, and evidence;
* the estimation protocol (finite samples plus bootstrap intervals)
  against the exact truths.

The ``verify`` CLI command renders these rows; the acceptance test suite
asserts them.  The equivalence suite spends its random stream on a plan of
picklable per-model tasks before it checks any; the checks draw nothing,
so ``verify`` may hand a back part of them to its idle child process.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import identify
from .bootstrap import BootstrapConfig, bootstrap_ci, estimator_target
from .data import Evidence, Interval, Query, NEG_INF, POS_INF
from .errors import InvalidEvidenceError
from .identify import MediatorMonotonicityWarning
from .oracle import (
    AnalyticCdf,
    ScmSpec,
    TableNode,
    _crossing_events,
    logistic_bernoulli_preset,
    sample_observational,
    sigmoid,
    truth_pns,
    truth_with_evidence,
)

#: Closed-form exact truths of the preset model (thresholds sigmoid(1),
#: sigmoid(1.5), sigmoid(2)); rederived from scratch so the oracle engine
#: is checked against an independent expression, not against itself.
_S1, _S15, _S2 = sigmoid(1.0), sigmoid(1.5), sigmoid(2.0)

PRESET_CDF_BASE = _S1 * (1 - _S15) + (1 - _S1) ** 2          # P(Y < 1 | X = 0)
PRESET_CDF_ALT = _S15 * (1 - _S2) + (1 - _S15) ** 2          # P(Y < 1 | X = 1)
PRESET_CROSSWORLD = (1 - _S15) * (1 - _S1) + _S15 * (1 - _S15)
PRESET_T_PNS = PRESET_CDF_BASE - PRESET_CDF_ALT
PRESET_NI_PNS = (_S15 - _S1) ** 2
PRESET_ND_PNS = PRESET_CROSSWORLD - PRESET_CDF_ALT
PRESET_T_PN = PRESET_T_PNS / (1 - PRESET_CDF_ALT)
PRESET_ND_PN = PRESET_ND_PNS / (1 - PRESET_CDF_ALT)
PRESET_NI_PN = PRESET_NI_PNS / (1 - PRESET_CDF_ALT)
PRESET_T_PS = PRESET_T_PNS / PRESET_CDF_BASE

#: Rounded reference values published for this model (their direct and
#: indirect figures carry the Monte Carlo rounding of their source).
REFERENCE_ROUNDED = {"t_pns": 0.074, "nd_pns": 0.066, "ni_pns": 0.008}
REFERENCE_ROUNDED_PN = {"t_pn": 0.086, "nd_pn": 0.077, "ni_pn": 0.009}

PRESET_QUERY = Query(x_base=0.0, x_alt=1.0, y_threshold=1.0)


@dataclass(frozen=True)
class VerifyRow:
    name: str
    passed: bool | None          # None marks an informational row
    detail: str


# -- exact-truth rows ---------------------------------------------------------


def exact_truth_rows() -> list[VerifyRow]:
    scm = logistic_bernoulli_preset()
    rows = []
    rep = truth_pns(scm, PRESET_QUERY)
    for name, ref in (
        ("t_pns", PRESET_T_PNS),
        ("nd_pns", PRESET_ND_PNS),
        ("ni_pns", PRESET_NI_PNS),
    ):
        diff = abs(rep.values[name] - ref)
        rows.append(
            VerifyRow(
                f"exact {name} vs closed form",
                diff <= 1e-9,
                f"engine {rep.values[name]:.9f} closed-form {ref:.9f} |diff| {diff:.2e}",
            )
        )
        rdiff = abs(rep.values[name] - REFERENCE_ROUNDED[name])
        rows.append(
            VerifyRow(
                f"exact {name} vs rounded reference",
                rdiff <= 0.002,
                f"engine {rep.values[name]:.6f} reference {REFERENCE_ROUNDED[name]:.3f} |diff| {rdiff:.4f}",
            )
        )
    pn_evidence = Evidence(x_star=1.0, interval_y=Interval(1.0, POS_INF))
    pn_rep = truth_with_evidence(scm, PRESET_QUERY, pn_evidence)
    for name, key, ref in (
        ("t_pn", "t_pns", PRESET_T_PN),
        ("nd_pn", "nd_pns", PRESET_ND_PN),
        ("ni_pn", "ni_pns", PRESET_NI_PN),
    ):
        diff = abs(pn_rep.values[key] - ref)
        rows.append(
            VerifyRow(
                f"exact {name} vs closed form",
                diff <= 1e-9,
                f"engine {pn_rep.values[key]:.9f} closed-form {ref:.9f} |diff| {diff:.2e}",
            )
        )
    return rows


def exclusion_notes() -> list[VerifyRow]:
    """Documented exclusions: recorded reference figures this suite does not
    reproduce, and why."""
    return [
        VerifyRow(
            "sufficiency-family reference values",
            None,
            "excluded: exact sufficiency total under the preset model is "
            f"{PRESET_T_PS:.6f}; the recorded reference 0.097 is irreconcilable "
            "with the stated model, so sufficiency checks are oracle-based",
        ),
        VerifyRow(
            "job-training dataset percentages",
            None,
            "excluded: the recorded 23.840% figure depends on an unstated "
            "discretization of the mediator scale; the pipeline is covered by "
            "schema and estimator tests instead",
        ),
        VerifyRow(
            "six-decimal recorded targets",
            None,
            "note: recorded six-decimal targets 0.074963/0.067476/0.007487 "
            "deviate from the exact closed forms "
            f"{PRESET_T_PNS:.6f}/{PRESET_ND_PNS:.6f}/{PRESET_NI_PNS:.6f} "
            "by 2e-6..7e-6; this suite pins the closed forms",
        ),
    ]


# -- estimation rows ----------------------------------------------------------


def estimation_rows(
    seed: int = 0, replicates: int = 1000, sizes=(100, 1000, 10000)
) -> list[VerifyRow]:
    scm = logistic_bernoulli_preset()
    tol = {100: 0.15, 1000: 0.05, 10000: 0.015}
    rows = []
    target = estimator_target("natural", PRESET_QUERY)
    for i, n in enumerate(sizes):
        data = sample_observational(scm, n, seed=seed + i)
        cis = bootstrap_ci(
            data, target, BootstrapConfig(replicates=replicates, seed=seed + i)
        )
        ci = cis["t_pns"]
        err = abs(ci.point - PRESET_T_PNS)
        rows.append(
            VerifyRow(
                f"t_pns estimate, n={n}",
                err <= tol[n],
                f"estimate {ci.point:.4f} CI [{ci.lower:.4f}, {ci.upper:.4f}] "
                f"truth {PRESET_T_PNS:.4f} |err| {err:.4f} (tol {tol[n]})",
            )
        )
        if n == 10000:
            width = ci.upper - ci.lower
            rows.append(
                VerifyRow(
                    "t_pns CI width, n=10000",
                    0.02 <= width <= 0.04,
                    f"width {width:.4f} (band [0.02, 0.04])",
                )
            )
    return rows


# -- randomized threshold models ----------------------------------------------


def _clip_prob(p: float) -> float:
    return min(max(p, 0.02), 0.98)


def _sorted_cuts(rng, k: int, lo=0.08, hi=0.92, gap=0.04) -> tuple[float, ...]:
    """``k`` sorted uniform cuts in ``[lo, hi]``, ``gap`` apart; ValueError,
    before any draw, where none fit (at ``(k - 1) gap == hi - lo`` too).

    Up to 4 cuts are drawn by rejection.  From 5 on, where few such draws
    fit, the i-th of ``k`` sorted uniforms over the slack
    ``hi - lo - (k - 1) gap`` is moved up by ``lo + i gap``, which has the
    same law; a draw that rounding leaves less than ``gap`` apart is drawn
    again, as a rejected one is."""
    if k >= 2 and (k - 1) * gap >= hi - lo:
        raise ValueError(f"{k} cuts at least {gap} apart do not fit in [{lo}, {hi}]")
    slack = hi - lo - (k - 1) * gap
    while True:
        if k < 5:
            cuts = sorted(rng.uniform(lo, hi, size=k).tolist())
        else:
            spread = sorted(rng.uniform(0.0, slack, size=k).tolist())
            cuts = [lo + u + i * gap for i, u in enumerate(spread)]
        if all(b - a >= gap for a, b in zip(cuts, cuts[1:])):
            return tuple(cuts)


def _shifted_cuts(base: tuple[float, ...], shift: float) -> tuple[float, ...]:
    """``base`` moved down by ``shift``: each cut clipped by :func:`_clip_prob`,
    at least 0.02 above the one before it, and the i-th of k cuts at most
    ``0.985 - 0.005 (k - 1 - i)``, so that the cuts stay strictly increasing."""
    cuts = []
    prev = 0.0
    for i, c in enumerate(base):
        prev = min(max(_clip_prob(c - shift), prev + 0.02), 0.985 - 0.005 * (len(base) - 1 - i))
        cuts.append(prev)
    return tuple(cuts)


def random_threshold_scm(
    rng: np.random.Generator,
    treatment_levels: int = 2,
    mediator_levels: int = 2,
    outcome_levels: int = 2,
    coherent: bool = True,
) -> ScmSpec:
    """Random threshold model with ascending value couplings.

    ``coherent=True`` biases mediator and outcome responses to be
    stochastically increasing in their causal parents, which makes the
    monotone-coupling diagnostics likely (not certain) to pass; with
    ``coherent=False`` effect signs are random.
    """
    kx, km, ky = treatment_levels, mediator_levels, outcome_levels
    x_levels = tuple(float(i) for i in range(kx))
    treatment = TableNode({(): (tuple((i + 1) / kx for i in range(kx - 1)), x_levels)})

    def sign():
        return 1.0 if coherent else (-1.0, 1.0)[rng.integers(2)]

    m_slope = sign() * rng.uniform(0.08, 0.35)
    m_base = _sorted_cuts(rng, km - 1, lo=0.25, hi=0.75, gap=0.12)
    med_cells = {}
    for x in x_levels:
        shift = m_slope * (x / max(kx - 1, 1))
        med_cells[(x,)] = (_shifted_cuts(m_base, shift), tuple(float(j) for j in range(km)))
    mediator = TableNode(med_cells)

    w_x = sign() * rng.uniform(0.05, 0.3)
    w_m = sign() * rng.uniform(0.05, 0.3)
    y_base = _sorted_cuts(rng, ky - 1, lo=0.25, hi=0.8, gap=0.12)
    out_cells = {}
    for x in x_levels:
        for m in range(km):
            shift = w_x * (x / max(kx - 1, 1)) + w_m * (m / max(km - 1, 1))
            out_cells[(x, float(m))] = (
                _shifted_cuts(y_base, shift),
                tuple(float(j) for j in range(ky)),
            )
    outcome = TableNode(out_cells)
    return ScmSpec(treatment=treatment, mediator=mediator, outcome=outcome)


_LEX_BAND = 4.0


def random_lex_scm(
    rng: np.random.Generator, treatment_levels: int = 2, stripes: int = 2, inner: int = 2
) -> ScmSpec:
    """Random model whose mediator is strictly increasing across shared
    noise stripes for every treatment arm and whose outcome values are
    banded by the mediator (band width :data:`_LEX_BAND`), so the compound
    response is monotone in the lexicographic (mediator-noise,
    outcome-noise) order and joint mediator-outcome evidence is
    identifiable."""
    kx = treatment_levels
    x_levels = tuple(float(i) for i in range(kx))
    treatment = TableNode({(): (tuple((i + 1) / kx for i in range(kx - 1)), x_levels)})
    stripe_cuts = _sorted_cuts(rng, stripes - 1, lo=0.25, hi=0.75, gap=0.15)
    med_cells = {
        (x,): (stripe_cuts, tuple(float(j * kx + int(x)) for j in range(stripes)))
        for x in x_levels
    }
    mediator = TableNode(med_cells)
    m_values = sorted({v for _, values in med_cells.items() for v in values[1]})
    out_cells = {}
    for x in x_levels:
        for m in m_values:
            cuts = _sorted_cuts(rng, inner - 1, lo=0.2, hi=0.8, gap=0.1)
            out_cells[(x, float(m))] = (
                cuts,
                tuple(m * _LEX_BAND + j for j in range(inner)),
            )
    outcome = TableNode(out_cells)
    return ScmSpec(treatment=treatment, mediator=mediator, outcome=outcome)


def lex_band_start(m_level: float) -> float:
    """Outcome threshold aligned with the start of a mediator band: the
    events (outcome below it) and (mediator below ``m_level``) coincide."""
    return m_level * _LEX_BAND


# -- randomized query / evidence draws ----------------------------------------


def _random_contrast(rng, levels):
    i, j = rng.choice(len(levels), size=2, replace=False)
    return float(levels[i]), float(levels[j])


def _y_grid(an: AnalyticCdf):
    levels = an.outcome_levels()
    grid = list(levels[1:]) + [lv + 0.5 for lv in levels]
    return grid


def _random_query(rng, an: AnalyticCdf, with_m: bool = False) -> Query:
    x_base, x_alt = _random_contrast(rng, an.x_levels())
    grid = _y_grid(an)
    y = float(grid[rng.integers(len(grid))])
    m_fixed = None
    if with_m:
        support = an.mediator_support(x_alt)
        m_fixed = float(support[rng.integers(len(support))])
    return Query(x_base=x_base, x_alt=x_alt, y_threshold=y, m_fixed=m_fixed)


def _random_outcome_interval(rng, an: AnalyticCdf, x_star: float) -> Interval:
    """Evidence interval with positive analytic mass in the x* arm."""
    levels = an.outcome_levels()
    for _ in range(50):
        lo = NEG_INF if rng.random() < 0.3 else float(
            levels[rng.integers(len(levels))] - float(rng.random() < 0.5) * 0.5
        )
        if rng.random() < 0.3:
            hi, closed = POS_INF, False
        else:
            hi = float(levels[rng.integers(len(levels))] + float(rng.random() < 0.5) * 0.5)
            closed = bool(rng.random() < 0.5)
        if not (lo < hi or (lo == hi and closed and not math.isinf(lo))):
            continue
        interval = Interval(lo, hi, upper_closed=closed)
        low, high = identify._evidence_bounds(an, Evidence(x_star, interval))
        if high - low > 1e-6:
            return interval
    return Interval.full()


def _gap_point(rng, levels) -> float:
    """A value carrying no outcome atom (mid-gap or outside the range)."""
    choices = [lv + 0.5 for lv in levels] + [levels[0] - 1.0]
    return float(choices[rng.integers(len(choices))])


# -- decomposition suite (algebraic identities) --------------------------------


def _worst(current: float, err: float) -> float:
    """``max(current, err)``, except that a NaN ``err`` is kept, where
    ``max`` would drop it; a NaN ``current`` stays, as with ``max``."""
    return err if math.isnan(err) else max(current, err)


def decomposition_suite(n_scms: int = 1000, seed: int = 0) -> dict:
    """Randomized check of the exact decomposition and proportion
    identities, plus agreement between the summed total and the direct
    three-CDF total formula, across evidence shapes and both evidence
    cases.  Returns max absolute errors and counts."""
    rng = np.random.default_rng(seed)
    max_decomp = 0.0
    max_prop = 0.0
    n_case_b = 0
    n_checked = 0
    for i in range(n_scms):
        scm = random_threshold_scm(
            rng,
            treatment_levels=int(rng.integers(2, 4)),
            mediator_levels=int(rng.integers(2, 4)),
            outcome_levels=int(rng.integers(2, 4)),
            coherent=bool(rng.random() < 0.5),
        )
        an = AnalyticCdf(scm)
        q = _random_query(rng, an)

        results = [identify.natural_pns(an, q)]
        x_star = float(an.x_levels()[rng.integers(len(an.x_levels()))])
        mode = i % 3
        if mode == 0:
            e = Evidence(x_star=x_star, interval_y=_random_outcome_interval(rng, an, x_star))
            triple, terms = identify.natural_pns_with_evidence(an, q, e)
            results.append(triple)
        elif mode == 1:
            e = Evidence(
                x_star=x_star,
                interval_y=Interval.point(_gap_point(rng, an.outcome_levels())),
            )
            triple, terms = identify.natural_pns_with_evidence(an, q, e)
            if terms.case_flag == identify.CASE_B:
                n_case_b += 1
            results.append(triple)
        else:
            terms = None
            results.append(identify.pn_family(an, q))
            results.append(identify.ps_family(an, q))

        a = an.cdf_y_given_x(q.y_threshold, q.x_base)
        b = an.cdf_y_given_x(q.y_threshold, q.x_alt)
        direct_total = max(a - b, 0.0)
        max_decomp = _worst(max_decomp, abs(results[0].t_pns - direct_total))
        # in the nondegenerate evidence branch, the summed total must match
        # the direct clipped-margin-over-mass formula
        if terms is not None and terms.case_flag == identify.CASE_A:
            formula_total = max(terms.margin_total / terms.ev_mass, 0.0)
            max_decomp = _worst(max_decomp, abs(results[1].t_pns - formula_total))
        for triple in results:
            n_checked += 1
            max_decomp = _worst(
                max_decomp, abs(triple.t_pns - (triple.nd_pns + triple.ni_pns))
            )
            if not triple.t_pns <= 0.0:  # positive, or NaN
                shares = math.nan if triple.prop_nd is None else triple.prop_nd + triple.prop_ni
                max_prop = _worst(max_prop, abs(shares - 1.0))
    return {
        "max_decomposition_error": max_decomp,
        "max_proportion_error": max_prop,
        "n_triples": n_checked,
        "n_case_b": n_case_b,
    }


# -- oracle-equivalence suite ---------------------------------------------------


def _check_pair(diffs: list, name: str, got: float, want: float):
    diffs.append((name, abs(got - want)))


def _check_triple(diffs: list, prefix: str, triple, truth) -> None:
    """A :func:`_check_pair` per quantity, named ``prefix`` and its key."""
    for key in ("t_pns", "nd_pns", "ni_pns"):
        _check_pair(diffs, prefix + key, getattr(triple, key), truth.values[key])


@dataclass(frozen=True)
class _LexTask:
    """A lexicographic model's planned joint-evidence comparison."""

    scm: ScmSpec
    an: AnalyticCdf
    q: Query
    e: Evidence


@dataclass(frozen=True)
class _ModelTask:
    """An accepted model's planned comparisons: its query, its evidences
    (``e_cd`` is None where no point-mediator interval with mass was found)
    and its lexicographic follow-up, with the :class:`AnalyticCdf` that
    planning read, so that checking them draws nothing."""

    scm: ScmSpec
    an: AnalyticCdf
    q: Query
    e_a: Evidence
    e_b: Evidence
    e_cd: Evidence | None
    e_cd_b: Evidence
    lex: _LexTask | None


def _plan_lex(scm: ScmSpec, rng: np.random.Generator) -> _LexTask | None:
    """The joint mediator-outcome evidence drawn for a lexicographic model;
    None where the box is invalid or has no mass.

    The evidence box keeps its lower corner aligned (the outcome cut sits
    at the start of the mediator band, or both lower bounds are open), the
    regime under which the joint-evidence identification applies."""
    an = AnalyticCdf(scm)
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
        return None
    low, high = identify._evidence_bounds(an, e)
    if high - low <= 1e-6:
        return None
    return _LexTask(scm, an, q, e)


def _plan_model(scm: ScmSpec, rng: np.random.Generator, lex: bool) -> _ModelTask:
    """Every random pick of one accepted model's comparisons, in the
    stream's order, and with ``lex`` its lexicographic follow-up."""
    an = AnalyticCdf(scm)
    q = _random_query(rng, an, with_m=True)
    x_levels = an.x_levels()
    x_star = float(x_levels[rng.integers(len(x_levels))])
    # outcome evidence, nondegenerate and degenerate (zero-mass interval)
    e_a = Evidence(x_star=x_star, interval_y=_random_outcome_interval(rng, an, x_star))
    e_b = Evidence(
        x_star=x_star,
        interval_y=Interval.point(_gap_point(rng, an.outcome_levels())),
    )

    # point-mediator evidence around the controlled-direct query
    support = an.mediator_support(x_star)
    m_star = float(support[rng.integers(len(support))])

    levels = an.outcome_levels()
    e_cd = None
    for _ in range(50):
        cand = _random_outcome_interval(rng, an, x_star)
        low, high = identify._evidence_bounds(an, Evidence(x_star, cand, m_star=m_star))
        if high - low > 1e-6:
            e_cd = Evidence(x_star=x_star, m_star=m_star, interval_y=cand)
            break
    e_cd_b = Evidence(
        x_star=x_star, m_star=m_star, interval_y=Interval.point(_gap_point(rng, levels))
    )

    follow = None
    if lex:
        lex_scm = random_lex_scm(
            rng,
            treatment_levels=2,
            stripes=int(rng.integers(2, 4)),
            inner=int(rng.integers(2, 4)),
        )
        if _gate(lex_scm, lex=True):
            follow = _plan_lex(lex_scm, rng)
    return _ModelTask(scm, an, q, e_a, e_b, e_cd, e_cd_b, follow)


def _lex_diffs(task: _LexTask) -> list:
    """The joint mediator-outcome evidence comparisons of a planned
    lexicographic model."""
    diffs: list = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MediatorMonotonicityWarning)
        triple, _ = identify.natural_pns_with_mediator_evidence(
            task.an, task.q, task.e, mediator_monotone=True
        )
    truth = truth_with_evidence(task.scm, task.q, task.e)
    _check_triple(diffs, "lex_", triple, truth)
    return diffs


def _model_diffs(task: _ModelTask) -> list:
    """All identification-vs-oracle comparisons of one planned model, as
    ``(name, |identify - oracle|)`` pairs; a pure function of ``task``."""
    scm, an, q = task.scm, task.an, task.q
    diffs: list = []

    # controlled-direct and natural quantities, unconditional
    truth = truth_pns(scm, q)
    _check_pair(diffs, "cd", identify.cd_pns(an, q), truth.values["cd_pns"])
    _check_triple(diffs, "", identify.natural_pns(an, q), truth)

    triple_a, _ = identify.natural_pns_with_evidence(an, q, task.e_a)
    truth_a = truth_with_evidence(scm, q, task.e_a)
    _check_triple(diffs, "ev_a_", triple_a, truth_a)

    triple_b, _ = identify.natural_pns_with_evidence(an, q, task.e_b)
    truth_b = truth_with_evidence(scm, q, task.e_b, degenerate="threshold-limit")
    _check_triple(diffs, "ev_b_", triple_b, truth_b)

    if task.e_cd is not None:
        value, _ = identify.cd_pns_with_evidence(an, q, task.e_cd)
        truth_cd = truth_with_evidence(scm, q, task.e_cd)
        _check_pair(diffs, "cd_ev_a", value, truth_cd.values["cd_pns"])

    value_b, _ = identify.cd_pns_with_evidence(an, q, task.e_cd_b)
    truth_cd_b = truth_with_evidence(scm, q, task.e_cd_b, degenerate="threshold-limit")
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

    if task.lex is not None:
        diffs.extend(_lex_diffs(task.lex))
    return diffs


def _gate(scm: ScmSpec, lex: bool = False) -> bool:
    """``check_monotonicity(scm).ok``, and also ``.mediator_ok`` for a
    lexicographic model, decided at the first crossing found; the mediator
    regions are built only for ``lex``."""
    return next(_crossing_events(scm, mediator=lex), None) is None


#: Models :func:`equivalence_suite` may draw per model it is to accept.
_MAX_ATTEMPTS = 40


def _equivalence_plan(n_scms: int, seed: int) -> tuple[list[_ModelTask], int]:
    """The equivalence suite's random stream, consumed: a task per
    accepted model, in order, and the number of models the gate rejected.
    Every fourth accepted model plans a lexicographic follow-up."""
    rng = np.random.default_rng(seed)
    tasks: list[_ModelTask] = []
    rejected = 0
    attempts = 0
    while len(tasks) < n_scms and attempts < n_scms * _MAX_ATTEMPTS:
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
        tasks.append(_plan_model(scm, rng, lex=(len(tasks) + 1) % 4 == 0))
    return tasks, rejected


def _equivalence_summary(accepted: int, rejected: int, per_model: list) -> dict:
    """The suite's dict from each accepted model's diffs, in model order:
    the first of equal maxima is the worst check."""
    max_diff = 0.0
    worst = ("", 0.0)
    n_checks = 0
    for diffs in per_model:
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


def equivalence_suite(n_scms: int = 200, seed: int = 0, *, _map=None) -> dict:
    """Accept ``n_scms`` randomized threshold models that pass the
    monotone-coupling diagnostics and compare every identification
    operation at analytic CDFs against the definitional oracle; also runs
    joint-evidence comparisons on lexicographic models (one per four
    accepted models).  Returns the max absolute difference and counters.

    The random stream is spent on a plan of every model's picks first; the
    checks are pure functions of their tasks, run by ``_map(fn, tasks)``
    (in order, here, by default), which must return ``fn``'s results in
    task order: ``verify`` passes a :meth:`pocmed._fork.Child.map` that
    may hand a back part of them to its idle child."""
    tasks, rejected = _equivalence_plan(n_scms, seed)
    per_model = [_model_diffs(t) for t in tasks] if _map is None else _map(_model_diffs, tasks)
    return _equivalence_summary(len(tasks), rejected, per_model)


def suite_rows(eq: dict, dec: dict) -> list[VerifyRow]:
    """The rows of an :func:`equivalence_suite` and a
    :func:`decomposition_suite` result; a NaN figure fails its row."""
    return [
        VerifyRow(
            f"oracle equivalence ({eq['accepted']} models, {eq['n_checks']} checks)",
            eq["max_abs_diff"] <= 1e-9,
            f"max |identify - oracle| {eq['max_abs_diff']:.2e} "
            f"(worst: {eq['worst_check']}; {eq['rejected']} models rejected by the gate)",
        ),
        VerifyRow(
            f"decomposition identities ({dec['n_triples']} evaluations)",
            dec["max_decomposition_error"] <= 1e-12
            and dec["max_proportion_error"] <= 1e-12,
            f"max |t-(nd+ni)| {dec['max_decomposition_error']:.2e}, "
            f"max |props-1| {dec['max_proportion_error']:.2e}, "
            f"{dec['n_case_b']} degenerate-evidence hits",
        ),
    ]
