"""Identification formulas for direct and indirect probabilities of causation.

Every routine here is a pure function of a CDF provider (an empirical
:class:`~pocmed.ecdf.CdfModel` or the analytic surface of a structural
model; both expose the same queries) and a query, so results can be
evaluated on data or at infinite-sample truth interchangeably.

Quantities, for the contrast ``x_base -> x_alt`` and the event
``outcome >= y``:

* ``cd_pns``: the treatment change flips the outcome event with the
  mediator clamped to a fixed value.
* ``natural_pns``: total flip probability split into a direct part (the
  flip persists when the mediator is held at its alt-treatment response)
  and an indirect part (the flip operates only through the mediator).
* with-evidence variants: the same quantities for the subpopulation whose
  factual treatment, outcome (and optionally mediator) match an observed
  evidence record.
* ``pn_family`` / ``ps_family``: necessity and sufficiency variants,
  realized exactly as the with-evidence total quantity under the factual
  events (outcome already at-or-above ``y`` under ``x_alt``) and (outcome
  strictly below ``y`` under ``x_base``), so the direct+indirect
  decomposition holds by construction.

Writing ``a`` and ``b`` for the outcome CDFs at the base and alt arms,
``r`` for the cross-world CDF, and ``l <= u`` for the evidence CDF bounds,
every quantity is one clipped-margin kernel over the flip band ``[b, a)``:
the non-degenerate ("case A") forms are ratios such as
``max(min(a, u) - max(b, l), 0) / (u - l)``, the unconditional quantities
are the band ``(l, u) = (0, 1)``, and the controlled-direct ones have no
cross-world split (``r = +inf``).  When the evidence event has zero
empirical mass (``u == l``, "case B") the ratio degenerates to the
indicator of the evidence boundary falling inside the flip band, namely
``b <= l < a``, with the direct/indirect split decided by ``l < r`` versus
``r <= l``.  The case-B orientation follows the continuous limit of case A
(let ``u -> l`` from above), which keeps the estimator consistent with the
exogenous-threshold construction that justifies it; the decomposition
``total = direct + indirect`` then holds exactly in both cases.

Every formula reads its kernel inputs ``(a, b, r, l, u)`` through one
collector, ``_margin_inputs``.  The estimator targets call it on a
:class:`~pocmed.ecdf.CdfModel` and the batched bootstrap on a
:class:`~pocmed.ecdf.CountMatrix` (one value per replicate); both turn the
inputs into a family's result with ``bootstrap._family``, over
``_clipped_columns``: the kernel over float64 columns, bit for bit the
scalar ``_clipped`` that the formulas keep (one call on scalars costs
over ten times more through arrays).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Evidence, Interval, Query, KIND_INTERVAL_MEDIATOR, KIND_OUTCOME, KIND_POINT_MEDIATOR, NEG_INF, POS_INF
from .errors import AssumptionError, InvalidEvidenceError

CASE_UNCONDITIONAL = "unconditional"
CASE_A = "A"
CASE_B = "B"


class MediatorMonotonicityWarning(UserWarning):
    """Joint mediator-outcome evidence relies on a mediator-noise
    monotonicity condition that additive-noise models (linear or additive
    Gaussian structural equations) do not satisfy."""


@dataclass(frozen=True)
class PnsTriple:
    """Total, direct, and indirect flip probabilities with their shares.

    ``t_pns == nd_pns + ni_pns`` holds exactly; when the total is positive
    the shares are defined and sum to one, otherwise they are ``None``.
    """

    t_pns: float
    nd_pns: float
    ni_pns: float
    prop_nd: float | None
    prop_ni: float | None
    case_flag: str


@dataclass(frozen=True)
class EvidenceTerms:
    """Intermediate quantities of a with-evidence evaluation.

    ``cdf_base`` / ``cdf_alt`` are the outcome CDFs at the query threshold
    in the base and alt conditioning cells, ``crossworld`` the mixed-arm
    CDF (absent for controlled-direct queries), ``ev_low`` / ``ev_high``
    the evidence CDF bounds whose difference ``ev_mass`` is the empirical
    evidence probability, and the margins are the clipped numerators of
    the case-A ratios.
    """

    cdf_base: float
    cdf_alt: float
    crossworld: float | None
    ev_low: float
    ev_high: float
    ev_mass: float
    margin_total: float
    margin_direct: float | None
    margin_indirect: float | None
    case_flag: str


def _make_triple(nd: float, ni: float, case_flag: str) -> PnsTriple:
    t = nd + ni
    if t > 0.0:
        prop_nd, prop_ni = nd / t, ni / t
    else:
        prop_nd = prop_ni = None
    return PnsTriple(t, nd, ni, prop_nd, prop_ni, case_flag)


def _evidence_bounds(model, e: Evidence) -> tuple[float, float]:
    """Evidence CDF bounds ``(l, u)`` in the ``x*`` arm: the mass strictly
    below each end of the evidence event, so that ``u - l`` is its mass.

    Outcome evidence reads the arm's outcome CDF at the interval ends,
    point-mediator evidence the same CDF in the ``(x*, m*)`` cell, and
    interval-mediator evidence the joint outcome-mediator CDF at the box
    corners; the first two are boxes whose mediator ends lie at ``+inf``.
    The lower ends are always included, so the lower mass uses the strict
    CDFs; an upper end uses the strict CDF when open and the non-strict one
    when closed.  Infinite ends give 0 and 1.
    """
    iy, im = e.interval_y, e.interval_m
    if im is not None:
        m_lower, m_upper, m_strict = im.lower, im.upper, not im.upper_closed

        def below(y, m, strict_y, strict_m):
            return model.joint_cdf_ym_given_x(y, m, e.x_star, strict_y, strict_m)
    else:
        m_lower, m_upper, m_strict = POS_INF, POS_INF, True

        def below(y, m, strict_y, strict_m):
            if e.m_star is None:
                return model.cdf_y_given_x(y, e.x_star, strict_y)
            return model.cdf_y_given_xm(y, e.x_star, e.m_star, strict_y)
    low = 0.0 if NEG_INF in (iy.lower, m_lower) else below(iy.lower, m_lower, True, True)
    if iy.upper == m_upper == POS_INF:
        high = 1.0
    else:
        high = below(iy.upper, m_upper, not iy.upper_closed, m_strict)
    return low, high


def _clipped(a: float, b: float, r: float, low: float, high: float) -> tuple:
    """The clipped-margin kernel: ``(nd, ni, (total, direct, indirect)
    margins, case)`` for base/alt CDFs ``a``, ``b``, cross-world CDF ``r``
    and evidence CDF bounds ``low <= high``.

    The unconditional quantities are the band ``(0, 1)``; ``r = +inf``
    leaves no cross-world split, so the controlled-direct quantity is
    ``nd``.
    """
    mass = high - low
    margins = (
        min(a, high) - max(b, low),
        min(a, high, r) - max(b, low),
        min(a, high) - max(b, low, r),
    )
    if mass != 0.0:
        return max(margins[1] / mass, 0.0), max(margins[2] / mass, 0.0), margins, CASE_A
    inside = b <= low < a
    nd = 1.0 if (inside and low < r) else 0.0
    ni = 1.0 if (inside and r <= low) else 0.0
    return nd, ni, margins, CASE_B


def _clipped_columns(a, b, r, low, high) -> tuple:
    """:func:`_clipped` and :func:`_make_triple` over float64 columns, bit
    for bit: ``(t, nd, ni, prop_nd, prop_ni, case_b)``, with case B a mask,
    NaN for an undefined share and NaN in every column of a row with a NaN
    input.  Python's ``min``/``max`` keep the first of equal arguments
    (``-0.0`` and ``0.0``), hence ``np.where`` in that order."""
    a, b, r, low, high = np.broadcast_arrays(*np.atleast_1d(a, b, r, low, high))
    top, bottom = np.where(high < a, high, a), np.where(low > b, low, b)
    mass = high - low
    case_b, bad = mass == 0.0, np.isnan([a, b, r, low, high]).any(axis=0)
    inside = (b <= low) & (low < a)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        nd = (np.where(r < top, r, top) - bottom) / mass
        ni = (top - np.where(r > bottom, r, bottom)) / mass
        nd = np.where(case_b, np.where(inside & (low < r), 1.0, 0.0), np.where(0.0 > nd, 0.0, nd))
        ni = np.where(case_b, np.where(inside & (r <= low), 1.0, 0.0), np.where(0.0 > ni, 0.0, ni))
        nd, ni = np.where(bad, np.nan, nd), np.where(bad, np.nan, ni)
        t = nd + ni
        return t, nd, ni, np.where(t > 0.0, nd / t, np.nan), np.where(t > 0.0, ni / t, np.nan), case_b


def _margin_inputs(model, kind: str, q: Query, e: Evidence | None = None) -> tuple:
    """The inputs ``(a, b, r, low, high)`` of the clipped-margin kernel for
    one estimand family, read from ``model`` in the order its formula reads
    them.

    ``kind`` is ``"natural"`` (``e`` absent, outcome or interval-mediator
    evidence), ``"cd"`` (``e`` absent or point-mediator evidence), ``"pn"``
    or ``"ps"`` (their own outcome evidence); another kind raises
    :class:`ValueError` before any query.  Every formula and estimator
    target takes its inputs from here, and so does the batched bootstrap,
    whose :class:`~pocmed.ecdf.CountMatrix` answers each query with one
    value per resample.
    """
    if kind == "cd":
        if q.m_fixed is None:
            raise InvalidEvidenceError("controlled-direct query requires m_fixed")
        if e is not None:
            _require_kind(e, KIND_POINT_MEDIATOR, "cd_pns_with_evidence")
        a = model.cdf_y_given_xm(q.y_threshold, q.x_base, q.m_fixed)
        b = model.cdf_y_given_xm(q.y_threshold, q.x_alt, q.m_fixed)
        low, high = (0.0, 1.0) if e is None else _evidence_bounds(model, e)
        return a, b, POS_INF, low, high
    if kind == "pn":
        e = Evidence(x_star=q.x_alt, interval_y=Interval(q.y_threshold, POS_INF))
    elif kind == "ps":
        e = Evidence(x_star=q.x_base, interval_y=Interval(NEG_INF, q.y_threshold))
    elif kind != "natural":
        raise ValueError(f"unknown estimator kind {kind!r}")
    low, high = (0.0, 1.0) if e is None else _evidence_bounds(model, e)
    a = model.cdf_y_given_x(q.y_threshold, q.x_base)
    b = model.cdf_y_given_x(q.y_threshold, q.x_alt)
    r = model.crossworld_cdf(q.y_threshold, q.x_base, q.x_alt)
    return a, b, r, low, high


# -- unconditional quantities ---------------------------------------------


def cd_pns(model, q: Query) -> float:
    """Controlled-direct flip probability with the mediator clamped at
    ``q.m_fixed``: ``max(P(Y<y | x_base, m) - P(Y<y | x_alt, m), 0)``."""
    return _clipped(*_margin_inputs(model, "cd", q))[0]


def natural_pns(model, q: Query) -> PnsTriple:
    """Total flip probability and its natural direct/indirect split.

    With ``a``, ``b`` the base/alt CDFs and ``r`` the cross-world CDF:
    direct ``max(min(a, r) - b, 0)``, indirect ``max(a - max(b, r), 0)``;
    the total equals ``max(a - b, 0)`` and the sum of the two parts.
    """
    nd, ni, _, _ = _clipped(*_margin_inputs(model, "natural", q))
    return _make_triple(nd, ni, CASE_UNCONDITIONAL)


# -- with-evidence quantities ----------------------------------------------


def _require_kind(e: Evidence, kind: str, op: str) -> None:
    if e.kind != kind:
        raise InvalidEvidenceError(f"{op} requires {kind} evidence, got {e.kind}")


def cd_pns_with_evidence(model, q: Query, e: Evidence) -> tuple[float, EvidenceTerms]:
    """Controlled-direct flip probability in the subpopulation with factual
    treatment ``x*``, mediator ``m*``, and outcome inside the evidence
    interval.

    Case A (evidence cell mass positive): ``max(margin / mass, 0)`` with
    ``margin = min(a, u) - max(b, l)``.  Case B (zero mass): indicator of
    ``b <= l < a`` with both comparison CDFs taken in their
    (treatment, mediator) cells, mirroring case A's structure.
    """
    a, b, r, low, high = _margin_inputs(model, "cd", q, e)
    value, _, (margin, _, _), case = _clipped(a, b, r, low, high)
    terms = EvidenceTerms(a, b, None, low, high, high - low, margin, None, None, case)
    return value, terms


def _natural_given(model, q: Query, e: Evidence) -> tuple[PnsTriple, EvidenceTerms]:
    a, b, r, low, high = _margin_inputs(model, "natural", q, e)
    nd, ni, margins, case = _clipped(a, b, r, low, high)
    terms = EvidenceTerms(a, b, r, low, high, high - low, *margins, case)
    return _make_triple(nd, ni, case), terms


def natural_pns_with_evidence(model, q: Query, e: Evidence) -> tuple[PnsTriple, EvidenceTerms]:
    """Total/direct/indirect flip probabilities in the subpopulation with
    factual treatment ``x*`` and outcome inside the evidence interval.

    Case A divides the clipped margins by the evidence mass ``u - l``;
    case B (zero mass) is the indicator of ``b <= l < a`` split by the
    position of the cross-world CDF relative to ``l`` (direct when
    ``l < r``, indirect when ``r <= l``; mutually exclusive).  An evidence
    interval covering the whole line reproduces :func:`natural_pns`
    bit-for-bit.
    """
    _require_kind(e, KIND_OUTCOME, "natural_pns_with_evidence")
    return _natural_given(model, q, e)


def natural_pns_with_mediator_evidence(
    model, q: Query, e: Evidence, *, mediator_monotone: bool = False
) -> tuple[PnsTriple, EvidenceTerms]:
    """Like :func:`natural_pns_with_evidence` but conditioning additionally
    on the factual mediator falling inside a mediator interval; the
    evidence CDF bounds become the joint outcome-mediator CDFs at the
    interval corners.

    Valid only when the mediator's structural response is monotone in its
    noise source; the caller must assert this via ``mediator_monotone=True``
    (a warning is still emitted, since additive-noise models violate the
    condition).
    """
    _require_kind(e, KIND_INTERVAL_MEDIATOR, "natural_pns_with_mediator_evidence")
    _assume_monotone_mediator(mediator_monotone)
    return _natural_given(model, q, e)


def _assume_monotone_mediator(mediator_monotone: bool) -> None:
    """Refuse joint mediator-outcome evidence unless its monotonicity
    condition is asserted; warn, at the public function's caller, if it is."""
    if not mediator_monotone:
        raise AssumptionError(
            "joint mediator-outcome evidence requires asserting the mediator "
            "monotonicity condition (pass mediator_monotone=True)"
        )
    warnings.warn(
        "joint mediator-outcome evidence assumes the mediator response is "
        "monotone in its noise source; additive-noise models (linear or "
        "additive Gaussian structural equations) do not satisfy this",
        MediatorMonotonicityWarning,
        stacklevel=3,
    )


# -- necessity / sufficiency families ---------------------------------------


def pn_family(model, q: Query) -> PnsTriple:
    """Necessity variants: the with-evidence total/direct/indirect
    quantities under the factual event (treatment at ``x_alt``, outcome
    already at-or-above the threshold), i.e. evidence interval
    ``[y, +inf)`` at ``x* = x_alt``."""
    nd, ni, _, case = _clipped(*_margin_inputs(model, "pn", q))
    return _make_triple(nd, ni, case)


def ps_family(model, q: Query) -> PnsTriple:
    """Sufficiency variants: evidence interval ``(-inf, y)`` at
    ``x* = x_base`` (factual outcome strictly below the threshold)."""
    nd, ni, _, case = _clipped(*_margin_inputs(model, "ps", q))
    return _make_triple(nd, ni, case)
