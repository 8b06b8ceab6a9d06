"""The identification formulas as they were before one clipped-margin
kernel and one evidence-bounds function replaced them.

The functions below are copied unchanged: each writes its clipped-margin
arithmetic and its evidence-endpoint rule out in full.  The one later
change they share is in ``_make_triple``: when two separately rounded
parts sum past 1, the indirect part is trimmed to ``1 - nd``.
:class:`ReferenceAnalyticCdf` restores the analytic marginal CDF that mixed
the cell CDFs itself, before it became the joint CDF at ``m = +inf``.  The
current code must agree with them bit for bit, error messages included.
"""

from __future__ import annotations

import math
import warnings

from pocmed.data import Evidence, Interval, Query, KIND_INTERVAL_MEDIATOR, KIND_OUTCOME, KIND_POINT_MEDIATOR, NEG_INF, POS_INF
from pocmed.errors import AssumptionError, InvalidEvidenceError
from pocmed.identify import (
    CASE_A,
    CASE_B,
    CASE_UNCONDITIONAL,
    EvidenceTerms,
    MediatorMonotonicityWarning,
    PnsTriple,
)
from pocmed.oracle import AnalyticCdf


class ReferenceAnalyticCdf(AnalyticCdf):
    """:class:`AnalyticCdf` with its former marginal CDF and the mixture
    rule that CDF read, special cases included."""

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
        terms = [
            (self.mediator_pmf(m, x), self.cdf_y_given_xm(y, x, m, strict))
            for m in self.mediator_support(x)
        ]
        return self._mixture(terms)


def _make_triple(nd: float, ni: float, case_flag: str) -> PnsTriple:
    if nd + ni > 1.0:
        ni = 1.0 - nd
    t = nd + ni
    if t > 0.0:
        prop_nd, prop_ni = nd / t, ni / t
    else:
        prop_nd = prop_ni = None
    return PnsTriple(t, nd, ni, prop_nd, prop_ni, case_flag)


def _interval_cdf_bounds(cdf_at, interval: Interval) -> tuple[float, float]:
    """CDF mass strictly below each endpoint of an evidence interval.

    The lower endpoint is always included in the interval, so the excluded
    lower mass uses the strict CDF; the upper endpoint uses the strict CDF
    for a half-open interval and the non-strict CDF for a closed one.
    Infinite endpoints evaluate to 0 and 1 by convention.
    """
    low = 0.0 if interval.lower == NEG_INF else cdf_at(interval.lower, True)
    if interval.upper == POS_INF:
        high = 1.0
    else:
        high = cdf_at(interval.upper, not interval.upper_closed)
    return low, high


def cd_pns(model, q: Query) -> float:
    """Controlled-direct flip probability with the mediator clamped at
    ``q.m_fixed``: ``max(P(Y<y | x_base, m) - P(Y<y | x_alt, m), 0)``."""
    if q.m_fixed is None:
        raise InvalidEvidenceError("controlled-direct query requires m_fixed")
    a = model.cdf_y_given_xm(q.y_threshold, q.x_base, q.m_fixed)
    b = model.cdf_y_given_xm(q.y_threshold, q.x_alt, q.m_fixed)
    return max(a - b, 0.0)


def natural_pns(model, q: Query) -> PnsTriple:
    """Total flip probability and its natural direct/indirect split.

    With ``a``, ``b`` the base/alt CDFs and ``r`` the cross-world CDF:
    direct ``max(min(a, r) - b, 0)``, indirect ``max(a - max(b, r), 0)``;
    the total equals ``max(a - b, 0)`` and the sum of the two parts.
    """
    a = model.cdf_y_given_x(q.y_threshold, q.x_base)
    b = model.cdf_y_given_x(q.y_threshold, q.x_alt)
    r = model.crossworld_cdf(q.y_threshold, q.x_base, q.x_alt)
    nd = max(min(a, r) - b, 0.0)
    ni = max(a - max(b, r), 0.0)
    return _make_triple(nd, ni, CASE_UNCONDITIONAL)


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
    if q.m_fixed is None:
        raise InvalidEvidenceError("controlled-direct query requires m_fixed")
    _require_kind(e, KIND_POINT_MEDIATOR, "cd_pns_with_evidence")
    a = model.cdf_y_given_xm(q.y_threshold, q.x_base, q.m_fixed)
    b = model.cdf_y_given_xm(q.y_threshold, q.x_alt, q.m_fixed)
    low, high = _interval_cdf_bounds(
        lambda v, strict: model.cdf_y_given_xm(v, e.x_star, e.m_star, strict),
        e.interval_y,
    )
    mass = high - low
    margin = min(a, high) - max(b, low)
    if mass != 0.0:
        value = max(margin / mass, 0.0)
        case = CASE_A
    else:
        value = 1.0 if (b <= low < a) else 0.0
        case = CASE_B
    terms = EvidenceTerms(
        cdf_base=a,
        cdf_alt=b,
        crossworld=None,
        ev_low=low,
        ev_high=high,
        ev_mass=mass,
        margin_total=margin,
        margin_direct=None,
        margin_indirect=None,
        case_flag=case,
    )
    return value, terms


def _natural_with_bounds(
    model, q: Query, low: float, high: float
) -> tuple[PnsTriple, EvidenceTerms]:
    a = model.cdf_y_given_x(q.y_threshold, q.x_base)
    b = model.cdf_y_given_x(q.y_threshold, q.x_alt)
    r = model.crossworld_cdf(q.y_threshold, q.x_base, q.x_alt)
    mass = high - low
    m_total = min(a, high) - max(b, low)
    m_direct = min(a, high, r) - max(b, low)
    m_indirect = min(a, high) - max(b, low, r)
    if mass != 0.0:
        nd = max(m_direct / mass, 0.0)
        ni = max(m_indirect / mass, 0.0)
        case = CASE_A
    else:
        inside = b <= low < a
        nd = 1.0 if (inside and low < r) else 0.0
        ni = 1.0 if (inside and r <= low) else 0.0
        case = CASE_B
    triple = _make_triple(nd, ni, case)
    terms = EvidenceTerms(
        cdf_base=a,
        cdf_alt=b,
        crossworld=r,
        ev_low=low,
        ev_high=high,
        ev_mass=mass,
        margin_total=m_total,
        margin_direct=m_direct,
        margin_indirect=m_indirect,
        case_flag=case,
    )
    return triple, terms


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
    low, high = _interval_cdf_bounds(
        lambda v, strict: model.cdf_y_given_x(v, e.x_star, strict), e.interval_y
    )
    return _natural_with_bounds(model, q, low, high)


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
        stacklevel=2,
    )
    iy, im = e.interval_y, e.interval_m
    if iy.lower == NEG_INF or im.lower == NEG_INF:
        low = 0.0
    else:
        low = model.joint_cdf_ym_given_x(iy.lower, im.lower, e.x_star, True, True)
    if iy.upper == POS_INF and im.upper == POS_INF:
        high = 1.0
    else:
        high = model.joint_cdf_ym_given_x(
            iy.upper,
            im.upper,
            e.x_star,
            not iy.upper_closed,
            not im.upper_closed,
        )
    return _natural_with_bounds(model, q, low, high)


def pn_family(model, q: Query) -> PnsTriple:
    """Necessity variants: the with-evidence total/direct/indirect
    quantities under the factual event (treatment at ``x_alt``, outcome
    already at-or-above the threshold), i.e. evidence interval
    ``[y, +inf)`` at ``x* = x_alt``."""
    e = Evidence(x_star=q.x_alt, interval_y=Interval(q.y_threshold, POS_INF))
    triple, _ = natural_pns_with_evidence(model, q, e)
    return triple


def ps_family(model, q: Query) -> PnsTriple:
    """Sufficiency variants: evidence interval ``(-inf, y)`` at
    ``x* = x_base`` (factual outcome strictly below the threshold)."""
    e = Evidence(x_star=q.x_base, interval_y=Interval(NEG_INF, q.y_threshold))
    triple, _ = natural_pns_with_evidence(model, q, e)
    return triple
