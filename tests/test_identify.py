"""Identification formulas: unconditional, with evidence, and the
necessity / sufficiency families."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pocmed as pm
from pocmed.ecdf import RowCounts
from pocmed.errors import AssumptionError, InvalidEvidenceError, PocError
from pocmed import identify, verification

import _identify_reference as reference
from conftest import B_ALT, ND_PNS, ND_PN, NI_PNS, NI_PN, S15, S2, T_PNS, T_PN, T_PS
from test_count_bootstrap import M_LEVELS, Y_LEVELS, _random_dataset

INF = float("inf")


class StubModel:
    """CDF provider with handcrafted values, for formula-level checks."""

    def __init__(self, cdf_table, crossworld):
        self._table = cdf_table  # (y, x, strict) -> probability
        self._crossworld = crossworld

    def cdf_y_given_x(self, y, x, strict=True):
        return self._table[(float(y), float(x), strict)]

    def cdf_y_given_xm(self, y, x, m, strict=True):
        return self._table[(float(y), float(x), strict)]

    def crossworld_cdf(self, y, x_base, x_alt):
        return self._crossworld


def _stub(a, b, r, l=0.2, u=0.8, x_star=2.0):
    table = {
        (0.0, 0.0, True): a,
        (0.0, 1.0, True): b,
        (-1.0, x_star, True): l,
        (1.0, x_star, True): u,
        (1.0, x_star, False): u,
        (0.0, x_star, True): l,
    }
    return StubModel(table, r)


Q = pm.Query(x_base=0, x_alt=1, y_threshold=0.0)
QM = pm.Query(x_base=0, x_alt=1, y_threshold=0.0, m_fixed=0.0)


# -- controlled direct ---------------------------------------------------------


def test_cd_same_arms_is_zero(preset_analytic):
    q = pm.Query(x_base=1, x_alt=1, y_threshold=1.0, m_fixed=1.0)
    assert pm.cd_pns(preset_analytic, q) == 0.0


def test_cd_clips_at_zero():
    assert pm.cd_pns(_stub(a=0.2, b=0.5, r=0.3), QM) == 0.0


def test_cd_preset_value(preset_analytic):
    q = pm.Query(x_base=0, x_alt=1, y_threshold=1.0, m_fixed=1.0)
    assert pm.cd_pns(preset_analytic, q) == pytest.approx(S2 - S15, abs=1e-15)


def test_cd_requires_m_fixed(preset_analytic):
    with pytest.raises(InvalidEvidenceError):
        pm.cd_pns(preset_analytic, pm.Query(0, 1, 1.0))


# -- natural family -------------------------------------------------------------


def test_natural_preset_values(preset_analytic, base_query):
    triple = pm.natural_pns(preset_analytic, base_query)
    assert triple.t_pns == pytest.approx(T_PNS, abs=1e-12)
    assert triple.nd_pns == pytest.approx(ND_PNS, abs=1e-12)
    assert triple.ni_pns == pytest.approx(NI_PNS, abs=1e-12)
    assert triple.case_flag == "unconditional"
    assert triple.prop_nd + triple.prop_ni == pytest.approx(1.0, abs=1e-12)


def test_natural_same_arms(preset_analytic):
    triple = pm.natural_pns(preset_analytic, pm.Query(1, 1, 1.0))
    assert (triple.t_pns, triple.nd_pns, triple.ni_pns) == (0.0, 0.0, 0.0)
    assert triple.prop_nd is None and triple.prop_ni is None


# -- evidence: controlled direct -------------------------------------------------


def test_cd_evidence_full_interval_reduces_bitwise(preset_analytic):
    q = pm.Query(x_base=0, x_alt=1, y_threshold=1.0, m_fixed=1.0)
    e = pm.Evidence(x_star=1, m_star=1, interval_y=pm.Interval.full())
    value, terms = pm.cd_pns_with_evidence(preset_analytic, q, e)
    assert value == pm.cd_pns(preset_analytic, q)
    assert terms.ev_mass == 1.0 and terms.case_flag == "A"


def test_cd_evidence_preset_binary_point(preset_analytic):
    # factual record (x*=1, m*=1, outcome exactly 1); evidence mass sigmoid(2)
    q = pm.Query(x_base=0, x_alt=1, y_threshold=1.0, m_fixed=1.0)
    e = pm.Evidence(x_star=1, m_star=1, interval_y=pm.Interval.point(1.0))
    value, terms = pm.cd_pns_with_evidence(preset_analytic, q, e)
    assert terms.ev_mass == pytest.approx(S2, abs=1e-15)
    assert value == pytest.approx((S2 - S15) / S2, abs=1e-12)


def test_cd_evidence_negative_margin_clips():
    e = pm.Evidence(x_star=2.0, m_star=0.0, interval_y=pm.Interval(-1.0, 1.0))
    value, terms = pm.cd_pns_with_evidence(_stub(a=0.1, b=0.6, r=0.0), QM, e)
    assert value == 0.0 and terms.margin_total < 0


def test_cd_evidence_wrong_kind(preset_analytic):
    q = pm.Query(x_base=0, x_alt=1, y_threshold=1.0, m_fixed=1.0)
    with pytest.raises(InvalidEvidenceError):
        pm.cd_pns_with_evidence(
            preset_analytic, q, pm.Evidence(x_star=1, interval_y=pm.Interval.full())
        )


# -- evidence: natural family ----------------------------------------------------


def test_natural_evidence_full_interval_bitwise(preset_analytic, base_query):
    e = pm.Evidence(x_star=1, interval_y=pm.Interval.full())
    triple, terms = pm.natural_pns_with_evidence(preset_analytic, base_query, e)
    plain = pm.natural_pns(preset_analytic, base_query)
    assert triple.t_pns == plain.t_pns
    assert triple.nd_pns == plain.nd_pns
    assert triple.ni_pns == plain.ni_pns
    assert terms.ev_mass == 1.0


def test_natural_evidence_necessity_values(preset_analytic, base_query):
    # factual event: alt arm, outcome at or above threshold
    e = pm.Evidence(x_star=1, interval_y=pm.Interval(1.0, INF))
    triple, terms = pm.natural_pns_with_evidence(preset_analytic, base_query, e)
    assert terms.ev_mass == pytest.approx(1 - B_ALT, abs=1e-12)
    assert triple.t_pns == pytest.approx(T_PN, abs=1e-12)
    assert triple.nd_pns == pytest.approx(ND_PN, abs=1e-12)
    assert triple.ni_pns == pytest.approx(NI_PN, abs=1e-12)


def test_natural_evidence_negative_margin():
    e = pm.Evidence(x_star=2.0, interval_y=pm.Interval(-1.0, 1.0))
    triple, _ = pm.natural_pns_with_evidence(_stub(a=0.1, b=0.6, r=0.3), Q, e)
    assert (triple.t_pns, triple.nd_pns, triple.ni_pns) == (0.0, 0.0, 0.0)


def test_natural_evidence_case_b_branches():
    # zero evidence mass: l == u, indicator branch decided by l versus the
    # cross-world CDF (direct when l < r, indirect when r <= l)
    for r, expect_nd, expect_ni in ((0.5, 1.0, 0.0), (0.3, 0.0, 1.0)):
        model = _stub(a=0.7, b=0.2, r=r, l=0.4, u=0.4)
        e = pm.Evidence(x_star=2.0, interval_y=pm.Interval(-1.0, 1.0))
        triple, terms = pm.natural_pns_with_evidence(model, Q, e)
        assert terms.case_flag == "B" and triple.case_flag == "B"
        assert triple.t_pns == 1.0
        assert triple.nd_pns == expect_nd
        assert triple.ni_pns == expect_ni
    # evidence boundary outside the flip band
    model = _stub(a=0.7, b=0.2, r=0.5, l=0.1, u=0.1)
    e = pm.Evidence(x_star=2.0, interval_y=pm.Interval(-1.0, 1.0))
    triple, _ = pm.natural_pns_with_evidence(model, Q, e)
    assert (triple.t_pns, triple.nd_pns, triple.ni_pns) == (0.0, 0.0, 0.0)


# -- evidence: joint mediator-outcome ---------------------------------------------


def _lex_fixture():
    rng = np.random.default_rng(11)
    scm = verification.random_lex_scm(rng, treatment_levels=2, stripes=2, inner=2)
    return scm, pm.AnalyticCdf(scm)


def test_mediator_evidence_requires_assertion(_=None):
    scm, an = _lex_fixture()
    e = pm.Evidence(
        x_star=1.0,
        interval_y=pm.Interval.full(),
        interval_m=pm.Interval(-INF, INF),
    )
    with pytest.raises(AssumptionError):
        pm.natural_pns_with_mediator_evidence(an, pm.Query(0, 1, 4.0), e)


def test_mediator_evidence_full_box_reduces_bitwise():
    scm, an = _lex_fixture()
    q = pm.Query(0, 1, 4.0)
    e = pm.Evidence(
        x_star=1.0,
        interval_y=pm.Interval.full(),
        interval_m=pm.Interval(-INF, INF),
    )
    with pytest.warns(pm.MediatorMonotonicityWarning):
        triple, terms = pm.natural_pns_with_mediator_evidence(
            an, q, e, mediator_monotone=True
        )
    plain = pm.natural_pns(an, q)
    assert triple.t_pns == plain.t_pns
    assert triple.nd_pns == plain.nd_pns
    assert triple.ni_pns == plain.ni_pns
    assert terms.ev_mass == 1.0


def test_mediator_evidence_matches_oracle_truth():
    # lexicographic model: estimator at analytic CDFs equals the
    # definitional conditional from the exact noise partition
    scm, an = _lex_fixture()
    q = pm.Query(0, 1, 4.0)
    m_lo = an.mediator_support(1.0)[1]
    e = pm.Evidence(
        x_star=1.0,
        interval_y=pm.Interval(verification.lex_band_start(m_lo), INF),
        interval_m=pm.Interval(m_lo, INF),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pm.MediatorMonotonicityWarning)
        triple, _ = pm.natural_pns_with_mediator_evidence(
            an, q, e, mediator_monotone=True
        )
    truth = pm.truth_with_evidence(scm, q, e)
    assert triple.t_pns == pytest.approx(truth.values["t_pns"], abs=1e-9)
    assert triple.nd_pns == pytest.approx(truth.values["nd_pns"], abs=1e-9)
    assert triple.ni_pns == pytest.approx(truth.values["ni_pns"], abs=1e-9)


def test_mediator_evidence_case_b_on_data():
    # all rows outside the evidence box: zero mass, indicator branch
    rows = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 0], [1, 1, 1]], dtype=float)
    data = pm.Dataset(
        {"x": rows[:, 0], "m": rows[:, 1], "y": rows[:, 2]},
        pm.ColumnRoles("x", "m", "y"),
    )
    model = pm.CdfModel(data)
    e = pm.Evidence(
        x_star=1.0,
        interval_y=pm.Interval(-5.0, -4.0),
        interval_m=pm.Interval(-5.0, -4.0),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pm.MediatorMonotonicityWarning)
        triple, terms = pm.natural_pns_with_mediator_evidence(
            model, pm.Query(0, 1, 1.0), e, mediator_monotone=True
        )
    assert terms.case_flag == "B"
    assert triple.t_pns in (0.0, 1.0)
    assert triple.t_pns == triple.nd_pns + triple.ni_pns


# -- necessity and sufficiency families --------------------------------------------


def test_pn_family_values(preset_analytic, base_query):
    triple = pm.pn_family(preset_analytic, base_query)
    assert triple.t_pns == pytest.approx(T_PN, abs=1e-12)
    assert triple.nd_pns == pytest.approx(ND_PN, abs=1e-12)
    assert triple.ni_pns == pytest.approx(NI_PN, abs=1e-12)
    assert triple.t_pns == triple.nd_pns + triple.ni_pns


def test_pn_family_is_evidence_reduction(preset_analytic, base_query):
    e = pm.Evidence(x_star=1, interval_y=pm.Interval(1.0, INF))
    via_evidence, _ = pm.natural_pns_with_evidence(preset_analytic, base_query, e)
    direct = pm.pn_family(preset_analytic, base_query)
    assert direct == via_evidence


def test_ps_family_values(preset_analytic, base_query):
    triple = pm.ps_family(preset_analytic, base_query)
    assert triple.t_pns == pytest.approx(T_PS, abs=1e-12)
    assert triple.t_pns == triple.nd_pns + triple.ni_pns


def test_families_same_arms(preset_analytic):
    q = pm.Query(1, 1, 1.0)
    assert pm.pn_family(preset_analytic, q).t_pns == 0.0
    assert pm.ps_family(preset_analytic, q).t_pns == 0.0


def test_ps_case_b_when_no_base_rows_below():
    # every base-arm outcome at or above the threshold: sufficiency
    # evidence has zero mass
    rows = np.array([[0, 0, 2], [0, 1, 3], [1, 0, 2], [1, 1, 3]], dtype=float)
    data = pm.Dataset(
        {"x": rows[:, 0], "m": rows[:, 1], "y": rows[:, 2]},
        pm.ColumnRoles("x", "m", "y"),
    )
    triple = pm.ps_family(pm.CdfModel(data), pm.Query(0, 1, 1.0))
    assert triple.case_flag == "B"
    assert triple.t_pns == 0.0


# -- formula-level properties -------------------------------------------------------


probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(a=probs, b=probs, r=probs, l=probs, u=probs)
# parts that round to a sum just past 1
@example(a=1.0, b=0.0, r=0.32357319317826533, l=0.82421875, u=0.25)
@settings(max_examples=300, deadline=None)
def test_evidence_margins_and_decomposition(a, b, r, l, u):
    if l > u:
        l, u = u, l
    model = _stub(a=a, b=b, r=r, l=l, u=u)
    e = pm.Evidence(x_star=2.0, interval_y=pm.Interval(-1.0, 1.0))
    triple, terms = pm.natural_pns_with_evidence(model, Q, e)
    for value in (triple.t_pns, triple.nd_pns, triple.ni_pns):
        assert 0.0 <= value <= 1.0
    assert triple.t_pns == triple.nd_pns + triple.ni_pns
    assert terms.ev_mass >= 0.0
    assert terms.margin_direct <= terms.margin_total + 1e-15
    assert terms.margin_indirect <= terms.margin_total + 1e-15
    assert max(terms.margin_direct, 0.0) + max(terms.margin_indirect, 0.0) == (
        pytest.approx(max(terms.margin_total, 0.0), abs=1e-12)
    )
    if triple.t_pns > 0.0:
        assert triple.prop_nd + triple.prop_ni == pytest.approx(1.0, abs=1e-12)
    if terms.case_flag == "A":
        assert triple.t_pns == pytest.approx(
            max(terms.margin_total / terms.ev_mass, 0.0), abs=1e-12
        )


@given(a=probs, b=probs, l=probs, u=probs)
@settings(max_examples=200, deadline=None)
def test_crossworld_monotone_clipping(a, b, l, u):
    # enlarging the cross-world CDF never increases the indirect part and
    # never decreases the direct part
    if l > u:
        l, u = u, l
    e = pm.Evidence(x_star=2.0, interval_y=pm.Interval(-1.0, 1.0))
    last_nd, last_ni = None, None
    for r in np.linspace(0.0, 1.0, 21):
        triple, _ = pm.natural_pns_with_evidence(_stub(a, b, float(r), l, u), Q, e)
        if last_nd is not None:
            assert triple.nd_pns >= last_nd - 1e-12
            assert triple.ni_pns <= last_ni + 1e-12
        last_nd, last_ni = triple.nd_pns, triple.ni_pns


_kernel_values = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0)),
    st.integers(0, 16).map(lambda i: i / 16),
    probs,
)


@st.composite
def _kernel_rows(draw):
    """Kernel inputs ``(a, b, r, low, high)``: ties, ``r = inf`` (no
    cross-world split), ``low == high`` (case B), some rows with a NaN."""
    a, b, r, low, high = (draw(_kernel_values) for _ in range(5))
    b, r, low = (draw(st.sampled_from((v, a, high))) for v in (b, r, low))
    r = draw(st.sampled_from((r, INF)))
    low, high = sorted((low, high))
    if draw(st.booleans()):
        high = low
    row = [a, b, r, low, high]
    if draw(st.integers(0, 9)) == 0:
        row[draw(st.integers(0, 4))] = float("nan")
    return row


def _bits(value):
    return None if value is None else np.float64(value).tobytes()


@given(rows=st.lists(_kernel_rows(), min_size=1, max_size=12))
@example(rows=[[0.0, 0.0, 0.0, 0.0, 0.0], [0.0, 7 / 16, 0.0, 0.0, 2.225073858507203e-309]])
@example(rows=[[0.0, 7 / 16, 0.0, 0.0, 2.225073858507203e-309]])
@settings(max_examples=300, deadline=None)
def test_column_kernel_matches_scalar_kernel(rows):
    """Each row of the column kernel has the bits of ``_clipped`` with
    ``_make_triple`` and of the formulas it replaced, case B and undefined
    shares included; a row with a NaN input is NaN in every column.  On a
    subnormal evidence mass a negative margin overflows to ``-inf`` and is
    clipped to 0.0, silently, as the scalar kernel does."""
    *columns, case_b = identify._clipped_columns(*np.array(rows).T)
    for i, row in enumerate(rows):
        got = [column[i] for column in columns]
        if np.isnan(row).any():
            assert np.isnan(got).all(), row
            continue
        got = [None if np.isnan(v) else v for v in got]
        nd, ni, _, case = identify._clipped(*row)
        triple = identify._make_triple(nd, ni, case)
        want, terms = reference._natural_with_bounds(_stub(*row[:3]), Q, *row[3:])
        assert terms.case_flag == case == ("B" if case_b[i] else "A")
        for t in (triple, want):
            assert [*map(_bits, got)] == [
                *map(_bits, (t.t_pns, t.nd_pns, t.ni_pns, t.prop_nd, t.prop_ni))], row
        if row[2] == INF:
            e = pm.Evidence(x_star=2.0, interval_y=pm.Interval(-1.0, 1.0), m_star=0.0)
            value, _ = reference.cd_pns_with_evidence(_stub(*row), QM, e)
            assert _bits(value) == _bits(got[1]), row


# -- the one kernel against the formulas it replaced --------------------------------


_FORMULAS = (
    ("cd_pns", lambda mod, m, q, e: mod.cd_pns(m, q)),
    ("natural_pns", lambda mod, m, q, e: mod.natural_pns(m, q)),
    ("pn_family", lambda mod, m, q, e: mod.pn_family(m, q)),
    ("ps_family", lambda mod, m, q, e: mod.ps_family(m, q)),
    ("cd_pns_with_evidence", lambda mod, m, q, e: mod.cd_pns_with_evidence(m, q, e)),
    ("natural_pns_with_evidence",
     lambda mod, m, q, e: mod.natural_pns_with_evidence(m, q, e)),
    ("natural_pns_with_mediator_evidence",
     lambda mod, m, q, e: mod.natural_pns_with_mediator_evidence(m, q, e)),
    ("natural_pns_with_mediator_evidence, asserted",
     lambda mod, m, q, e: mod.natural_pns_with_mediator_evidence(
         m, q, e, mediator_monotone=True)),
)


def _with_gaps(levels):
    """The outcome levels as given (a ``-0.0`` beside ``0.0`` kept), the
    gaps between them and a point beyond each end."""
    ordered = sorted(set(levels))
    gaps = [0.5 * (a + b) for a, b in zip(ordered, ordered[1:])]
    return [*levels, *gaps, ordered[0] - 1.0, ordered[-1] + 1.0]


def _random_interval(rng, ends):
    """A valid interval over ``ends``: closed, half-open or infinite at
    either end; a point when both ends meet."""
    while True:
        lo = -INF if rng.random() < 0.25 else float(rng.choice(ends))
        hi = INF if rng.random() < 0.25 else float(rng.choice(ends))
        closed = bool(rng.random() < 0.5) and hi != INF
        try:
            return pm.Interval(lo, hi, upper_closed=closed)
        except InvalidEvidenceError:
            continue


def _random_case(rng, xs, ms, ys):
    """One query and one evidence record of a random kind over the given
    treatment, mediator and outcome values."""
    q = pm.Query(
        x_base=float(rng.choice(xs)),
        x_alt=float(rng.choice(xs)),
        y_threshold=float(rng.choice(ys)),
        m_fixed=None if rng.random() < 0.2 else float(rng.choice(ms)),
    )
    x_star = float(rng.choice(xs))
    interval_y = _random_interval(rng, ys)
    kind = rng.integers(0, 3)
    if kind == 0:
        e = pm.Evidence(x_star, interval_y)
    elif kind == 1:
        e = pm.Evidence(x_star, interval_y, m_star=float(rng.choice(ms)))
    else:
        e = pm.Evidence(x_star, interval_y, interval_m=_random_interval(rng, ms))
    return q, e


def _outcome(fn):
    try:
        return repr(fn())
    except PocError as exc:
        return type(exc).__name__, str(exc)


def _reference_providers():
    """``(source, current provider, reference provider, treatment values,
    mediator values, outcome values)``: CdfModels of random count tables
    (one model serves both sides) and analytic CDFs of random threshold
    and lexicographic models."""
    xs, ms, ys = (0.0, -0.0, 1.0, 2.0, 3.0), (*M_LEVELS, 7.0, 9.0), _with_gaps(Y_LEVELS)
    for seed in range(12):
        data = _random_dataset(seed)
        for stratum in (None, (1.0,)):
            counter = RowCounts(data, stratum)
            draws = [None] + [
                np.random.default_rng(child).integers(0, data.n, data.n)
                for child in np.random.SeedSequence(seed).spawn(2)
            ]
            for idx in draws:
                try:
                    model = pm.CdfModel(counter.table(idx), stratum)
                except PocError:  # a resample that leaves the stratum empty
                    continue
                yield "table", model, model, xs, ms, ys
    rng = np.random.default_rng(2024)
    for i in range(40):
        if i % 2:
            scm = verification.random_lex_scm(
                rng, treatment_levels=int(rng.integers(2, 4)),
                stripes=int(rng.integers(2, 4)), inner=int(rng.integers(2, 4)))
        else:
            scm = verification.random_threshold_scm(
                rng, treatment_levels=int(rng.integers(2, 4)),
                mediator_levels=int(rng.integers(2, 4)),
                outcome_levels=int(rng.integers(2, 4)))
        an = pm.AnalyticCdf(scm)
        x_levels = an.x_levels()
        m_levels = sorted({m for x in x_levels for m in an.mediator_support(x)})
        yield (
            "lex" if i % 2 else "threshold",
            an,
            reference.ReferenceAnalyticCdf(scm),
            (*x_levels, x_levels[-1] + 1.0),
            (*m_levels, *(m + 0.5 for m in m_levels)),
            _with_gaps(an.outcome_levels()),
        )


@pytest.mark.filterwarnings("ignore::pocmed.MediatorMonotonicityWarning")
def test_formulas_match_reference():
    rng = np.random.default_rng(6)
    reached = set()
    for source, model, ref_model, xs, ms, ys in _reference_providers():
        for _ in range(40):
            q, e = _random_case(rng, xs, ms, ys)
            for name, formula in _FORMULAS:
                got = _outcome(lambda: formula(pm.identify, model, q, e))
                want = _outcome(lambda: formula(reference, ref_model, q, e))
                assert got == want, (source, name, q, e)
                if isinstance(got, tuple):
                    reached.add(got[0])
                    continue
                reached.update(f"case {c}" for c in "AB" if f"case_flag='{c}'" in got)
                if "prop_nd=None" in got:
                    reached.add("undefined share")
                if source == "lex" and name == "natural_pns" and any(
                    model.mediator_pmf(m, q.x_base) == 0.0
                    for m in model.mediator_support(q.x_alt)
                ):
                    reached.add("lex cross-world over a zero-mass cell")
    assert {
        "case A",
        "case B",
        "undefined share",
        "PositivityError",
        "lex cross-world over a zero-mass cell",
    } <= reached, reached
