"""Metamorphic properties of the estimators, each bit for bit (Chen et al.,
"Metamorphic Testing", ACM CSUR 2018).

The point results of the ``estimator_target`` families (natural, natural
with outcome evidence, cd, cd with point-mediator evidence, pn and ps), or
the error they raise, do not change when the rows are permuted, when the
table is duplicated, or when the outcome is relabelled by a strictly
increasing map with the threshold and the evidence ends moved to match.
Evidence that covers the whole line gives the values of the plain
quantities, on data and on ``AnalyticCdf``.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pocmed as pm
from pocmed import verification
from pocmed.ecdf import RowCounts
from pocmed.errors import PocError

INF = math.inf
X_LEVELS = (0.0, 1.0)
M_LEVELS = (0.0, 1.0, 2.5)
Y_LEVELS = (-2.0, -0.5, 0.0, 1.0, 1.5, 3.0)
# the outcome levels, the gaps between them and both sides of them
THRESHOLDS = (*Y_LEVELS, -3.0, -1.0, 0.5, 2.0, 4.0)


def _relabel(v: float) -> float:
    """Strictly increasing, and exact on ``THRESHOLDS`` (and at +-inf)."""
    return v**3 + 2.0 * v - 7.0


def _dataset(x, m, y) -> pm.Dataset:
    cols = {"x": np.asarray(x, float), "m": np.asarray(m, float), "y": np.asarray(y, float)}
    return pm.Dataset(cols, pm.ColumnRoles("x", "m", "y"))


@st.composite
def _cases(draw):
    """A table of 1 to 40 rows and one query with its evidence ends."""
    rows = draw(st.lists(st.tuples(st.sampled_from(X_LEVELS), st.sampled_from(M_LEVELS),
                                   st.sampled_from(Y_LEVELS)), min_size=1, max_size=40))
    x_base = draw(st.sampled_from(X_LEVELS))
    lower = draw(st.sampled_from((-INF, *THRESHOLDS)))
    upper = draw(st.sampled_from([v for v in (*THRESHOLDS, INF) if v >= lower]))
    query = dict(
        x_base=x_base,
        x_alt=1.0 - x_base,
        y=draw(st.sampled_from(THRESHOLDS)),
        m=draw(st.sampled_from(M_LEVELS)),
        x_star=draw(st.sampled_from(X_LEVELS)),
        lower=lower,
        upper=upper,
        closed=upper == lower or draw(st.booleans()),
    )
    return _dataset(*zip(*rows)), query


def _targets(x_base, x_alt, y, m, x_star, lower, upper, closed, f=lambda v: v) -> dict:
    """One target per family for a query whose outcome numbers go
    through ``f``."""
    q = pm.Query(x_base, x_alt, f(y))
    q_m = pm.Query(x_base, x_alt, f(y), m_fixed=m)
    interval = pm.Interval(f(lower), f(upper), closed)
    return {
        "natural": pm.estimator_target("natural", q),
        "natural|y": pm.estimator_target("natural", q, pm.Evidence(x_star, interval)),
        "cd": pm.estimator_target("cd", q_m),
        "cd|m": pm.estimator_target("cd", q_m, pm.Evidence(x_star, interval, m_star=m)),
        "pn": pm.estimator_target("pn", q),
        "ps": pm.estimator_target("ps", q),
    }


def _results(targets: dict, data) -> dict:
    """Each target's ``repr`` of its result and its case flag, or its
    error."""
    out = {}
    for name, target in targets.items():
        try:
            result = target(data)
        except PocError as exc:
            out[name] = (f"{type(exc).__name__}: {exc}", None)
        else:
            out[name] = (repr(dict(result)), result.case_flag)
    return out


def _scaled(data: pm.Dataset, k: int) -> pm.CdfModel:
    """The model of ``data`` duplicated ``k`` times, from its count table."""
    table = RowCounts(data).table()
    return pm.CdfModel(table._replace(counts=table.counts * k))


@settings(max_examples=150, deadline=None)
@given(case=_cases(), data=st.data())
def test_row_permutation(case, data):
    table, query = case
    order = np.array(data.draw(st.permutations(range(table.n))), dtype=np.intp)
    targets = _targets(**query)
    assert _results(targets, table.take(order)) == _results(targets, table)


@settings(max_examples=100, deadline=None)
@given(case=_cases())
def test_duplicated_table(case):
    """Rows repeated ``k`` times, and counts multiplied by ``k``."""
    table, query = case
    targets = _targets(**query)
    want = _results(targets, table)
    for k in (2, 3, 7):
        assert _results(targets, table.take(np.tile(np.arange(table.n), k))) == want, k
    for k in (2, 3, 7, 1000):
        assert _results(targets, _scaled(table, k)) == want, k


@pytest.mark.parametrize("seed", [0, 1])
def test_duplicated_preset_sample_past_2_53(seed):
    """A 3k-row preset sample duplicated 1000 times: every cross-world
    denominator ``n(x_alt) * prod_m n(x_base, m)`` lies above 2**53."""
    table = pm.sample_observational(pm.logistic_bernoulli_preset(), 3000, seed)
    counts = RowCounts(table).table()
    cells = collections.Counter()
    for x, m, n in zip(counts.x.tolist(), counts.m.tolist(), counts.counts.tolist()):
        cells[x, m] += 1000 * n
    for x_base in X_LEVELS:
        x_alt = 1.0 - x_base
        den = sum(cells[x_alt, m] for m in (0.0, 1.0)) * math.prod(
            cells[x_base, m] for m in (0.0, 1.0))
        assert den > 2**53
    scaled = _scaled(table, 1000)
    for x_base in X_LEVELS:
        for y in (0.0, 0.5, 1.0):
            for m in (0.0, 1.0):
                targets = _targets(x_base, 1.0 - x_base, y, m, x_base, 0.0, 1.0, False)
                assert _results(targets, scaled) == _results(targets, table), (x_base, y, m)


@settings(max_examples=150, deadline=None)
@given(case=_cases())
def test_increasing_outcome_relabelling(case):
    table, query = case
    levels = [_relabel(v) for v in sorted(THRESHOLDS)]
    assert levels == sorted(set(levels))
    relabelled = _dataset(table.column("x"), table.column("m"),
                          [_relabel(v) for v in table.column("y").tolist()])
    assert _results(_targets(**query, f=_relabel), relabelled) == _results(
        _targets(**query), table)


FULL = (pm.Interval(-INF, INF), pm.Interval(-INF, INF, upper_closed=True))


@settings(max_examples=150, deadline=None)
@given(case=_cases())
@pytest.mark.filterwarnings("ignore::pocmed.MediatorMonotonicityWarning")
def test_full_interval_evidence_on_data(case):
    """Evidence over the whole line, or over a closed interval holding
    every outcome level, gives the plain values (the case flags differ:
    ``"A"`` against ``"unconditional"``)."""
    table, query = case
    x_base, x_alt, y, m, x_star = (query[k] for k in ("x_base", "x_alt", "y", "m", "x_star"))
    q, q_m = pm.Query(x_base, x_alt, y), pm.Query(x_base, x_alt, y, m_fixed=m)
    plain = _results({"natural": pm.estimator_target("natural", q),
                      "cd": pm.estimator_target("cd", q_m)}, table)
    for interval in (*FULL, pm.Interval(min(Y_LEVELS), max(Y_LEVELS), upper_closed=True)):
        given_ = _results({
            "natural": pm.estimator_target("natural", q, pm.Evidence(x_star, interval)),
            "cd": pm.estimator_target("cd", q_m, pm.Evidence(x_star, interval, m_star=m)),
        }, table)
        assert {k: v[0] for k, v in given_.items()} == {k: v[0] for k, v in plain.items()}
        if plain["natural"][1] is not None:
            assert (given_["natural"][1], plain["natural"][1]) == ("A", "unconditional")
    for iy, im in ((FULL[0], FULL[1]), (FULL[1], FULL[0])):
        target = pm.estimator_target("natural", q, pm.Evidence(x_star, iy, interval_m=im),
                                     mediator_monotone=True)
        assert _results({"natural": target}, table)["natural"][0] == plain["natural"][0]


def _triple(triple: pm.PnsTriple) -> str:
    return repr((triple.t_pns, triple.nd_pns, triple.ni_pns, triple.prop_nd, triple.prop_ni))


@pytest.mark.filterwarnings("ignore::pocmed.MediatorMonotonicityWarning")
@pytest.mark.parametrize("seed", range(12))
def test_full_interval_evidence_on_analytic_cdf(seed):
    rng = np.random.default_rng(seed)
    scm = (pm.logistic_bernoulli_preset() if seed == 0
           else verification.random_threshold_scm(rng, 2, 3, 3) if seed % 2
           else verification.random_lex_scm(rng, 2, stripes=2, inner=2))
    model = pm.AnalyticCdf(scm)
    m_levels = sorted({m for x in model.x_levels() for m in model.mediator_support(x)})
    for x_base, y in ((x, y) for x in X_LEVELS for y in (0.5, 1.0, 2.0, 5.0)):
        x_alt = 1.0 - x_base
        q = pm.Query(x_base, x_alt, y)
        plain = _triple(pm.natural_pns(model, q))
        for x_star in X_LEVELS:
            for interval in FULL:
                triple, terms = pm.natural_pns_with_evidence(
                    model, q, pm.Evidence(x_star, interval))
                assert (_triple(triple), terms.case_flag) == (plain, "A")
                triple, _ = pm.natural_pns_with_mediator_evidence(
                    model, q, pm.Evidence(x_star, interval, interval_m=FULL[1]),
                    mediator_monotone=True)
                assert _triple(triple) == plain
            for m in m_levels:
                if m not in model.mediator_support(x_base) or m not in model.mediator_support(x_alt):
                    continue
                q_m = pm.Query(x_base, x_alt, y, m_fixed=m)
                value, _ = pm.cd_pns_with_evidence(
                    model, q_m, pm.Evidence(x_star, FULL[0], m_star=m))
                assert repr(value) == repr(pm.cd_pns(model, q_m))
