"""Ground-truth engine: sampling, exact measure, diagnostics."""

import bisect
import functools
import itertools
import math
import re
import weakref

import numpy as np
import pytest

import pocmed as pm
from pocmed import oracle, verification
from pocmed.data import KIND_INTERVAL_MEDIATOR, KIND_OUTCOME, KIND_POINT_MEDIATOR
from pocmed.errors import ConditioningError, UnsupportedSpecError

from conftest import B_ALT, CROSSWORLD, ND_PNS, NI_PNS, S1, S15, T_PNS, T_PN, NI_PN
import _oracle_reference
from _sampling_reference import (
    drawn_values,
    float_sample_observational,
    mask_loop_values,
    searchsorted_values,
)

INF = float("inf")


def test_sampling_deterministic(preset):
    first = pm.sample_observational(preset, 5, seed=123)
    second = pm.sample_observational(preset, 5, seed=123)
    assert first.equals(second)
    assert not first.equals(pm.sample_observational(preset, 5, seed=124))


def _no_draws(monkeypatch):
    def draw(*args):
        raise AssertionError("drew uniforms")

    monkeypatch.setattr(oracle, "_uniform_matrix", draw)


def test_sampling_rejects_empty(preset):
    with pytest.raises(ValueError):
        pm.sample_observational(preset, 0, seed=1)


@pytest.mark.parametrize("n", [True, False, 2.5, 3.0, "3", None])
def test_sampling_rejects_a_size_that_is_not_an_integer(preset, monkeypatch, n):
    # True and 2.5 used to fail with a TypeError from inside numpy
    _no_draws(monkeypatch)
    with pytest.raises(ValueError, match="^sample size must be at least 1$"):
        pm.sample_observational(preset, n, seed=1)


def test_sampling_takes_a_numpy_integer_size(preset):
    got = pm.sample_observational(preset, np.int64(3), seed=1)
    assert got.equals(pm.sample_observational(preset, 3, seed=1)) and got.n == 3


@pytest.mark.parametrize("weights", [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 3.0),
                                     (0.0, 0.0), (1e308, 1e308)])
def test_covariate_weights_must_be_finite_and_non_negative(preset, base_query, monkeypatch,
                                                          weights):
    # these used to sample every row in one stratum, or with probability -0.5
    scm = pm.ScmSpec(preset.treatment, preset.mediator, preset.outcome,
                     covariates=tuple(((c,), w) for c, w in zip((0.0, 1.0), weights)))
    _no_draws(monkeypatch)
    for call in (lambda: pm.sample_observational(scm, 10, seed=0),
                 lambda: pm.truth_pns(scm, base_query)):
        with pytest.raises(UnsupportedSpecError, match="covariate weights must be finite"):
            call()


def test_covariate_weight_zero_leaves_a_stratum_out():
    scm = pm.ScmSpec(pm.LogisticNode(0.0, (0.0,)), pm.LogisticNode(1.0, (0.5, 0.0)),
                     pm.LogisticNode(1.0, (0.5, 0.5, 0.0)),
                     covariates=(((0.0,), 0.0), ((1.0,), 2.0)))
    assert scm.covariate_support() == (((0.0,), 0.0), ((1.0,), 1.0))
    assert pm.sample_observational(scm, 50, seed=0).column("c1").tolist() == [1.0] * 50


@pytest.mark.parametrize("cells, named", [
    ({(0.0,): ((0.5,), (0.0, math.inf))}, "(0.0,)"),
    ({(0.0,): ((), (math.nan,))}, "(0.0,)"),
    ({(math.nan,): ((), (1.0,))}, "(nan,)"),
    ({(0.0, -math.inf): ((), (1.0,))}, "(0.0, -inf)"),
])
def test_table_node_rejects_non_finite_cells(cells, named):
    with pytest.raises(UnsupportedSpecError,
                       match=rf"^cell {re.escape(named)}: parents and values must be finite"):
        pm.TableNode(cells)


def _random_table_case(rng):
    """A table node over 0 to 3 parent columns, parent rows drawn from the
    product of its levels (which include -0.0 next to 0.0).  Sometimes a row
    holds a value off the levels (4.0) or a NaN, or the node lacks one key
    of the product, so every parent value is a known level but that
    combination has no table cell."""
    k = int(rng.integers(0, 4))
    level_sets = [rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0, -3.0], size=rng.integers(1, 4),
                             replace=False) for _ in range(k)]
    keys = list(itertools.product(*level_sets))
    cells = {}
    for key in keys:
        n_cuts = int(rng.integers(0, 4))
        cuts = np.sort(rng.choice(np.arange(1, 20), size=n_cuts, replace=False)) / 20.0
        cells[key] = (cuts, rng.choice([-0.0, 0.0, 1.0, 2.5, 7.0], size=n_cuts + 1))
    if k and rng.random() < 0.3:
        del cells[keys[rng.integers(0, len(keys))]]
    node = pm.TableNode(cells)
    n = int(rng.integers(0, 300))
    rows = np.asarray(keys, dtype=np.float64)[rng.integers(0, len(keys), n)]
    parent_cols = rows.reshape(n, k)
    if k and n and rng.random() < 0.3:
        parent_cols[rng.integers(0, n), 0] = 4.0
    if k and n and rng.random() < 0.2:
        parent_cols[rng.integers(0, n), rng.integers(0, k)] = np.nan
    # cut points themselves are drawn as uniforms to exercise ties
    u = np.where(rng.random(n) < 0.2, rng.integers(1, 20, n) / 20.0, rng.random(n))
    return node, parent_cols, u


def _values_or_error(fn, *args):
    try:
        return fn(*args)
    except UnsupportedSpecError as exc:
        # equal keys; when a column holds both -0.0 and 0.0, either sort may
        # pick either spelling to name the zero in the message
        return str(exc).replace("-0.0", "0.0")


def _coded_values(node, parent_cols, u, rng):
    """``node.draw`` with each parent column given its bit-pattern coding,
    some with levels no row carries, checked against the values it codes."""
    codings = []
    for col in parent_cols.T:
        extra = rng.choice([-0.0, 0.5, 9.0, np.nan], size=rng.integers(0, 3))
        bits, codes = np.unique(np.concatenate([col, extra]).view(np.int64),
                                return_inverse=True)
        codings.append((bits, codes[: col.size].astype(np.min_scalar_type(bits.size))))
    values, (bits, codes) = node.draw(list(parent_cols.T), codings, u)
    assert np.array_equal(bits.view(np.float64)[codes].view(np.int64), values.view(np.int64))
    return values


def test_table_node_values_match_mask_loop():
    shapes, errors = set(), set()
    for seed in range(300):
        rng = np.random.default_rng(seed)
        node, parent_cols, u = _random_table_case(rng)
        want = _values_or_error(mask_loop_values, node, parent_cols, u)
        # the float path, the coded path, and the float sampler before codes
        for got in (_values_or_error(drawn_values, node, parent_cols, u),
                    _values_or_error(_coded_values, node, parent_cols, u, rng),
                    _values_or_error(searchsorted_values, node, parent_cols, u)):
            if isinstance(want, str):
                # all name the same parent combination
                assert got == want, seed
            else:
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), seed
        if isinstance(want, str):
            errors.add("nan" if "nan" in want else "off-level" if "4.0" in want else "no key")
        else:
            shapes.add(parent_cols.shape[1])
    # every kind of missing cell, and every parent count from none to three,
    # was reached
    assert errors == {"nan", "off-level", "no key"} and shapes == {0, 1, 2, 3}


def test_table_node_builds_its_lookup_on_first_sampling(monkeypatch):
    # the exact oracle builds many table nodes and samples none of them, so
    # neither it nor the constructor may build a node's sampling lookup
    nodes, init = [], oracle.TableNode.__init__
    monkeypatch.setattr(oracle.TableNode, "__init__",
                        lambda self, cells: init(self, cells) or nodes.append(self))
    node = pm.TableNode({(0.0,): ((0.5,), (0.0, 1.0)), (1.0,): ((), (2.0,))})
    assert verification.equivalence_suite(n_scms=4, seed=0)["accepted"] == 4
    assert verification.decomposition_suite(n_scms=5, seed=0)["n_triples"] > 0
    assert len(nodes) > 20 and all(n._lookup is None for n in nodes)
    got = drawn_values(node, np.array([[1.0], [-0.0], [0.0]]), np.array([0.7, 0.7, 0.2]))
    assert got.tolist() == [2.0, 1.0, 0.0] and node._lookup is not None


_SAMPLE_LEVELS = (-0.0, 0.0, 1.0, 2.5, -3.0)


def _random_sampling_node(rng, parent_levels):
    """A table or logistic node over parents whose values lie in
    ``parent_levels`` (one tuple per parent), and the values it can take.
    A table node may also key a parent value no row carries (7.0), spell a
    key's zero as ``-0.0`` where the parent draws ``0.0``, or lack a key."""
    kind = int(rng.integers(4))
    if kind == 1:
        return pm.LogisticNode(rng.normal(), rng.normal(size=len(parent_levels))), (0.0, 1.0)
    level_sets = [list(dict.fromkeys(levels)) for levels in parent_levels]
    for lv in level_sets:
        if rng.random() < 0.3:
            lv.append(7.0)
        if 0.0 in lv and rng.random() < 0.5:
            lv[lv.index(0.0)] = -0.0 if rng.random() < 0.5 else 0.0
    cells, taken = {}, set()
    for key in itertools.product(*level_sets):
        n_cuts = int(rng.integers(0, 4))
        cuts = np.sort(rng.choice(np.arange(1, 20), size=n_cuts, replace=False)) / 20.0
        values = tuple(rng.choice(_SAMPLE_LEVELS, size=n_cuts + 1))
        cells[key] = (cuts, values)
        taken.update(values)
    if parent_levels and rng.random() < 0.15:
        del cells[list(cells)[rng.integers(len(cells))]]
    return pm.TableNode(cells), tuple(taken)


def _random_sampling_scm(rng):
    """A model of random table and logistic nodes over 0 to 2
    covariates, whose support may hold ``-0.0`` beside ``0.0`` and a point
    of weight zero."""
    d = int(rng.integers(0, 3))
    covariates = None
    if d:
        points = rng.choice(_SAMPLE_LEVELS, size=(int(rng.integers(1, 4)), d))
        weights = rng.random(len(points)) * (rng.random(len(points)) < 0.8)
        weights[rng.integers(len(points))] += 0.1
        covariates = tuple((tuple(p), float(w)) for p, w in zip(points, weights))
    c_levels = [tuple(p[j] for p, _ in covariates) for j in range(d)] if d else []
    treatment, x_levels = _random_sampling_node(rng, c_levels)
    mediator, m_levels = _random_sampling_node(rng, [x_levels, *c_levels])
    outcome, _ = _random_sampling_node(rng, [x_levels, m_levels, *c_levels])
    return pm.ScmSpec(treatment, mediator, outcome, covariates)


def _sample_or_error(fn, scm, n, seed):
    try:
        return fn(scm, n, seed)
    except UnsupportedSpecError as exc:
        return str(exc)


def _assert_same_sample(scm, n, seed):
    got = _sample_or_error(pm.sample_observational, scm, n, seed)
    want = _sample_or_error(float_sample_observational, scm, n, seed)
    if isinstance(want, str):
        assert got == want, seed
        return "error"
    assert got.column_names == want.column_names and got.roles == want.roles
    # every node codes its column
    assert list(got._codings) == list(got.roles.all_columns), seed
    for name in got.column_names:
        col = got.column(name)
        assert np.array_equal(col.view(np.int64), want.column(name).view(np.int64)), seed
        bits, codes = got._codings[name]
        assert codes.dtype == np.min_scalar_type(bits.size)
        assert np.array_equal(bits.view(np.float64)[codes].view(np.int64), col.view(np.int64))
    rebuilt = pm.Dataset({c: got.column(c) for c in got.column_names}, got.roles)
    assert got.to_csv() == rebuilt.to_csv(), seed
    return "coded"


def test_sampling_matches_float_reference():
    reached = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        scm = _random_sampling_scm(rng)
        reached.add(_assert_same_sample(scm, 1 if seed % 4 == 0 else int(rng.integers(2, 400)), seed))
        if scm.covariates is not None and any(w == 0 for _, w in scm.covariates):
            # a support point of weight zero leaves levels that no row carries
            reached.add("zero weight")
    assert reached >= {"error", "coded", "zero weight"}
    # past one chunk of uniforms, with table and logistic nodes
    big = oracle._MC_CHUNK + 7
    scm = pm.ScmSpec(
        treatment=pm.TableNode({(c,): ((0.3,), (-0.0, 0.0 + c)) for c in (0.0, 1.0)}),
        mediator=pm.LogisticNode(0.5, (1.0, -1.0)),
        outcome=pm.TableNode({(x, m, c): ((0.2, 0.6), (x, m, c + 2.5))
                              for x in (0.0, 1.0) for m in (0.0, 1.0) for c in (0.0, 1.0)}),
        covariates=(((-0.0,), 0.4), ((1.0,), 0.6)),
    )
    assert _assert_same_sample(scm, big, 3) == "coded"


def test_sampled_table_is_written_from_its_codes(monkeypatch):
    # simulate codes no column by sorting it: every node gives its codes
    scm = pm.ScmSpec(
        treatment=pm.TableNode({(c,): ((0.5,), (0.0, 1.0 + c)) for c in (0.0, 1.0)}),
        mediator=pm.LogisticNode(0.5, (1.0, -1.0)),
        outcome=pm.TableNode({(x, m, c): ((0.5,), (-0.0, x + m)) for x in (0.0, 1.0, 2.0)
                              for m in (0.0, 1.0) for c in (0.0, 1.0)}),
        covariates=(((0.0,), 1.0), ((1.0,), 1.0)),
    )
    data = pm.sample_observational(scm, 500, seed=0)
    want = pm.Dataset({c: data.column(c) for c in data.column_names}, data.roles).to_csv()

    def coding(column):
        raise AssertionError("coded a sampled column by sorting it")

    monkeypatch.setattr(pm.data, "_coding", coding)
    assert data.to_csv() == want


def test_sampling_moments(preset):
    data = pm.sample_observational(preset, 1_000_000, seed=9)
    assert np.mean(data.x) == pytest.approx(0.5, abs=0.002)
    m_given_x0 = data.m[data.x == 0.0]
    assert np.mean(m_given_x0) == pytest.approx(S1, abs=0.002)


def test_exact_truths(preset, base_query):
    rep = pm.truth_pns(preset, base_query)
    assert rep.values["t_pns"] == pytest.approx(T_PNS, abs=1e-12)
    assert rep.values["nd_pns"] == pytest.approx(ND_PNS, abs=1e-12)
    assert rep.values["ni_pns"] == pytest.approx(NI_PNS, abs=1e-12)
    # decomposition holds on the exact path
    assert rep.values["t_pns"] == pytest.approx(
        rep.values["nd_pns"] + rep.values["ni_pns"], abs=1e-15
    )


def test_exact_truths_same_arms(preset):
    rep = pm.truth_pns(preset, pm.Query(1, 1, 1.0, m_fixed=1.0))
    assert all(v == 0.0 for v in rep.values.values())


def test_exact_seed_invariant(preset, base_query, monkeypatch):
    """The exact truths draw no uniforms, so no random state moves them."""
    np.random.seed(1)
    a = pm.truth_pns(preset, base_query)
    np.random.seed(999)
    _no_draws(monkeypatch)
    b = pm.truth_pns(preset, base_query)
    assert a.values == b.values


def _mc_pns(scm, q, n, seed, e=None):
    """Monte Carlo flip probabilities of ``q`` and their standard errors,
    from ``n`` draws of the noise that ``sample_observational`` draws,
    shared by every intervention; given outcome-interval evidence ``e``,
    over the draws that meet it."""
    c_matrix, _, _, u_m, u_y = oracle._draw_exogenous(scm, n, seed)

    def draw(node, u, *parents):
        cols = [np.full(n, float(p)) if np.isscalar(p) else p for p in parents]
        cols += list(c_matrix.T)
        return node.draw(cols, [None] * len(cols), u)[0]

    def arm(x, a):
        return draw(scm.outcome, u_y, x, draw(scm.mediator, u_m, a))

    y = q.y_threshold
    y_base, y_alt, y_cross = arm(q.x_base, q.x_base), arm(q.x_alt, q.x_alt), arm(q.x_base, q.x_alt)
    flip = (y_base < y) & (y <= y_alt)
    events = {"t_pns": flip, "nd_pns": flip & (y_cross < y), "ni_pns": flip & (y <= y_cross)}
    keep = np.ones(n, dtype=bool) if e is None else e.interval_y.contains(arm(e.x_star, e.x_star))
    k = int(keep.sum())
    values = {name: float(event[keep].mean()) for name, event in events.items()}
    se = {name: math.sqrt(p * (1.0 - p) / k) for name, p in values.items()}
    return values, se


def test_mc_close_to_exact(preset, base_query):
    """Sampling the model's noise agrees with the exact partition in law."""
    values, se = _mc_pns(preset, base_query, 1_000_000, 4)
    for key, exact in {"t_pns": T_PNS, "nd_pns": ND_PNS, "ni_pns": NI_PNS}.items():
        assert abs(values[key] - exact) <= 4 * se[key], key


def test_mc_statistical_convergence(preset, base_query):
    # over 100 seeds, at least 99 land within 4 standard errors
    hits = 0
    for seed in range(100):
        values, se = _mc_pns(preset, base_query, 100_000, seed)
        if abs(values["t_pns"] - T_PNS) <= 4 * max(se["t_pns"], 1e-12):
            hits += 1
    assert hits >= 99


def test_truth_with_full_interval_matches_unconditional(preset, base_query):
    e = pm.Evidence(x_star=1, interval_y=pm.Interval.full())
    with_e = pm.truth_with_evidence(preset, base_query, e)
    plain = pm.truth_pns(preset, base_query)
    for key in ("t_pns", "nd_pns", "ni_pns"):
        assert with_e.values[key] == pytest.approx(plain.values[key], abs=1e-15)


def test_truth_necessity_values(preset, base_query):
    e = pm.Evidence(x_star=1, interval_y=pm.Interval(1.0, INF))
    rep = pm.truth_with_evidence(preset, base_query, e)
    assert rep.values["t_pns"] == pytest.approx(T_PN, abs=1e-12)
    assert rep.values["ni_pns"] == pytest.approx(NI_PN, abs=1e-12)


def test_truth_zero_mass_evidence(preset, base_query):
    e = pm.Evidence(x_star=1, interval_y=pm.Interval.point(0.5))
    with pytest.raises(ConditioningError):
        pm.truth_with_evidence(preset, base_query, e)
    limit = pm.truth_with_evidence(
        preset, base_query, e, degenerate="threshold-limit"
    )
    assert set(limit.values.values()) <= {0.0, 1.0}


def test_truth_with_evidence_rejects_unknown_degenerate(preset, base_query):
    # with evidence of positive mass and with zero-mass evidence alike
    mass = pm.Evidence(x_star=1, interval_y=pm.Interval(1.0, INF))
    zero = pm.Evidence(x_star=1, interval_y=pm.Interval.point(0.5))
    for e, degenerate in ((mass, "typo"), (zero, "threshhold-limit")):
        with pytest.raises(UnsupportedSpecError, match="'error' or 'threshold-limit'"):
            pm.truth_with_evidence(preset, base_query, e, degenerate=degenerate)


def test_truth_mc_with_evidence(preset, base_query):
    """The exact conditional truth is the Monte Carlo flip rate among the
    draws that meet the evidence."""
    e = pm.Evidence(x_star=1, interval_y=pm.Interval(1.0, INF))
    exact = pm.truth_with_evidence(preset, base_query, e)
    assert exact.values["t_pns"] == pytest.approx(T_PN, abs=1e-12)
    values, se = _mc_pns(preset, base_query, 400_000, 3, e)
    assert abs(values["t_pns"] - T_PN) <= 4 * se["t_pns"]


def test_effects_decomposition(preset):
    # total effect = direct(x', x) - indirect(x, x') on the exact path
    q = pm.Query(0, 1, 1.0, m_fixed=1.0)
    fwd = pm.truth_effects(preset, q)
    rev = pm.truth_effects(preset, pm.Query(1, 0, 1.0))
    assert fwd.values["te"] == pytest.approx(
        fwd.values["nde"] - rev.values["nie"], abs=1e-12
    )
    assert "cde" in fwd.values


def test_analytic_cdf_queries(preset):
    an = pm.AnalyticCdf(preset)
    assert an.cdf_y_given_x(1.0, 1.0) == pytest.approx(B_ALT, abs=1e-12)
    assert an.cdf_y_given_xm(1.0, 0.0, 1.0) == pytest.approx(1 - S15, abs=1e-15)
    assert an.mediator_pmf(1.0, 1.0) == pytest.approx(S15, abs=1e-15)
    assert an.joint_cdf_ym_given_x(1.0, 1.0, 1.0) == pytest.approx(
        (1 - S15) * (1 - S15), abs=1e-12
    )
    assert an.crossworld_cdf(1.0, 0.0, 1.0) == pytest.approx(CROSSWORLD, abs=1e-12)


def test_analytic_degenerate_mediator():
    scm = pm.ScmSpec(
        treatment=pm.LogisticNode(0.0),
        mediator=pm.TableNode({(x,): ((), (3.0,)) for x in (0.0, 1.0)}),
        outcome=pm.TableNode(
            {(x, 3.0): pm.bernoulli_cell(0.4 + 0.2 * x) for x in (0.0, 1.0)}
        ),
    )
    an = pm.AnalyticCdf(scm)
    assert an.crossworld_cdf(1.0, 0, 1) == an.cdf_y_given_xm(1.0, 0, 3.0)


def test_covariate_mixture(preset):
    # marginal truths are covariate-weighted mixtures of stratified truths
    cov = pm.ScmSpec(
        treatment=pm.LogisticNode(0.0, (0.2,)),
        mediator=pm.LogisticNode(1.0, (0.5, -0.3)),
        outcome=pm.LogisticNode(1.0, (0.5, 0.5, 0.4)),
        covariates=(((0.0,), 0.4), ((1.0,), 0.6)),
    )
    q = pm.Query(0, 1, 1.0)
    marginal = pm.truth_pns(cov, q)
    parts = [
        pm.truth_pns(cov, pm.Query(0, 1, 1.0, c_stratum=(c,))).values["t_pns"]
        for c in (0.0, 1.0)
    ]
    assert marginal.values["t_pns"] == pytest.approx(
        0.4 * parts[0] + 0.6 * parts[1], abs=1e-12
    )
    with pytest.raises(UnsupportedSpecError):
        pm.AnalyticCdf(cov)  # covariate models need an explicit stratum
    an = pm.AnalyticCdf(cov, (1.0,))
    triple = pm.natural_pns(an, q)
    stratum_truth = pm.truth_pns(cov, pm.Query(0, 1, 1.0, c_stratum=(1.0,)))
    assert triple.t_pns == pytest.approx(stratum_truth.values["t_pns"], abs=1e-9)


def test_analytic_cdf_takes_a_stratum_array():
    """A stratum given as a numpy array, as ``CdfModel``, ``stratify`` and
    ``Query`` take it, reads what the tuple reads; an array of more than
    one value used to raise numpy's "truth value ... is ambiguous"."""
    scm = pm.ScmSpec(
        treatment=pm.LogisticNode(0.0, (0.2, 0.1)),
        mediator=pm.LogisticNode(1.0, (0.5, -0.3, 0.2)),
        outcome=pm.LogisticNode(1.0, (0.5, 0.5, 0.4, -0.1)),
        covariates=(((0.0, 1.0), 0.4), ((1.0, 0.0), 0.6)),
    )
    q = pm.Query(0, 1, 1.0, m_fixed=1.0)
    for c in ((0.0, 1.0), (1.0, 0.0)):
        want = pm.AnalyticCdf(scm, c)
        got = pm.AnalyticCdf(scm, np.array(c))
        assert got.c == want.c == c
        assert repr(pm.natural_pns(got, q)) == repr(pm.natural_pns(want, q))
        assert repr(pm.cd_pns(got, q)) == repr(pm.cd_pns(want, q))


def test_truths_take_no_sampling_keywords(preset, base_query):
    """Every truth is exact: ``method``, ``n`` and ``seed`` are no keywords."""
    e = pm.Evidence(x_star=1, interval_y=pm.Interval(1.0, INF))
    for kw in ({"method": "exact"}, {"n": 10}, {"seed": 1}):
        for truth, args in ((pm.truth_pns, ()), (pm.truth_effects, ()),
                            (pm.truth_with_evidence, (e,))):
            with pytest.raises(TypeError, match="unexpected keyword argument"):
                truth(preset, base_query, *args, **kw)
    assert list(vars(pm.truth_pns(preset, base_query))) == ["values"]


def test_monotonicity_preset_clean(preset):
    rep = pm.check_monotonicity(preset)
    assert rep.ok and rep.outcome_ok and rep.compound_ok


def test_monotonicity_flags_crossing():
    # mediator raises the outcome threshold while treatment lowers it:
    # compound counterfactuals cross with positive measure both ways
    scm = pm.ScmSpec(
        treatment=pm.TableNode({(): ((0.5,), (0.0, 1.0))}),
        mediator=pm.TableNode(
            {(x,): pm.bernoulli_cell(0.5 + 0.4 * x) for x in (0.0, 1.0)}
        ),
        outcome=pm.TableNode(
            {
                (x, m): pm.bernoulli_cell(0.5 + 0.4 * x - 0.6 * m)
                for x in (0.0, 1.0)
                for m in (0.0, 1.0)
            }
        ),
    )
    rep = pm.check_monotonicity(scm)
    assert not rep.ok
    assert rep.compound_violations


def _crossing_scm():
    """The model of ``test_monotonicity_flags_crossing``."""
    return pm.ScmSpec(
        treatment=pm.TableNode({(): ((0.5,), (0.0, 1.0))}),
        mediator=pm.TableNode(
            {(x,): pm.bernoulli_cell(0.5 + 0.4 * x) for x in (0.0, 1.0)}
        ),
        outcome=pm.TableNode(
            {
                (x, m): pm.bernoulli_cell(0.5 + 0.4 * x - 0.6 * m)
                for x in (0.0, 1.0)
                for m in (0.0, 1.0)
            }
        ),
    )


def _random_logistic_scm(rng):
    """Logistic nodes, sometimes over one binary covariate; intercepts far
    from zero give steps without cuts."""
    k = int(rng.integers(0, 2))

    def node(n_parents):
        intercept = float(rng.choice([rng.normal(0, 1.5), rng.choice([-60.0, 60.0])]))
        return pm.LogisticNode(intercept, tuple(rng.normal(0, 1.5, n_parents)))

    covariates = (((-0.0,), 0.3), ((1.0,), 0.7)) if k else None
    return pm.ScmSpec(node(k), node(1 + k), node(2 + k), covariates)


def _random_covariate_table_scm(rng):
    """Table nodes over a two-level covariate, cuts on a coarse grid (so
    region ends coincide across cells), some moved by a few 1e-12 (so
    crossings come near ``_TOL``), and unordered, repeated values."""

    def cell(levels):
        n_cuts = int(rng.integers(0, 4))
        cuts = np.sort(rng.choice(np.arange(1, 10), size=n_cuts, replace=False)) / 10.0
        cuts += rng.choice([0.0, 0.0, -2e-12, 1e-12, 3e-12], size=n_cuts)
        return tuple(cuts), tuple(rng.choice(levels, size=n_cuts + 1))

    cs = (0.0, 2.0)
    x_levels, m_levels, y_levels = (0.0, 1.0), (0.0, 1.0, 2.0), (-1.0, 0.0, 1.5, 3.0)
    treatment = pm.TableNode({(c,): ((0.5,), x_levels) for c in cs})
    mediator = pm.TableNode({(x, c): cell(m_levels) for x in x_levels for c in cs})
    outcome = pm.TableNode(
        {(x, m, c): cell(y_levels) for x in x_levels for m in m_levels for c in cs}
    )
    return pm.ScmSpec(treatment, mediator, outcome, (((0.0,), 0.25), ((2.0,), 0.75)))


def _random_constant_cell_scm(rng):
    """Table nodes in which some cells are constant: some sub-level regions
    are empty or whole on every stripe, and a compound region built from a
    constant outcome cell and a cut one is whole on some stripes only."""

    def cell(levels):
        n_cuts = int(rng.choice([0, 0, 1, 2]))
        cuts = np.sort(rng.choice(np.arange(1, 10), size=n_cuts, replace=False)) / 10.0
        return tuple(cuts), tuple(rng.choice(levels, size=n_cuts + 1))

    x_levels, m_levels, y_levels = (0.0, 1.0), (0.0, 1.0, 2.0), (0.0, 1.0, 2.0)
    return pm.ScmSpec(
        treatment=pm.TableNode({(): ((0.5,), x_levels)}),
        mediator=pm.TableNode({(x,): cell(m_levels) for x in x_levels}),
        outcome=pm.TableNode({(x, m): cell(y_levels) for x in x_levels for m in m_levels}),
    )


#: Model kinds of :func:`_random_oracle_scm`; the last is the constant-cell one.
_ORACLE_KINDS = 6


def _random_oracle_scm(seed):
    rng = np.random.default_rng(seed)
    kind = seed % _ORACLE_KINDS
    if kind in (0, 1):
        return verification.random_threshold_scm(
            rng,
            treatment_levels=int(rng.integers(2, 4)),
            mediator_levels=int(rng.integers(2, 4)),
            outcome_levels=int(rng.integers(2, 4)),
            coherent=kind == 0,
        )
    if kind == 2:
        return verification.random_lex_scm(
            rng,
            treatment_levels=2,
            stripes=int(rng.integers(2, 4)),
            inner=int(rng.integers(2, 4)),
        )
    if kind == 3:
        return _random_logistic_scm(rng)
    if kind == 4:
        return _random_covariate_table_scm(rng)
    return _random_constant_cell_scm(rng)


def test_monotonicity_matches_pairwise_reference():
    reached = dict.fromkeys(("outcome", "compound", "mediator"), 0)
    models = [_crossing_scm()] + [_random_oracle_scm(seed) for seed in range(600)]
    for seed, scm in enumerate(models):
        got = pm.check_monotonicity(scm)
        want = _oracle_reference.check_monotonicity(scm)
        assert got == want and repr(got) == repr(want), seed
        # the suites' first-crossing gates read the same regions
        assert verification._gate(scm) == got.ok, seed
        assert verification._gate(scm, lex=True) == (got.ok and got.mediator_ok), seed
        for part in reached:
            reached[part] += len(getattr(got, f"{part}_violations"))
    # every kind of crossing was reported, so the interval path was reached
    assert all(reached.values()), reached


def _steps_ascend(scm, c):
    """Whether every outcome cell and mediator arm of stratum ``c`` lists
    its values in nondecreasing order."""
    x_levels = scm.treatment_levels(c)
    steps = [scm.mediator.step((x, *c)) for x in x_levels]
    steps += [scm.outcome.step((x, m, *c)) for x in x_levels for m in scm.mediator_levels(c)]
    return all(list(values) == sorted(values) for _, values in steps)


def _prefix_end(ivs):
    """The end ``e`` of a stripe's region ``((0.0, e),)``, ``0.0`` for ``()``."""
    if not ivs:
        return 0.0
    ((lo, end),) = ivs
    assert lo == 0.0, ivs
    return end


def test_prefix_closed_form_matches_interval_path(monkeypatch):
    """A stratum whose steps all ascend takes the prefix closed form, and
    ``check_monotonicity`` and both gates read what they read with every
    stratum forced onto the interval path.  The closed form is handed, per
    such stratum and in stratum order, the ends of the compound regions
    that the interval path builds, each a prefix of its stripe."""
    models = [(None, _crossing_scm())]
    models += [(seed % _ORACLE_KINDS, _random_oracle_scm(seed)) for seed in range(600)]
    lex_shapes = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        levels = rng.integers(2, 4, size=3).tolist()
        models.append(("threshold", verification.random_threshold_scm(
            rng, *levels, coherent=bool(seed % 2))))
        stripes, inner = rng.integers(2, 4, size=2).tolist()
        # every 8th seed draws a lex model too: the forced interval path
        # is slow on them, and 25 still cover every shape
        if seed % 8 == 0:
            lex_shapes.add((stripes, inner))
            models.append(("lex", verification.random_lex_scm(rng, 2, stripes, inner)))
    assert lex_shapes == set(itertools.product((2, 3), repeat=2))

    def reports(scm, name, log):
        """The report and both gates, with what ``check_monotonicity``
        hands the function ``name`` appended to ``log``."""

        def logged(regions, weights, _real=getattr(oracle, name)):
            log.append((regions, list(weights)))
            return _real(regions, weights)

        with monkeypatch.context() as mp:
            mp.setattr(oracle, name, logged)
            got = repr(pm.check_monotonicity(scm))
        return got, verification._gate(scm), verification._gate(scm, lex=True)

    closed_strata = dict.fromkeys(("threshold", "lex", "logistic", "descending logistic"), 0)
    for seed, (kind, scm) in enumerate(models):
        closed, handed = [], []
        got = reports(scm, "_prefix_crossings", closed)
        with monkeypatch.context() as mp:
            mp.setattr(oracle, "_ascends", lambda values: False)
            want = reports(scm, "_crossings", handed)
        assert got == want, seed
        # per stratum the interval path hands over the outcome, compound
        # and mediator regions
        ascending = [_steps_ascend(scm, c) for c, _ in scm.covariate_support()]
        expected = [
            ([[_prefix_end(ivs) for ivs in region] for region in regions], weights)
            for (regions, weights), up in zip(handed[1::3], ascending) if up
        ]
        assert [(ends.tolist(), w) for ends, w in closed] == expected, seed
        if kind in (0, 1, "threshold"):
            closed_strata["threshold"] += len(ascending)
            assert all(ascending), seed
        elif kind in (2, "lex"):
            closed_strata["lex"] += len(ascending)
            assert all(ascending), seed
        elif kind == 3:
            closed_strata["logistic"] += sum(ascending)
            closed_strata["descending logistic"] += ascending.count(False)
    # every threshold and lex stratum took the closed form; logistic strata
    # took it only where no cell has a cut, and most did not
    assert closed_strata == {"threshold": 400, "lex": 125, "logistic": 7,
                             "descending logistic": 140}, closed_strata


def _value_levels(node) -> list[float]:
    """Every value a logistic or table node can take, sorted."""
    if isinstance(node, pm.LogisticNode):
        return [0.0, 1.0]
    return sorted({v for _, values in node._table.values() for v in values})


def _signed_zero_scm():
    """Mediator equal to the treatment, outcome ``0.0`` when the mediator
    equals the treatment and ``-0.0`` otherwise: the natural effects of two
    arms are differences of zeros of both signs."""
    return pm.ScmSpec(
        treatment=pm.TableNode({(): ((0.5,), (0.0, 1.0))}),
        mediator=pm.TableNode({(x,): ((), (x,)) for x in (0.0, 1.0)}),
        outcome=pm.TableNode(
            {(x, m): ((), (0.0 if x == m else -0.0,)) for x in (0.0, 1.0) for m in (0.0, 1.0)}
        ),
    )


def _non_dyadic_scm(rng):
    """Table nodes whose outcome levels are not sums of powers of two, so
    that sums of outcomes round."""

    def cell(levels):
        cuts = np.sort(rng.choice(np.arange(1, 10), size=int(rng.integers(0, 4)), replace=False))
        return tuple(cuts / 10.0), tuple(rng.choice(levels, size=cuts.size + 1))

    return pm.ScmSpec(
        treatment=pm.TableNode({(): ((0.5,), (0.0, 1.0))}),
        mediator=pm.TableNode({(x,): cell((0.0, 1.0)) for x in (0.0, 1.0)}),
        outcome=pm.TableNode(
            {(x, m): cell((0.1, 0.7, 2.3)) for x in (0.0, 1.0) for m in (0.0, 1.0)}
        ),
    )


def _truth_cases(scm, rng):
    """Queries and evidence over the model's levels and the gaps between
    them, some in a covariate stratum, some with a mediator value or an
    evidence mediator that has no table cell or no mass."""
    support = scm.covariate_support()
    c = support[rng.integers(len(support))][0]
    xs = list(scm.treatment_levels(c))
    ms = list(scm.mediator_levels(c))
    ys = _value_levels(scm.outcome)
    grid = ys + [v + 0.5 for v in ys] + [ys[0] - 1.0]

    def pick(levels):
        return float(levels[rng.integers(len(levels))])

    def interval(levels, closed):
        lo, hi = sorted((pick(levels + [-INF]), pick(levels + [INF])))
        if lo == hi:
            return pm.Interval.point(lo)
        return pm.Interval(lo, hi, upper_closed=closed)

    for _ in range(4):
        stratum = tuple(c) if scm.covariates is not None and rng.random() < 0.7 else None
        m_fixed = pick(ms + [9.0]) if rng.random() < 0.6 else None
        q = pm.Query(pick(xs), pick(xs), pick(grid), m_fixed=m_fixed, c_stratum=stratum)
        closed = bool(rng.random() < 0.5)
        iy = pm.Interval.point(pick(grid)) if rng.random() < 0.3 else interval(grid, closed)
        kind = rng.integers(3)
        if kind == 0:
            e = pm.Evidence(pick(xs), iy)
        elif kind == 1:
            e = pm.Evidence(pick(xs), iy, m_star=pick(ms + [7.0]))
        else:
            e = pm.Evidence(pick(xs), iy, interval_m=interval(ms, True))
        yield q, e


def _report_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _assert_partitions_reused(scm, cases, seed):
    """The exact truths of ``cases`` read the same in reverse order, each
    order from an empty partition cache, which never outgrows its bound."""
    calls = [
        functools.partial(fn, scm, q, *extra)
        for q, e in cases
        for fn, extra in (
            (pm.truth_pns, ()),
            (pm.truth_effects, ()),
            (functools.partial(pm.truth_with_evidence, degenerate="error"), (e,)),
            (functools.partial(pm.truth_with_evidence, degenerate="threshold-limit"), (e,)),
        )
    ]
    answers = []
    for order in (calls, calls[::-1]):
        oracle._partition.cache_clear()
        answers.append([])
        for call in order:
            answers[-1].append(repr(_report_or_error(call)))
            assert oracle._partition.cache_info().currsize <= 8, seed
    assert answers[0] == answers[1][::-1], seed


def test_partition_columns_are_read_only_and_die_with_their_entry(preset):
    oracle._partition.cache_clear()
    q = pm.Query(0, 1, 1.0, m_fixed=1.0)
    e = pm.Evidence(x_star=1, interval_y=pm.Interval(1.0, INF))
    truths = [
        functools.partial(pm.truth_pns, preset, q),
        functools.partial(pm.truth_effects, preset, q),
        functools.partial(pm.truth_with_evidence, preset, q, e),
    ]
    # from an empty cache; the three truths read one partition
    fresh = [repr(truth()) for truth in truths]
    _, column = oracle._square_cells(preset, q, e)
    info = oracle._partition.cache_info()
    assert (info.hits, info.misses) == (3, 1)
    col = column("arm", 0.0, 1.0)
    assert col is column("arm", 0.0, 1.0) and not col.flags.writeable
    with pytest.raises(ValueError):
        col[0] = 7.0
    alive = weakref.ref(col)
    del col, column
    # 8 newer partitions evict it, and its columns die with it
    for k in range(8):
        pm.truth_pns(preset, pm.Query(0, 1, 1.0, m_fixed=2.0 + k))
    assert oracle._partition.cache_info().misses == 9 and alive() is None
    assert [repr(truth()) for truth in truths] == fresh
    assert oracle._partition.cache_info().misses == 10


def test_truths_match_reference():
    """Every truth against the per-rectangle reference the counterfactual
    table replaced."""
    reached = set()
    models = [_crossing_scm(), _signed_zero_scm()]
    models += [_non_dyadic_scm(np.random.default_rng(seed)) for seed in range(10)]
    models += [_random_oracle_scm(seed) for seed in range(150)]
    for seed, scm in enumerate(models):
        rng = np.random.default_rng(seed)
        cases = list(_truth_cases(scm, rng))
        _assert_partitions_reused(scm, cases, seed)
        for q, e in cases:
            for name in ("truth_pns", "truth_effects"):
                got = _report_or_error(getattr(pm, name), scm, q)
                want = _report_or_error(getattr(_oracle_reference, name), scm, q)
                assert repr(got) == repr(want), (seed, name, q)
            got = {}
            for degenerate in ("error", "threshold-limit"):
                got[degenerate], want = (
                    _report_or_error(impl.truth_with_evidence, scm, q, e, degenerate=degenerate)
                    for impl in (pm, _oracle_reference)
                )
                assert repr(got[degenerate]) == repr(want), (seed, degenerate, q, e)
            if isinstance(got["threshold-limit"], oracle.TruthReport):
                zero = got["error"] == "ConditioningError: evidence event has zero probability"
                reached.add((e.kind, "limit" if zero else "mass"))
    # every evidence kind was reached with positive and with zero mass
    kinds = (KIND_OUTCOME, KIND_POINT_MEDIATOR, KIND_INTERVAL_MEDIATOR)
    assert reached == {(kind, branch) for kind in kinds for branch in ("mass", "limit")}, reached


def test_monotonicity_with_many_pieces_matches_pairwise_reference():
    # ~1200 pieces: the pruning margin widens by its rounding bound
    rng = np.random.default_rng(5)

    def cell():
        cuts = np.sort(rng.choice(np.arange(1, 4000), size=600, replace=False)) / 4000.0
        return tuple(cuts), tuple(rng.choice([0.0, 1.0, 2.0], size=601))

    scm = pm.ScmSpec(
        treatment=pm.TableNode({(): ((0.5,), (0.0, 1.0))}),
        mediator=pm.TableNode({(x,): ((0.3,), (0.0, 1.0)) for x in (0.0, 1.0)}),
        outcome=pm.TableNode({(x, m): cell() for x in (0.0, 1.0) for m in (0.0, 1.0)}),
    )
    got = pm.check_monotonicity(scm)
    assert got.outcome_violations and got.compound_violations
    assert repr(got) == repr(_oracle_reference.check_monotonicity(scm))


def _analytic_queries(an, rng):
    """Random queries over the model's levels, zeros in both spellings."""
    x_levels = list(an.x_levels())
    m_levels = sorted({m for x in x_levels for m in an.mediator_support(x)})
    y_levels = list(an.outcome_levels())

    def pick(levels, extra):
        v = float(rng.choice(levels + extra))
        return -0.0 if v == 0.0 and rng.random() < 0.5 else v

    for _ in range(60):
        x, x2 = pick(x_levels, []), pick(x_levels, [])
        m, y = pick(m_levels, [0.5, -9.0]), pick(y_levels, [0.25, 99.0])
        strict, strict_m = bool(rng.random() < 0.5), bool(rng.random() < 0.5)
        yield from (
            ("mediator_support", (x,)),
            ("mediator_pmf", (m, x)),
            ("cdf_y_given_xm", (y, x, m if m in m_levels else m_levels[0], strict)),
            ("cdf_y_given_x", (y, x, strict)),
            ("joint_cdf_ym_given_x", (y, m, x, strict, strict_m)),
            ("crossworld_cdf", (y, x, x2)),
            ("outcome_levels", ()),
        )


def _other_zero(args):
    return tuple(-v if isinstance(v, float) and v == 0.0 else v for v in args)


def test_cached_analytic_cdf_matches_fresh_instances():
    """Every query, asked again with the other spelling of each zero, reads
    what a fresh instance reads."""
    for seed in range(60):
        scm = _random_oracle_scm(seed)
        rng = np.random.default_rng(seed)
        for c, _ in scm.covariate_support():
            an = pm.AnalyticCdf(scm, c)
            for name, args in _analytic_queries(an, rng):
                want = repr(getattr(pm.AnalyticCdf(scm, c), name)(*args))
                for asked in (args, _other_zero(args)):
                    assert repr(getattr(an, name)(*asked)) == want, (seed, name, asked)


def test_analytic_cdf_memo_gives_the_same_answers_after_it_starts_over(monkeypatch):
    """With room for 3 answers the memo of each ``AnalyticCdf`` starts over
    again and again, and both suites read what they read with the full
    memo; the memo is the instance's one cache."""

    def suites():
        return repr((verification.equivalence_suite(n_scms=20, seed=0),
                     verification.decomposition_suite(n_scms=50, seed=0)))

    want, sizes, remember = suites(), [], oracle.AnalyticCdf._remember

    def spy(self, key, answer):
        before = len(self._answers)
        got = remember(self, key, answer)
        sizes.append((before, len(self._answers)))
        return got

    monkeypatch.setattr(oracle, "_ANSWER_LIMIT", 3)
    monkeypatch.setattr(oracle.AnalyticCdf, "_remember", spy)
    assert suites() == want
    assert max(after for _, after in sizes) == 3
    assert sizes.count((3, 1)) > 1000  # each a memo that started over
    assert sorted(vars(pm.AnalyticCdf(pm.logistic_bernoulli_preset()))) == ["_answers", "c", "scm"]


def test_logistic_draw_cuts_where_step_cuts():
    """``draw`` gives each row the value that ``step`` assigns its uniform,
    also at the cut ``p`` itself and at the float just below it: both read
    one ``sigmoid`` of the predictor summed in one order."""
    node = pm.LogisticNode(-1.071338746322222, (0.7231901098189695,))
    (p,), _ = node.step((1.0,))
    u = np.array([p, np.nextafter(p, 0.0)])
    assert node.draw([np.ones(2)], [None], u)[0].tolist() == [0.0, 1.0]
    rng = np.random.default_rng(0)
    for trial in range(300):
        k = int(rng.integers(1, 4))
        node = pm.LogisticNode(rng.uniform(-3, 3), rng.uniform(-3, 3, size=k).tolist())
        rows = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], size=(6, k)).tolist()
        parents, u, want = [], [], []
        for row in rows:
            cuts, values = node.step(row)
            for v in [w for p in cuts for w in (p, np.nextafter(p, 0.0))] + [0.0, 0.5]:
                parents.append(row)
                u.append(v)
                want.append(values[bisect.bisect_right(cuts, v)])
        cols = list(np.array(parents).T)
        got, (bits, codes) = node.draw(cols, [None] * k, np.array(u))
        assert got.tolist() == want, trial
        assert bits.view(np.float64)[codes].tolist() == want, trial


def _constant(value, n):
    """A column of ``n`` copies of ``value`` and its ``(bits, codes)`` coding."""
    return np.full(n, value), (np.array([value]).view(np.int64), np.zeros(n, dtype=np.uint8))


def _draw_constant(node, parents, u):
    """``node.draw`` at uniforms ``u`` with every parent column constant and
    coded: each of ``parents`` is a value, or a ``(values, coding)`` pair
    of columns already drawn."""
    cols = [p if isinstance(p, tuple) else _constant(p, u.size) for p in parents]
    return node.draw([col for col, _ in cols], [coding for _, coding in cols], u)


def _piece_points(edges):
    """Per piece of ``edges``: its lower end, its midpoint and the float
    just below its upper end."""
    return np.array([(lo, 0.5 * (lo + hi), np.nextafter(hi, 0.0))
                     for lo, hi in zip(edges, edges[1:])])


def _assert_bits(got, want, key):
    assert np.array_equal(got.view(np.int64), np.asarray(want).view(np.int64)), key


def _assert_draws_partition(scm, c, w_c):
    """Every rectangle of the exact partition of stratum ``c``, for every
    treatment level and every (treatment, mediator) cell, gets its
    ``column`` values from ``node.draw`` at its corner and inner points.
    Returns the kinds of node drawn."""
    x_levels = scm.treatment_levels(c)
    xm_pairs = tuple(itertools.product(x_levels, scm.mediator_levels(c)))
    weights, column = oracle._partition(scm.mediator, scm.outcome, ((c, w_c),),
                                        x_levels, xm_pairs)
    m_cuts = sorted({cut for x in x_levels for cut in scm.mediator.step((x, *c))[0]})
    m_edges = (0.0, *m_cuts, 1.0)
    first = 0
    for (lo_m, hi_m), u_m in zip(zip(m_edges, m_edges[1:]), _piece_points(m_edges)):
        med = {x: _draw_constant(scm.mediator, (x, *c), u_m) for x in x_levels}
        pairs = {(x1, med[x2][0][1]) for x1 in x_levels for x2 in x_levels} | set(xm_pairs)
        y_cuts = sorted({cut for pair in pairs for cut in scm.outcome.step((*pair, *c))[0]})
        y_edges = (0.0, *y_cuts, 1.0)
        rects = slice(first, first + len(y_edges) - 1)
        first = rects.stop
        _assert_bits(weights[rects], [w_c * ((hi_m - lo_m) * (hi - lo))
                                      for lo, hi in zip(y_edges, y_edges[1:])], (c, lo_m))
        u_y = _piece_points(y_edges).ravel()
        for x, (m, _) in med.items():
            # the mediator is one value on the stripe, at each of its points
            for v in column("med", x)[rects]:
                _assert_bits(m, [v] * 3, ("med", x, c, lo_m))
        for x, a in itertools.product(x_levels, repeat=2):
            # the outcome under x with arm a's drawn mediator, at every pair
            # of a mediator-noise point and an outcome-noise point
            m, (bits, codes) = med[a]
            parent = (np.repeat(m, u_y.size), (bits, np.repeat(codes, u_y.size)))
            y, _ = _draw_constant(scm.outcome, (x, parent, *c), np.tile(u_y, 3))
            want = np.tile(np.repeat(column("arm", x, a)[rects], 3), 3)
            _assert_bits(y, want, ("arm", x, a, c, lo_m))
        for x, m in xm_pairs:
            y, _ = _draw_constant(scm.outcome, (x, m, *c), u_y)
            _assert_bits(y, np.repeat(column("at", x, m)[rects], 3), ("at", x, m, c, lo_m))
    assert first == weights.size
    return {type(node).__name__ for node in (scm.mediator, scm.outcome)}


def _assert_covariate_draws(scm, monkeypatch):
    """``_draw_exogenous`` picks each covariate point, and codes it, at the
    corner and inner points of its cumulative-weight interval (the last
    one ends at 1.0); a point of weight zero has no interval."""
    support = scm.covariate_support()
    ends = list(itertools.accumulate(w for _, w in support))
    ends[-1] = 1.0
    u, want = [], []
    for k, (lo, hi) in enumerate(zip([0.0, *ends], ends)):
        if lo < hi:
            u += _piece_points((lo, hi))[0].tolist()
            want += [support[k][0]] * 3
    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_uniform_matrix",
                   lambda seed, n, cols: np.column_stack([u] + [np.full(n, 0.5)] * 3))
        points, codings, *_ = oracle._draw_exogenous(scm, len(u), 0)
    _assert_bits(points, want, support)
    for j, (bits, codes) in enumerate(codings):
        _assert_bits(bits.view(np.float64)[codes], points[:, j], support)


def test_draw_takes_the_partition_values_on_every_rectangle(monkeypatch):
    """What ``simulate`` samples is what the exact oracle integrates.  Each
    node's ``draw``, with constant parent columns and their codings, gives
    every rectangle of ``_partition`` its mediator, arm and fixed-cell
    outcome values, bit for bit, at uniforms on the rectangle's lower
    ends, midpoints and the floats just below its upper ends; and every
    covariate point is drawn at uniforms inside its weight interval."""
    models = [pm.logistic_bernoulli_preset(), _crossing_scm(), _signed_zero_scm()]
    models += [_random_oracle_scm(seed) for seed in range(150)]
    kinds, covariates = set(), 0
    for seed, scm in enumerate(models):
        for c, w_c in scm.covariate_support():
            kinds |= _assert_draws_partition(scm, c, w_c)
        if scm.covariates is not None:
            _assert_covariate_draws(scm, monkeypatch)
            covariates += 1
    assert kinds == {"LogisticNode", "TableNode"} and covariates > 20, (kinds, covariates)


def test_logistic_draw_refuses_the_wrong_number_of_parents():
    """``draw`` refuses parent columns that ``step`` would refuse, with its
    error; so does sampling a model whose treatment has too few coefs."""
    for coefs, cols in [((), 1), ((0.5,), 2), ((0.5, 0.5), 1)]:
        node = pm.LogisticNode(0.0, coefs)
        message = f"^logistic node expects {len(coefs)} parents, got {cols}$"
        with pytest.raises(UnsupportedSpecError, match=message):
            node.step((1.0,) * cols)
        with pytest.raises(UnsupportedSpecError, match=message):
            node.draw([np.array([1.0])] * cols, [None] * cols, np.array([0.3]))
    scm = pm.ScmSpec(pm.LogisticNode(0.0), pm.LogisticNode(1.0, (0.5, 0.0)),
                     pm.LogisticNode(1.0, (0.5, 0.5, 0.0)), covariates=(((1.0,), 1.0),))
    with pytest.raises(UnsupportedSpecError, match="^logistic node expects 0 parents, got 1$"):
        pm.sample_observational(scm, 5, seed=0)


def test_mixtures_of_constant_cell_cdfs_are_exact():
    """When every cell CDF reads 0.0, or every one reads 1.0, the marginal,
    joint and cross-world CDFs read exactly 0.0 or 1.0 under any mediator
    weights: the fsum of ``p * 1.0`` is the fsum of ``p``, whatever it
    rounds to."""
    for seed in range(200):
        rng = np.random.default_rng(seed)
        med = {}
        for x in (0.0, 1.0):
            k = int(rng.integers(2, 9))
            cuts = tuple(sorted(set(rng.uniform(0.01, 0.99, size=k - 1).tolist())))
            med[(x,)] = (cuts, tuple(float(v) for v in range(len(cuts) + 1)))
        out = {(x, float(m)): ((float(rng.uniform(0.01, 0.99)),), (2.0, 3.0))
               for x in (0.0, 1.0) for m in range(8)}
        model = pm.AnalyticCdf(pm.ScmSpec(
            pm.TableNode({(): ((0.5,), (0.0, 1.0))}), pm.TableNode(med), pm.TableNode(out)))
        for y, want in ((2.0, 0.0), (1.0, 0.0), (4.0, 1.0), (3.5, 1.0)):
            for x, x_alt in itertools.product((0.0, 1.0), repeat=2):
                got = (model.cdf_y_given_x(y, x), model.joint_cdf_ym_given_x(y, INF, x),
                       model.crossworld_cdf(y, x, x_alt))
                assert got == (want,) * 3, (seed, y, x, x_alt)


def test_logistic_node_rejects_non_finite_parameters():
    for intercept, coefs in ((math.nan, (0.5,)), (0.0, (math.inf,)), (-math.inf, ())):
        with pytest.raises(UnsupportedSpecError, match="finite"):
            pm.LogisticNode(intercept, coefs)
    with pytest.raises(UnsupportedSpecError, match="NaN"):
        pm.bernoulli_cell(math.nan)
    # finite parameters whose sum is inf + -inf
    node = pm.LogisticNode(0.0, (1e308, 1e308))
    with pytest.raises(UnsupportedSpecError, match="NaN"):
        node.step((1e308, -1e308))
    assert pm.bernoulli_cell(math.inf) == ((), (1.0,))


def test_monotonicity_constant_outcome():
    scm = pm.ScmSpec(
        treatment=pm.TableNode({(): ((0.5,), (0.0, 1.0))}),
        mediator=pm.TableNode(
            {(x,): pm.bernoulli_cell(0.3 + 0.2 * x) for x in (0.0, 1.0)}
        ),
        outcome=pm.TableNode(
            {(x, m): ((), (1.0,)) for x in (0.0, 1.0) for m in (0.0, 1.0)}
        ),
    )
    assert pm.check_monotonicity(scm).ok


@pytest.mark.parametrize("levels", [(2, 2, 5), (3, 4, 5)])
@pytest.mark.parametrize("coherent", [True, False])
def test_random_threshold_models_build_with_many_levels(levels, coherent):
    """With four or more levels a cell's cuts stay strictly increasing: a
    cut pushed against the top cap leaves room for the cuts after it.
    (Five levels at most: drawing the base cuts of six outcome levels is
    slow.)"""
    for seed in range(400):
        scm = verification.random_threshold_scm(
            np.random.default_rng(seed), *levels, coherent=coherent
        )
        for node in (scm.mediator, scm.outcome):
            for cuts, _ in node._table.values():
                assert all(0.0 < a < b < 1.0 for a, b in zip(cuts, cuts[1:])), (seed, cuts)


class _ChoiceSigns:
    """A generator whose ``integers(2)`` is drawn as ``random_threshold_scm``
    once drew an effect sign, by ``float(rng.choice((-1.0, 1.0)))``, and
    returns that sign's index in ``(-1.0, 1.0)``."""

    def __init__(self, rng):
        self._rng = rng

    def integers(self, high):
        assert high == 2
        return (-1.0, 1.0).index(float(self._rng.choice((-1.0, 1.0))))

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("levels", [(2, 2, 2), (3, 3, 3), (3, 2, 4)])
def test_random_signs_draw_as_choice_did(levels):
    """An incoherent model's effect signs come from ``rng.integers(2)``:
    the models, and the generator's next draw, equal those of the former
    ``rng.choice`` draw."""
    for seed in range(300):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        a = verification.random_threshold_scm(new, *levels, coherent=False)
        b = verification.random_threshold_scm(_ChoiceSigns(old), *levels, coherent=False)
        for node in ("treatment", "mediator", "outcome"):
            assert getattr(a, node)._table == getattr(b, node)._table, (seed, node)
        assert new.random() == old.random(), seed


def test_sorted_cuts_that_cannot_fit_raise_before_drawing():
    """Six cuts 0.12 apart need a span of 0.6 > 0.8 - 0.25: no draw can
    succeed, so the call raises and leaves the stream where it was; so does
    a threshold model with seven outcome levels."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="6 cuts at least 0.12 apart do not fit"):
        verification._sorted_cuts(rng, 6, lo=0.25, hi=0.8, gap=0.12)
    assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match="do not fit"):
        verification.random_threshold_scm(np.random.default_rng(0), 2, 2, 7)
    assert len(verification._sorted_cuts(rng, 5, lo=0.25, hi=0.8, gap=0.12)) == 5


def test_equivalence_suite_work_counts(monkeypatch):
    """The suite's oracle work as counts, not times: 46 exact partitions,
    the misses of ``oracle._partition``'s cache, for 145 truths (one per
    distinct set of arms and fixed cells; the other 99 are hits) and 552
    step masses (each ``AnalyticCdf`` answer worked out once).  Without
    the partition cache and the memo they read 145 and 1689.  Every one
    of the gate's 65 strata has ascending steps and takes the prefix
    closed form, so it makes no exact interval subtraction (159390 on the
    interval path, which measures every pair of regions).  The exact
    partitions build 375 counterfactual columns (1440 before each entry
    memoised its columns)."""
    counts = dict.fromkeys(("_step_mass", "_interval_subtract_measure", "_prefix_crossings"), 0)
    for name in counts:

        def spy(*args, _real=getattr(oracle, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(oracle, name, spy)

    def columns(build, _real=oracle._Columns):
        def counted(*args):
            counts["columns"] += 1
            return build(*args)

        return _real(counted)

    # the suite's truths are all exact, so every column is a partition's
    monkeypatch.setattr(oracle, "_Columns", columns)
    # the gate's subtractions and closed-form strata, then the same on the
    # interval path
    for gate in ((0, 65), (159390, 0)):
        counts.update(dict.fromkeys(counts | {"columns": 0}, 0))
        oracle._partition.cache_clear()
        result = verification.equivalence_suite(n_scms=20, seed=0)
        assert (result["accepted"], result["rejected"], result["n_checks"]) == (20, 40, 375)
        # each partition built is a cache miss
        counts["_partition"] = oracle._partition.cache_info().misses
        assert oracle._partition.cache_info().hits == 99
        assert counts == {"_partition": 46, "_step_mass": 552,
                          "_interval_subtract_measure": gate[0], "_prefix_crossings": gate[1],
                          "columns": 375}
        monkeypatch.setattr(oracle, "_ascends", lambda values: False)
