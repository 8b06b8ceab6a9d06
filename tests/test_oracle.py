"""Ground-truth engine: sampling, exact measure, diagnostics."""

import functools
import itertools
import math

import numpy as np
import pytest

import pocmed as pm
from pocmed import oracle, verification
from pocmed.data import KIND_INTERVAL_MEDIATOR, KIND_OUTCOME, KIND_POINT_MEDIATOR
from pocmed.errors import ConditioningError, UnsupportedSpecError

from conftest import B_ALT, CROSSWORLD, ND_PNS, NI_PNS, S1, S15, T_PNS, T_PN, NI_PN
import _oracle_reference
from _sampling_reference import mask_loop_values

INF = float("inf")


def test_sampling_deterministic(preset):
    first = pm.sample_observational(preset, 5, seed=123)
    second = pm.sample_observational(preset, 5, seed=123)
    assert first.equals(second)
    assert not first.equals(pm.sample_observational(preset, 5, seed=124))


def test_sampling_rejects_empty(preset):
    with pytest.raises(ValueError):
        pm.sample_observational(preset, 0, seed=1)


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


def test_table_node_values_match_mask_loop():
    shapes, errors = set(), set()
    for seed in range(300):
        node, parent_cols, u = _random_table_case(np.random.default_rng(seed))
        got = _values_or_error(node.values, parent_cols, u)
        want = _values_or_error(mask_loop_values, node, parent_cols, u)
        if isinstance(want, str):
            # both name the same parent combination
            assert got == want, seed
            errors.add("nan" if "nan" in want else "off-level" if "4.0" in want else "no key")
        else:
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), seed
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
    got = node.values(np.array([[1.0], [-0.0], [0.0]]), np.array([0.7, 0.7, 0.2]))
    assert got.tolist() == [2.0, 1.0, 0.0] and node._lookup is not None


def test_sampling_moments(preset):
    data = pm.sample_observational(preset, 1_000_000, seed=9)
    assert np.mean(data.x) == pytest.approx(0.5, abs=0.002)
    m_given_x0 = data.m[data.x == 0.0]
    assert np.mean(m_given_x0) == pytest.approx(S1, abs=0.002)


def test_exact_truths(preset, base_query):
    rep = pm.truth_pns(preset, base_query)
    assert rep.method == "exact" and rep.se["t_pns"] == 0.0
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


def test_exact_seed_invariant(preset, base_query):
    a = pm.truth_pns(preset, base_query, method="exact", seed=1)
    b = pm.truth_pns(preset, base_query, method="exact", seed=999)
    assert a.values == b.values


@pytest.mark.parametrize("n", [0, -3])
def test_mc_truths_reject_empty_samples(preset, base_query, n):
    e = pm.Evidence(x_star=1.0, interval_y=pm.Interval(1.0, INF))
    for truth in (
        lambda: pm.truth_pns(preset, base_query, method="mc", n=n),
        lambda: pm.truth_with_evidence(preset, base_query, e, method="mc", n=n),
        lambda: pm.truth_effects(preset, base_query, method="mc", n=n),
    ):
        with pytest.raises(ValueError, match="sample size must be at least 1"):
            truth()


def test_mc_close_to_exact(preset, base_query):
    rep = pm.truth_pns(preset, base_query, method="mc", n=1_000_000, seed=4)
    assert rep.method == "mc" and rep.n == 1_000_000
    for key in ("t_pns", "nd_pns", "ni_pns"):
        exact = {"t_pns": T_PNS, "nd_pns": ND_PNS, "ni_pns": NI_PNS}[key]
        assert abs(rep.values[key] - exact) <= 4 * rep.se[key]


def test_mc_statistical_convergence(preset, base_query):
    # over 100 seeds, at least 99 land within 4 standard errors
    hits = 0
    for seed in range(100):
        rep = pm.truth_pns(preset, base_query, method="mc", n=100_000, seed=seed)
        if abs(rep.values["t_pns"] - T_PNS) <= 4 * max(rep.se["t_pns"], 1e-12):
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


def test_truth_mc_with_evidence(preset, base_query):
    e = pm.Evidence(x_star=1, interval_y=pm.Interval(1.0, INF))
    rep = pm.truth_with_evidence(preset, base_query, e, method="mc", n=400_000, seed=3)
    assert abs(rep.values["t_pns"] - T_PN) <= 4 * rep.se["t_pns"]


def test_effects_decomposition(preset):
    # total effect = direct(x', x) - indirect(x, x') on the exact path
    q = pm.Query(0, 1, 1.0, m_fixed=1.0)
    fwd = pm.truth_effects(preset, q)
    rev = pm.truth_effects(preset, pm.Query(1, 0, 1.0))
    assert fwd.values["te"] == pytest.approx(
        fwd.values["nde"] - rev.values["nie"], abs=1e-12
    )
    assert "cde" in fwd.values
    mc = pm.truth_effects(preset, q, method="mc", n=200_000, seed=8)
    assert mc.values["te"] == pytest.approx(fwd.values["te"], abs=0.01)


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


def test_function_node_mc_only():
    scm = pm.ScmSpec(
        treatment=pm.LogisticNode(0.0),
        mediator=pm.LogisticNode(1.0, (0.5,)),
        outcome=pm.FunctionNode(lambda u, x, m: float(u < 0.3 + 0.1 * x + 0.2 * m)),
    )
    with pytest.raises(UnsupportedSpecError):
        pm.truth_pns(scm, pm.Query(0, 1, 1.0))
    rep = pm.truth_pns(scm, pm.Query(0, 1, 1.0), method="mc", n=50_000, seed=1)
    assert 0.0 <= rep.values["t_pns"] <= 1.0


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


def _random_oracle_scm(seed):
    rng = np.random.default_rng(seed)
    kind = seed % 5
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
    return _random_covariate_table_scm(rng)


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
    # every kind of crossing was reported, so the exact recompute was reached
    assert all(reached.values()), reached


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


def _function_scm():
    return pm.ScmSpec(
        treatment=pm.LogisticNode(0.0),
        mediator=pm.LogisticNode(1.0, (0.5,)),
        outcome=pm.FunctionNode(lambda u, x, m: float(u < 0.3 + 0.1 * x + 0.2 * m)),
    )


def _truth_cases(scm, rng):
    """Queries and evidence over the model's levels and the gaps between
    them, some in a covariate stratum, some with a mediator value or an
    evidence mediator that has no table cell or no mass."""
    support = scm.covariate_support()
    c = support[rng.integers(len(support))][0]
    xs = list(scm.treatment_levels(c))
    ms = list(scm.mediator_levels(c))
    fn = isinstance(scm.outcome, pm.FunctionNode)
    ys = [0.0, 1.0] if fn else sorted(scm.outcome.value_levels())
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


def _assert_same_effects(got, want, whole, key) -> bool:
    """MC effects on whole-number outcomes are ``==``; otherwise the mean of
    per-draw differences is a difference of sums, equal up to rounding.
    Returns whether any value differs."""
    if isinstance(want, str) or whole:
        assert got == want, key
        return False
    assert (got.method, got.n, got.se) == (want.method, want.n, want.se), key
    assert got.values.keys() == want.values.keys(), key
    for k, v in want.values.items():
        assert abs(got.values[k] - v) <= 1e-12, key
    return got.values != want.values


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
        oracle._PARTITIONS.clear()
        answers.append([])
        for call in order:
            answers[-1].append(repr(_report_or_error(call)))
            assert len(oracle._PARTITIONS) <= oracle._PARTITION_LIMIT, seed
    assert answers[0] == answers[1][::-1], seed


def test_truths_match_reference():
    """Every truth, exact and Monte Carlo, against the per-rectangle and
    per-method reference the counterfactual table replaced."""
    reached = set()
    models = [_crossing_scm(), _signed_zero_scm(), _function_scm()]
    models += [_non_dyadic_scm(np.random.default_rng(seed)) for seed in range(10)]
    models += [_random_oracle_scm(seed) for seed in range(150)]
    for seed, scm in enumerate(models):
        rng = np.random.default_rng(seed)
        whole = isinstance(scm.outcome, pm.FunctionNode) or all(
            float(v).is_integer() for v in scm.outcome.value_levels()
        )
        cases = list(_truth_cases(scm, rng))
        _assert_partitions_reused(scm, cases, seed)
        for q, e in cases:
            for method in ("exact", "mc"):
                kw = dict(method=method, n=400, seed=seed)
                for name in ("truth_pns", "truth_effects"):
                    got = _report_or_error(getattr(pm, name), scm, q, **kw)
                    want = _report_or_error(getattr(_oracle_reference, name), scm, q, **kw)
                    key = (seed, name, method, q)
                    if name == "truth_effects" and method == "mc":
                        if _assert_same_effects(got, want, whole, key):
                            reached.add("rounded effects")
                    else:
                        assert repr(got) == repr(want), key
                got = {}
                for degenerate in ("error", "threshold-limit"):
                    got[degenerate], want = (
                        _report_or_error(
                            impl.truth_with_evidence, scm, q, e, degenerate=degenerate, **kw
                        )
                        for impl in (pm, _oracle_reference)
                    )
                    assert repr(got[degenerate]) == repr(want), (seed, method, degenerate, q, e)
                if method == "exact" and isinstance(got["threshold-limit"], oracle.TruthReport):
                    zero = got["error"] == "ConditioningError: evidence event has zero probability"
                    reached.add((e.kind, "limit" if zero else "mass"))
    # every evidence kind was reached with positive and with zero mass, and
    # some Monte Carlo effect moved by rounding
    kinds = (KIND_OUTCOME, KIND_POINT_MEDIATOR, KIND_INTERVAL_MEDIATOR)
    branches = {(kind, branch) for kind in kinds for branch in ("mass", "limit")}
    assert reached == branches | {"rounded effects"}, reached


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
    """The suite's oracle work as counts, not times: 46 exact partitions
    for 145 truths (one per distinct set of arms and fixed cells), 552
    step masses (each ``AnalyticCdf`` answer worked out once) and 306
    exact interval subtractions (the gate stops at the first crossing).
    Without the partition cache, the memo and the gate they read 145,
    1689 and 1970."""
    counts = dict.fromkeys(("_partition", "_step_mass", "_interval_subtract_measure"), 0)
    for name in counts:

        def spy(*args, _real=getattr(oracle, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(oracle, name, spy)
    monkeypatch.setattr(oracle, "_PARTITIONS", {})
    result = verification.equivalence_suite(n_scms=20, seed=0)
    assert (result["accepted"], result["rejected"], result["n_checks"]) == (20, 40, 375)
    assert counts == {"_partition": 46, "_step_mass": 552, "_interval_subtract_measure": 306}
