"""Ground-truth engine: sampling, exact measure, diagnostics."""

import itertools

import numpy as np
import pytest

import pocmed as pm
from pocmed.errors import ConditioningError, UnsupportedSpecError
from pocmed.oracle import analytic_cdf

from conftest import B_ALT, CROSSWORLD, ND_PNS, NI_PNS, S1, S15, T_PNS, T_PN, NI_PN
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
    """A table node over 0 to 3 parent columns, parent rows drawn from its
    keys (levels include -0.0 next to 0.0), sometimes with a key missing."""
    k = int(rng.integers(0, 4))
    level_sets = [rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0, -3.0], size=rng.integers(1, 4),
                             replace=False) for _ in range(k)]
    keys = list(itertools.product(*level_sets))
    cells = {}
    for key in keys:
        n_cuts = int(rng.integers(0, 4))
        cuts = np.sort(rng.choice(np.arange(1, 20), size=n_cuts, replace=False)) / 20.0
        cells[key] = (cuts, rng.choice([-0.0, 0.0, 1.0, 2.5, 7.0], size=n_cuts + 1))
    node = pm.TableNode(cells)
    n = int(rng.integers(0, 300))
    rows = np.asarray(keys, dtype=np.float64)[rng.integers(0, len(keys), n)]
    parent_cols = rows.reshape(n, k)
    if k and n and rng.random() < 0.3:
        parent_cols[rng.integers(0, n), 0] = 4.0
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
    shapes, errors = set(), 0
    for seed in range(200):
        node, parent_cols, u = _random_table_case(np.random.default_rng(seed))
        got = _values_or_error(node.values, parent_cols, u)
        want = _values_or_error(mask_loop_values, node, parent_cols, u)
        if isinstance(want, str):
            assert got == want, seed
            errors += 1
        else:
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), seed
            shapes.add(parent_cols.shape[1])
    # missing cells, and every parent count from none to three, were reached
    assert errors and shapes == {0, 1, 2, 3}


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


def test_analytic_cdf_dispatcher(preset):
    assert analytic_cdf(preset, "y|x", y=1.0, x=1.0) == pytest.approx(B_ALT, abs=1e-12)
    assert analytic_cdf(preset, "y|x&m", y=1.0, x=0.0, m=1.0) == pytest.approx(
        1 - S15, abs=1e-15
    )
    assert analytic_cdf(preset, "m-pmf|x", m=1.0, x=1.0) == pytest.approx(S15, abs=1e-15)
    assert analytic_cdf(
        preset, "joint y&m|x", y=1.0, m=1.0, x=1.0
    ) == pytest.approx((1 - S15) * (1 - S15), abs=1e-12)
    assert analytic_cdf(
        preset, "crossworld", y=1.0, x_base=0.0, x_alt=1.0
    ) == pytest.approx(CROSSWORLD, abs=1e-12)
    with pytest.raises(UnsupportedSpecError):
        analytic_cdf(preset, "nope", y=1.0)


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
