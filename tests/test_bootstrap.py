"""Percentile bootstrap: determinism, bounds, degeneracy handling."""

import math

import numpy as np
import pytest

import pocmed as pm
from pocmed import bootstrap
from pocmed.errors import BootstrapFailureError


def test_config_validation():
    with pytest.raises(ValueError):
        pm.BootstrapConfig(replicates=1)
    with pytest.raises(ValueError):
        pm.BootstrapConfig(level=1.0)


def test_constant_estimator_degenerate_interval(preset):
    data = pm.sample_observational(preset, 300, seed=0)
    target = pm.estimator_target("natural", pm.Query(1, 1, 1.0))
    cis = pm.bootstrap_ci(data, target, pm.BootstrapConfig(replicates=200, seed=1))
    ci = cis["t_pns"]
    assert ci.point == 0.0 and ci.lower == 0.0 and ci.upper == 0.0


def test_deterministic_given_seed(preset):
    data = pm.sample_observational(preset, 500, seed=2)
    target = pm.estimator_target("natural", pm.Query(0, 1, 1.0))
    cfg = pm.BootstrapConfig(replicates=300, seed=7)
    assert pm.bootstrap_ci(data, target, cfg) == pm.bootstrap_ci(data, target, cfg)


def test_bounds_ordering_and_range(preset):
    # percentile bounds are order statistics, so they bracket the median
    data = pm.sample_observational(preset, 400, seed=3)
    q = pm.Query(0, 1, 1.0)
    target = pm.estimator_target("natural", q)
    cfg = pm.BootstrapConfig(replicates=400, seed=5)
    cis = pm.bootstrap_ci(data, target, cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.replicates)
    replicates = [
        target(data.take(np.random.default_rng(c).integers(0, data.n, data.n)))
        for c in children
    ]
    for key in ("t_pns", "nd_pns", "ni_pns"):
        ci = cis[key]
        assert 0.0 <= ci.lower <= ci.upper <= 1.0
        median = float(np.median([r[key] for r in replicates]))
        assert ci.lower <= median <= ci.upper


def test_small_sample_indirect_lower_bound_clips(preset):
    # small samples put bootstrap mass exactly at zero for the indirect part
    data = pm.sample_observational(preset, 100, seed=6)
    target = pm.estimator_target("natural", pm.Query(0, 1, 1.0))
    cis = pm.bootstrap_ci(data, target, pm.BootstrapConfig(replicates=1000, seed=6))
    assert cis["ni_pns"].lower == 0.0


def test_degenerate_replicates_counted():
    # one lonely row at treatment level 2: replicates that miss it raise
    # positivity errors and are dropped with a count
    rng = np.random.default_rng(0)
    n = 40
    cols = {
        "x": np.concatenate([rng.integers(0, 2, n).astype(float), [2.0]]),
        "m": np.concatenate([rng.integers(0, 2, n).astype(float), [0.0]]),
        "y": np.concatenate([rng.integers(0, 2, n).astype(float), [1.0]]),
    }
    data = pm.Dataset(cols, pm.ColumnRoles("x", "m", "y"))
    target = pm.estimator_target("natural", pm.Query(0, 2, 1.0))
    cis = pm.bootstrap_ci(data, target, pm.BootstrapConfig(replicates=200, seed=3))
    assert 0 < cis["t_pns"].degenerate_count < 200


def test_all_replicates_degenerate():
    # each of 30 mediator levels has one row under the base treatment: the
    # full data identifies the cross-world CDF, but a resample keeps all 30
    # rows with probability about 0.63**30, so every replicate degenerates
    levels = np.arange(30.0)
    cols = {
        "x": np.repeat([0.0, 1.0], [30, 150]),
        "m": np.concatenate([levels, np.repeat(levels, 5)]),
        "y": np.tile([0.0, 1.0], 90),
    }
    data = pm.Dataset(cols, pm.ColumnRoles("x", "m", "y"))
    target = pm.estimator_target("natural", pm.Query(0, 1, 1.0))
    assert set(target(data)) == {"t_pns", "nd_pns", "ni_pns", "prop_nd", "prop_ni"}
    with pytest.raises(BootstrapFailureError, match="all 20 bootstrap replicates"):
        pm.bootstrap_ci(data, target, pm.BootstrapConfig(replicates=20, seed=0))


def _quantile_rule(values, p: float) -> float:
    """numpy's "linear" quantile written out: with ``h = (B - 1) p`` on
    sorted values ``v``, ``f = floor(h)`` and ``g = h - f``, it is
    ``v[f] + g (v[f+1] - v[f])`` for ``g < 0.5`` and
    ``v[f+1] - (1 - g) (v[f+1] - v[f])`` for ``g >= 0.5``."""
    v = sorted(values)
    h = (len(v) - 1) * p
    f = math.floor(h)
    g = h - f
    if f + 1 == len(v):
        return v[f]
    d = v[f + 1] - v[f]
    return v[f] + g * d if g < 0.5 else v[f + 1] - (1 - g) * d


def test_quantile_rule_linear_interpolation():
    # the rule interpolates between the order statistics around h = (B - 1) p,
    # from below for g < 0.5 and from above for g >= 0.5
    values = np.array([0.0, 1.0, 2.0, 10.0])
    assert _quantile_rule(values, 0.5) == 1.5
    assert _quantile_rule(values, 0.025) == pytest.approx(0.075)
    assert _quantile_rule(values, 1.0) == 10.0
    # the one-sided form v[f] + g (v[f+1] - v[f]) is 1 ulp below here
    assert 0.286 + 0.95 * (0.515 - 0.286) == 0.5035499999999999
    assert _quantile_rule([0.515, 0.286], 0.95) == 0.50355


def test_bounds_follow_the_two_sided_quantile_rule(monkeypatch):
    """``bootstrap_ci``'s bounds are the rule above at ``(1 - level) / 2``
    and its complement, bit for bit, over many replicate counts, levels and
    replicate values (ties, 0 and 1 among them)."""
    data = pm.sample_observational(pm.logistic_bernoulli_preset(), 50, seed=0)
    target = pm.estimator_target("cd", pm.Query(0, 1, 1.0, m_fixed=1.0))
    family = bootstrap._family
    rng = np.random.default_rng(0)
    cases = [([0.515, 0.286], 0.9)]
    for _ in range(400):
        b = int(rng.integers(2, 80))
        values = rng.choice((0.0, 1.0, *rng.random(3)), b) if rng.random() < 0.2 else rng.random(b)
        cases.append((values.round(int(rng.integers(1, 17))).tolist(), float(rng.uniform(0.5, 0.999))))
    for values, level in cases:

        def fed(estimand, inputs):
            columns, case_b = family(estimand, inputs)
            if columns["cd_pns"].size == len(values):  # the replicates, not the full data
                columns = {"cd_pns": np.array(values)}
            return columns, case_b

        monkeypatch.setattr(bootstrap, "_family", fed)
        ci = pm.bootstrap_ci(data, target, pm.BootstrapConfig(len(values), level, 0))["cd_pns"]
        alpha = (1.0 - level) / 2.0
        want = (_quantile_rule(values, alpha), _quantile_rule(values, 1.0 - alpha))
        assert repr((ci.lower, ci.upper)) == repr(want), (values, level)
        assert ci.replicate_mean == float(np.mean(values))


def test_proportion_quantities_skip_undefined(preset):
    # replicates with zero total leave the proportion undefined; those
    # replicates are excluded from the proportion percentile sets only
    data = pm.sample_observational(preset, 60, seed=12)
    target = pm.estimator_target("natural", pm.Query(0, 1, 1.0))
    cis = pm.bootstrap_ci(data, target, pm.BootstrapConfig(replicates=300, seed=2))
    if "prop_nd" in cis:
        assert 0.0 <= cis["prop_nd"].lower <= cis["prop_nd"].upper <= 1.0


def test_target_validation(preset):
    q = pm.Query(0, 1, 1.0)
    with pytest.raises(Exception):
        pm.estimator_target("pn", q, evidence=pm.Evidence(0, pm.Interval.full()))
    with pytest.raises(Exception):
        pm.estimator_target(
            "cd", q, evidence=pm.Evidence(x_star=0, interval_y=pm.Interval.full())
        )


def test_unknown_kind_raises_when_called(preset):
    # the target builds; the kind is refused at call time, before any query
    # and before the mediator-monotonicity check of interval evidence
    data = pm.sample_observational(preset, 50, seed=1)
    joint = pm.Evidence(x_star=0, interval_y=pm.Interval.full(), interval_m=pm.Interval.full())
    for evidence in (None, joint):
        target = pm.estimator_target("bogus", pm.Query(0, 1, 1.0), evidence)
        with pytest.raises(ValueError, match="^unknown estimator kind 'bogus'$"):
            target(data)


def test_mediator_warning_points_at_the_caller(preset):
    data = pm.sample_observational(preset, 50, seed=1)
    q = pm.Query(0, 1, 1.0)
    joint = pm.Evidence(x_star=0, interval_y=pm.Interval.full(), interval_m=pm.Interval.full())
    target = pm.estimator_target("natural", q, joint, mediator_monotone=True)
    with pytest.warns(pm.MediatorMonotonicityWarning) as caught:
        target(data)
        pm.natural_pns_with_mediator_evidence(pm.CdfModel(data), q, joint, mediator_monotone=True)
    assert [w.filename for w in caught] == [__file__, __file__]
