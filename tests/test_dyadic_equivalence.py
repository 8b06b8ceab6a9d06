"""Zero-tolerance oracle equivalence on dyadic threshold models.

When every cut of a threshold model lies on a 2**-8 grid, every
``(x, m, y)`` cell probability is a multiple of 2**-24, so the model's
population table has integer counts (probability times 2**24), and every
CDF the identification formulas read is a dyadic rational that float64
holds exactly.  The empirical surface over that table (``CdfModel``), the
analytic surface (``AnalyticCdf``) and the exact counterfactual oracle must
then agree with ``==``, not within a tolerance.  The cross-world
denominators ``n(x_alt) * prod_m n(x_base, m)`` of these tables lie far
above 2**53, so ``CdfModel`` answers every cross-world CDF from its
rational sum.
"""

import math
from collections import Counter

import numpy as np
import pytest

import pocmed as pm
from pocmed import identify, verification
from pocmed.data import NEG_INF, POS_INF
from pocmed.ecdf import CountTable

GRID = 2**8
#: the population size: every cell probability times this is an integer
SCALE = 2**24


def _on_grid(cuts) -> tuple:
    """``cuts`` rounded to the 2**-8 grid, kept strictly increasing."""
    ks = []
    for cut in cuts:
        ks.append(max(round(cut * GRID), ks[-1] + 1 if ks else 1))
    return tuple(k / GRID for k in ks)


def _dyadic(scm: pm.ScmSpec) -> pm.ScmSpec:
    """The threshold model ``scm`` with every cut moved to the 2**-8 grid."""
    x_cuts, x_values = scm.treatment.step(())
    mediator, outcome = {}, {}
    for x in x_values:
        m_cuts, m_values = scm.mediator.step((x,))
        mediator[(x,)] = (_on_grid(m_cuts), m_values)
        for m in m_values:
            y_cuts, y_values = scm.outcome.step((x, m))
            outcome[(x, m)] = (_on_grid(y_cuts), y_values)
    return pm.ScmSpec(
        treatment=pm.TableNode({(): (_on_grid(x_cuts), x_values)}),
        mediator=pm.TableNode(mediator),
        outcome=pm.TableNode(outcome),
    )


def _masses(step) -> list:
    cuts, values = step
    edges = (0.0, *cuts, 1.0)
    return [(v, hi - lo) for v, lo, hi in zip(values, edges, edges[1:])]


def _population(scm: pm.ScmSpec) -> CountTable:
    """The model's observational distribution as integer counts."""
    rows = []
    for x, p_x in _masses(scm.treatment.step(())):
        for m, p_m in _masses(scm.mediator.step((x,))):
            for y, p_y in _masses(scm.outcome.step((x, m))):
                rows.append((x, m, y, p_x * p_m * p_y * SCALE))
    x, m, y, weights = map(np.array, zip(*sorted(rows)))
    assert (weights == np.floor(weights)).all()
    return CountTable(x, m, y, weights.astype(np.int64))


def _crossworld_denominator(table: CountTable, q: pm.Query) -> int:
    sizes = Counter()
    for x, m, count in zip(table.x.tolist(), table.m.tolist(), table.counts.tolist()):
        sizes[x, m] += count
    levels = [m for x, m in sizes if x == q.x_alt]
    return sum(sizes[q.x_alt, m] for m in levels) * math.prod(sizes[q.x_base, m] for m in levels)


def _models(count: int, seed: int = 0):
    """``count`` dyadic threshold models that pass the monotone-coupling
    gate, drawn as the equivalence suite draws its models."""
    rng = np.random.default_rng(seed)
    while count:
        scm = _dyadic(verification.random_threshold_scm(
            rng,
            treatment_levels=2 if rng.random() < 0.6 else 3,
            mediator_levels=2 if rng.random() < 0.7 else 3,
            outcome_levels=2 if rng.random() < 0.7 else 3,
            coherent=bool(rng.random() < 0.9),
        ))
        if pm.check_monotonicity(scm).ok:
            count -= 1
            yield scm, rng


def _evidences(rng, an, q):
    """Outcome evidence with positive mass and with none, each also with
    the query's fixed mediator (a point-mediator record), in the arm
    ``x*``."""
    x_levels = an.x_levels()
    x_star = float(x_levels[rng.integers(len(x_levels))])
    gap = pm.Interval.point(verification._gap_point(rng, an.outcome_levels()))
    for interval in (verification._random_outcome_interval(rng, an, x_star), gap):
        yield pm.Evidence(x_star, interval), pm.Evidence(x_star, interval, m_star=q.m_fixed)


@pytest.mark.parametrize("seed", range(4))
def test_dyadic_models_match_the_oracle_exactly(seed):
    for scm, rng in _models(48, seed):
        table = _population(scm)
        model, an = pm.CdfModel(table), pm.AnalyticCdf(scm)
        for _ in range(3):
            q = verification._random_query(rng, an, with_m=True)
            assert _crossworld_denominator(table, q) >= 2**53

            # the kernel inputs a, b, r and the evidence bounds
            for kind in ("natural", "cd", "pn", "ps"):
                got = identify._margin_inputs(model, kind, q)
                assert got == identify._margin_inputs(an, kind, q), (kind, q)

            truth = pm.truth_pns(scm, q).values
            for surface in (model, an):
                assert identify.cd_pns(surface, q) == truth["cd_pns"]
                triple = identify.natural_pns(surface, q)
                for key in ("t_pns", "nd_pns", "ni_pns"):
                    assert getattr(triple, key) == truth[key], (key, q)

            for outcome_e, point_e in _evidences(rng, an, q):
                for kind, e in (("natural", outcome_e), ("cd", point_e)):
                    got = identify._margin_inputs(model, kind, q, e)
                    assert got == identify._margin_inputs(an, kind, q, e), (kind, e)
                truth = pm.truth_with_evidence(scm, q, outcome_e,
                                               degenerate="threshold-limit").values
                cd_truth = pm.truth_with_evidence(scm, q, point_e,
                                                  degenerate="threshold-limit").values
                for surface in (model, an):
                    triple, _ = identify.natural_pns_with_evidence(surface, q, outcome_e)
                    assert (triple.nd_pns, triple.ni_pns) == (truth["nd_pns"], truth["ni_pns"])
                    assert triple.t_pns == triple.nd_pns + triple.ni_pns
                    value, _ = identify.cd_pns_with_evidence(surface, q, point_e)
                    assert value == cd_truth["cd_pns"], (point_e, q)

            # the necessity and sufficiency families and their factual events
            factual = {
                "pn": pm.Evidence(q.x_alt, pm.Interval(q.y_threshold, POS_INF)),
                "ps": pm.Evidence(q.x_base, pm.Interval(NEG_INF, q.y_threshold)),
            }
            for kind, family in (("pn", identify.pn_family), ("ps", identify.ps_family)):
                truth = pm.truth_with_evidence(scm, q, factual[kind],
                                               degenerate="threshold-limit").values
                for surface in (model, an):
                    triple = family(surface, q)
                    assert (triple.nd_pns, triple.ni_pns) == (truth["nd_pns"], truth["ni_pns"])
                    assert triple.t_pns == triple.nd_pns + triple.ni_pns
