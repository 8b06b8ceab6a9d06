"""The count-table bootstrap must agree bit for bit with row resampling.

References (``_bootstrap_reference``): the CDF surface built from sorted
rows, and the per-family loop that re-runs each target on a row copy of
every resample.  The random tables mix non-integer outcomes, ``-0.0`` next
to ``0.0``, a thin covariate stratum (some replicates leave it empty), a
lonely-row treatment arm and thin mediator cells (degenerate replicates
whose count differs by family), zero totals (undefined shares) and all
three evidence shapes.
"""

import itertools
import shutil
from pathlib import Path

import numpy as np
import pytest

import pocmed as pm
from pocmed.ecdf import RowCounts
from pocmed.cli import main
from pocmed.errors import PocError

from _bootstrap_reference import RowCdfModel, row_bootstrap_ci

INF = float("inf")
Y_LEVELS = (-1.5, -0.0, 0.0, 0.25, 1.75, 3.0)
M_LEVELS = (-0.0, 0.0, 1.0, 2.5)
SHAPES = ("none", "outcome", "point", "interval")


def _random_dataset(seed: int) -> pm.Dataset:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 60))
    x = rng.integers(0, 2, n).astype(float)
    m = rng.choice(M_LEVELS, n)
    y = rng.choice(Y_LEVELS, n)
    c = (rng.random(n) < 0.05).astype(float)
    # a lonely row at treatment level 2, one thin mediator cell per arm and
    # a few rows of both arms in the thin stratum c = 1
    extra = np.array(
        [[2.0, rng.choice((0.0, -0.0, 1.0)), rng.choice(Y_LEVELS), 1.0],
         [0.0, 7.0, 0.25, 0.0],
         [1.0, 7.0, 1.75, 0.0],
         [0.0, 0.0, rng.choice(Y_LEVELS), 1.0],
         [1.0, -0.0, rng.choice(Y_LEVELS), 1.0]]
    )
    cols = {
        "x": np.concatenate([x, extra[:, 0]]),
        "m": np.concatenate([m, extra[:, 1]]),
        "y": np.concatenate([y, extra[:, 2]]),
        "c": np.concatenate([c, extra[:, 3]]),
    }
    return pm.Dataset(cols, pm.ColumnRoles("x", "m", "y", ("c",)))


def _targets(seed: int) -> dict:
    """The family targets of one random query, as the CLI builds them."""
    rng = np.random.default_rng(10_000 + seed)
    shape = SHAPES[seed % len(SHAPES)]
    x_alt = float(rng.choice((1.0, 2.0)))
    stratum = [None, (1.0,), (0.0,)][int(rng.integers(0, 3))]
    q = pm.Query(
        x_base=0.0,
        x_alt=x_alt,
        y_threshold=float(rng.choice((0.0, 0.25, 1.75))),
        m_fixed=float(rng.choice((0.0, 1.0, 7.0))),
        c_stratum=stratum,
    )
    x_star = float(rng.choice((0.0, x_alt)))
    interval_y = pm.Interval(float(rng.choice((-1.5, 0.0))), 1.75, bool(rng.integers(0, 2)))
    natural_e = cd_e = None
    if shape == "outcome":
        natural_e = pm.Evidence(x_star, interval_y)
    elif shape == "point":
        natural_e = pm.Evidence(x_star, interval_y)
        cd_e = pm.Evidence(x_star, interval_y, m_star=q.m_fixed)
    elif shape == "interval":
        natural_e = pm.Evidence(x_star, interval_y, interval_m=pm.Interval(0.0, 2.5, True))
    return {
        "pns": pm.estimator_target("natural", q, natural_e, mediator_monotone=True),
        "cd": pm.estimator_target("cd", q, cd_e),
        "pn": pm.estimator_target("pn", q),
        "ps": pm.estimator_target("ps", q),
    }


def _outcome(fn):
    try:
        return fn()
    except PocError as exc:
        return type(exc).__name__, str(exc)


def _reference(data, targets, cfg):
    """Each family bootstrapped on its own, in order; the first error wins."""
    return {name: row_bootstrap_ci(data, t, cfg) for name, t in targets.items()}


@pytest.mark.filterwarnings("ignore::pocmed.MediatorMonotonicityWarning")
@pytest.mark.parametrize("seed", range(48))
def test_shared_count_loop_matches_row_loop(seed):
    data = _random_dataset(seed)
    targets = _targets(seed)
    cfg = pm.BootstrapConfig(replicates=30, level=0.9, seed=seed)
    got = _outcome(lambda: pm.bootstrap_ci(data, targets, cfg))
    want = _outcome(lambda: _reference(data, targets, cfg))
    if isinstance(want, tuple):
        assert got == want
        return
    assert list(got) == list(want)
    for name, result in got.items():
        assert dict(result) == want[name], name
        assert result.case_flag == targets[name](data).case_flag
        # one target on its own takes the same path
        assert pm.bootstrap_ci(data, targets[name], cfg) == want[name]


def _degenerate(cis) -> int:
    return next(iter(cis.values())).degenerate_count


@pytest.mark.filterwarnings("ignore::pocmed.MediatorMonotonicityWarning")
def test_random_cases_cover_the_edges():
    """The random cases above reach every edge they are meant to cover."""
    seen = set()
    for seed in range(48):
        data = _random_dataset(seed)
        targets = _targets(seed)
        cfg = pm.BootstrapConfig(replicates=30, level=0.9, seed=seed)
        result = _outcome(lambda: pm.bootstrap_ci(data, targets, cfg))
        if isinstance(result, tuple):
            seen.add(result[0])
            continue
        if _degenerate(result["cd"]) != _degenerate(result["pns"]):
            seen.add("per-family degenerate counts")
        counter = RowCounts(data, targets["pns"].c_stratum)
        for child in np.random.SeedSequence(seed).spawn(cfg.replicates):
            idx = np.random.default_rng(child).integers(0, data.n, data.n)
            model = _outcome(lambda: pm.CdfModel(counter.table(idx)))
            if isinstance(model, tuple):
                seen.add("empty stratum")
                continue
            for target in targets.values():
                values = _outcome(lambda: target(model))
                if isinstance(values, tuple):
                    continue
                if values.get("prop_nd", 0.0) is None:
                    seen.add("undefined share")
                seen.add(f"case {values.case_flag}")
    assert {
        "PositivityError",
        "per-family degenerate counts",
        "empty stratum",
        "undefined share",
        "case A",
        "case B",
    } <= seen, seen


def _queries(model):
    """Every query of the CDF surface over a grid, with its outcome."""
    ys = (-INF, -2.0, *Y_LEVELS, 0.1, 1.0, 5.0, INF)
    ms = (-INF, *M_LEVELS, 0.5, 7.0, 9.0, INF)
    xs = (0.0, -0.0, 1.0, 2.0, 3.0)
    out = [("x_levels", model.x_levels())]
    for x in xs:
        out.append(("mediator_support", x, _outcome(lambda: model.mediator_support(x))))
        for m in ms:
            out.append(("mediator_pmf", m, x, _outcome(lambda: model.mediator_pmf(m, x))))
        for y, strict in itertools.product(ys, (True, False)):
            out.append(("cdf_y_given_x", y, x, strict,
                        _outcome(lambda: model.cdf_y_given_x(y, x, strict))))
            for m in ms:
                out.append(("cdf_y_given_xm", y, x, m, strict,
                            _outcome(lambda: model.cdf_y_given_xm(y, x, m, strict))))
                for strict_m in (True, False):
                    out.append(("joint", y, m, x, strict, strict_m, _outcome(
                        lambda: model.joint_cdf_ym_given_x(y, m, x, strict, strict_m))))
        for x_alt, y in itertools.product(xs, ys):
            out.append(("crossworld", y, x, x_alt,
                        _outcome(lambda: model.crossworld_cdf(y, x, x_alt))))
    # -0.0 == 0.0, so both spellings fall in one level; which spelling names
    # it (in mediator_support and in error messages) is not part of the
    # contract: the row build took whichever np.unique's sort put first
    return [repr(entry).replace("-0.0", "0.0") for entry in out]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("stratum", [None, (1.0,)])
def test_count_build_matches_row_build(seed, stratum):
    data = _random_dataset(seed)
    assert _queries(pm.CdfModel(data, stratum)) == _queries(RowCdfModel(data, stratum))
    counter = RowCounts(data, stratum)
    for child in np.random.SeedSequence(seed).spawn(3):
        idx = np.random.default_rng(child).integers(0, data.n, data.n)
        want = _outcome(lambda: _queries(RowCdfModel(data.take(idx), stratum)))
        got = _outcome(lambda: _queries(pm.CdfModel(counter.table(idx), stratum)))
        assert got == want


_JOBS = ["--input", "jobs.csv", "--x-col", "treat", "--m-col", "job_seek",
         "--y-col", "depress2", "--x-base", "0", "--x-alt", "1", "--y", "3"]
#: one estimate per evidence shape, all four families where they apply
_SHAPES_ARGV = (
    ["--m-fixed", "3", "--families", "pns,cd,pn,ps"],
    ["--evidence-x", "0", "--y-interval", "1.5,2.5"],
    ["--m-fixed", "3", "--evidence-x", "1", "--evidence-m", "3", "--y-interval", "2,4",
     "--families", "pns,cd"],
    ["--evidence-x", "1", "--y-interval", "2,4", "--m-interval", "2,4",
     "--assume-mediator-monotone"],
)


@pytest.fixture
def jobs_dir(tmp_path, monkeypatch):
    golden = Path(__file__).parent / "fixtures" / "golden"
    shutil.copy(golden / "jobs.csv", tmp_path / "jobs.csv")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("extra", _SHAPES_ARGV)
def test_estimate_bootstrap_copies_no_rows(jobs_dir, monkeypatch, capsys, extra):
    def no_row_copies(self, indices):
        raise AssertionError("Dataset.take called")

    monkeypatch.setattr(pm.Dataset, "take", no_row_copies)
    assert main(["estimate", *_JOBS, *extra, "--replicates", "30"]) == 0
    assert "degenerate" in capsys.readouterr().out


def test_estimate_stratum_copies_rows_once_per_query(jobs_dir, monkeypatch, capsys):
    calls = []
    take = pm.Dataset.take

    def counted_take(self, indices):
        calls.append(len(indices))
        return take(self, indices)

    monkeypatch.setattr(pm.Dataset, "take", counted_take)
    per_run = []
    for replicates in ("2", "40"):
        calls.clear()
        code = main(["estimate", *_JOBS, "--c-cols", "econ_hard", "--stratum", "1",
                     "--m-fixed", "3", "--families", "pns,cd,pn,ps",
                     "--replicates", replicates])
        assert code == 0, capsys.readouterr().err
        per_run.append(list(calls))
    # the stratum is cut out once, to validate the query
    assert per_run[0] == per_run[1] and len(per_run[0]) == 1
