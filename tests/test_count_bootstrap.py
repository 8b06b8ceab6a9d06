"""The count-table bootstrap must agree bit for bit with row resampling.

References (``_bootstrap_reference``): the CDF surface built from sorted
rows, and the per-family loop that re-runs each target on a row copy of
every resample.  The random tables mix non-integer outcomes, ``-0.0`` next
to ``0.0``, a thin covariate stratum (some replicates leave it empty), a
lonely-row treatment arm and thin mediator cells (degenerate replicates
whose count differs by family), zero totals (undefined shares) and all
three evidence shapes.
"""

import functools
import itertools
import math
import os
from collections import Counter
from fractions import Fraction
import shutil
from pathlib import Path

import numpy as np
import pytest

import pocmed as pm
from pocmed import bootstrap, ecdf
from pocmed.ecdf import RowCounts
from pocmed.cli import main
from pocmed.errors import PocError, PositivityError

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
    return _family_targets(q, shape, x_star, interval_y)


def _family_targets(q, shape, x_star, interval_y) -> dict:
    """The four family targets of ``q`` with evidence of one shape."""
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


def _wide_dataset(seed: int) -> pm.Dataset:
    """Two arms over many mediator levels, and a rare mediator level 9 with
    one row per arm, which some replicates leave out of both arms and some
    leave in the ``x_alt`` arm alone.  With six levels of about 147 rows per
    cell (seeds 0-3) the cross-world denominator ``n(x_alt) * prod_m
    n(x_base, m)`` lies near 2**53, some replicates above it and some below;
    with eight levels of about 200 (seeds 4-7) it lies near 2**72, where
    float64 products are no longer exact."""
    rng = np.random.default_rng(seed)
    levels, cell = (6, 147) if seed < 4 else (8, 200)
    n = 2 * levels * cell
    cols = {
        "x": np.append(rng.integers(0, 2, n), (0, 1)).astype(float),
        "m": np.append(rng.integers(0, levels, n), (9, 9)).astype(float),
        "y": rng.choice(Y_LEVELS, n + 2),
    }
    return pm.Dataset(cols, pm.ColumnRoles("x", "m", "y"))


def _wide_targets(seed: int) -> dict:
    """Every evidence shape; seeds 2, 3, 6 and 7 read the rare level 9 in
    the cd cells, and 2 and 6 also in the point-mediator evidence, whose
    mass is then often exactly 0."""
    q = pm.Query(x_base=0.0, x_alt=1.0, y_threshold=0.25, m_fixed=(1.0, 9.0)[seed // 2 % 2])
    shape = SHAPES[seed % len(SHAPES)]
    return _family_targets(q, shape, float(seed // 4 % 2), pm.Interval(0.0, 1.75, True))


#: (dataset, targets, config) makers of the random cases
_CASES = {
    "random": lambda seed: (
        _random_dataset(seed), _targets(seed), pm.BootstrapConfig(30, 0.9, seed)),
    "wide": lambda seed: (
        _wide_dataset(seed), _wide_targets(seed), pm.BootstrapConfig(24, 0.9, seed)),
}
_SEEDS = {"random": range(48), "wide": range(8)}


def _assert_matches_reference(data, targets, cfg):
    """``bootstrap_ci`` of every family together equals each family
    bootstrapped on its own over row copies: the same ``CiResult``s, case
    flags and first error."""
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


@pytest.mark.filterwarnings("ignore::pocmed.MediatorMonotonicityWarning")
@pytest.mark.parametrize("seed", _SEEDS["random"])
def test_shared_count_loop_matches_row_loop(seed):
    _assert_matches_reference(*_CASES["random"](seed))


@pytest.mark.filterwarnings("ignore::pocmed.MediatorMonotonicityWarning")
@pytest.mark.parametrize("seed", _SEEDS["wide"])
def test_wide_mediator_count_loop_matches_row_loop(seed):
    _assert_matches_reference(*_CASES["wide"](seed))


def _exact(result) -> str:
    """Every bit of a ``bootstrap_ci`` outcome, case flags included."""
    if isinstance(result, tuple):
        return repr(result)
    return repr({name: (dict(r), r.case_flag) for name, r in result.items()})


@pytest.mark.filterwarnings("ignore::pocmed.MediatorMonotonicityWarning")
def test_chunked_replicates_match_one_chunk(monkeypatch):
    """B = 30 counted 4 replicates at a time (the last chunk 2) gives the
    bits of one chunk of 30, over every random and wide case: the chunks'
    columns, degenerate replicates and undefined shares among them, are
    joined in replicate order."""
    seen = set()
    family = bootstrap._family

    def watched(estimand, inputs):
        columns, case_b = family(estimand, inputs)
        total = next(iter(columns.values()))
        seen.add(f"chunk of {total.size}")
        if np.isnan(total).any():
            seen.add("degenerate replicate")
        if "prop_nd" in columns and (np.isnan(columns["prop_nd"]) > np.isnan(total)).any():
            seen.add("undefined share")
        return columns, case_b

    monkeypatch.setattr(bootstrap, "_family", watched)
    for kind, seeds in _SEEDS.items():
        for seed in seeds:
            data, targets, cfg = _CASES[kind](seed)
            cfg = pm.BootstrapConfig(30, cfg.level, cfg.seed)
            stratum = tuple(targets["pns"].estimand.query.c_stratum or ())
            size = RowCounts(data, stratum).size
            assert 30 * size <= bootstrap._CHUNK_COUNTS
            whole = _outcome(lambda: pm.bootstrap_ci(data, targets, cfg))
            with monkeypatch.context() as m:
                m.setattr(bootstrap, "_CHUNK_COUNTS", 4 * size)
                chunked = _outcome(lambda: pm.bootstrap_ci(data, targets, cfg))
            assert _exact(chunked) == _exact(whole), (kind, seed)
    assert {"chunk of 30", "chunk of 4", "chunk of 2",
            "degenerate replicate", "undefined share"} <= seen, seen


@pytest.mark.filterwarnings("ignore::pocmed.MediatorMonotonicityWarning")
def test_row_counts_of_the_stratum_stand_for_the_dataset():
    """``bootstrap_ci`` of the :class:`RowCounts` coded for the targets'
    stratum has the bits of ``bootstrap_ci`` of the dataset, errors
    included; row counts of another stratum are refused."""
    for seed in range(12):
        data, targets, cfg = _CASES["random"](seed)
        stratum = targets["pns"].estimand.query.c_stratum
        counter = RowCounts(data, stratum)
        assert _exact(_outcome(lambda: pm.bootstrap_ci(counter, targets, cfg))) == _exact(
            _outcome(lambda: pm.bootstrap_ci(data, targets, cfg))), seed
        other = RowCounts(data, None if stratum else (0.0,))
        with pytest.raises(ValueError, match="^row counts of stratum .* cannot bootstrap"):
            pm.bootstrap_ci(other, targets, cfg)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")
@pytest.mark.filterwarnings("ignore::pocmed.MediatorMonotonicityWarning")
@pytest.mark.parametrize("kind, seed, replicates", [
    *((kind, seed, None) for kind, seeds in _SEEDS.items() for seed in seeds),
    *(("random", seed, b) for seed in range(3) for b in (2, 3, 251)),
])
def test_forked_replicates_match_the_serial_run(monkeypatch, kind, seed, replicates):
    """With the size rule forced (``_FORK_DRAWS = 0``), a forked child
    draws the upper half of the replicates: the outcome has the bits of the
    serial run, of both halves run here (no ``os.fork``), of chunks of 2
    replicates on each side, and of the row-resampling reference, over
    every random and wide case (degenerate replicates, undefined shares,
    strata) and at B = 2, 3 and 251."""
    data, targets, cfg = _CASES[kind](seed)
    if replicates is not None:
        cfg = pm.BootstrapConfig(replicates, cfg.level, cfg.seed)
    assert cfg.replicates * data.n < bootstrap._FORK_DRAWS
    serial = _exact(_outcome(lambda: pm.bootstrap_ci(data, targets, cfg)))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(bootstrap, "_FORK_DRAWS", 0)
    forked = _exact(_outcome(lambda: pm.bootstrap_ci(data, targets, cfg)))
    _assert_matches_reference(data, targets, cfg)
    stratum = tuple(targets["pns"].estimand.query.c_stratum or ())
    monkeypatch.setattr(bootstrap, "_CHUNK_COUNTS", 2 * RowCounts(data, stratum).size)
    chunked = _exact(_outcome(lambda: pm.bootstrap_ci(data, targets, cfg)))
    monkeypatch.delattr(os, "fork")
    here = _exact(_outcome(lambda: pm.bootstrap_ci(data, targets, cfg)))
    assert forked == chunked == here == serial
    if serial.startswith("{"):
        # one fork each: the forked and chunked runs, and the reference
        # check's run of all targets and of each alone
        assert len(forks) == 2 + 1 + len(targets)


def _degenerate(cis) -> int:
    return next(iter(cis.values())).degenerate_count


def _crossworld_edges(table, q) -> set:
    """The edges of the cross-world sum that one replicate's count table
    reaches: its common denominator at or above 2**53, and a mediator level
    of the data with rows in neither arm."""
    sizes = Counter()
    for x, m, count in zip(table.x.tolist(), table.m.tolist(), table.counts.tolist()):
        sizes[x, m] += count
    levels = {m for x, m in sizes if x in (q.x_base, q.x_alt)}
    den = sum(sizes[q.x_alt, m] for m in levels)
    for m in levels:
        if sizes[q.x_alt, m]:
            den *= sizes[q.x_base, m]
    if den == 0:
        return set()
    edges = {"crossworld denominator >= 2**53" if den >= 2**53 else "crossworld exact ratio"}
    if any(not sizes[q.x_base, m] and not sizes[q.x_alt, m] for m in levels):
        edges.add("mediator level empty in both arms")
    return edges


@pytest.mark.filterwarnings("ignore::pocmed.MediatorMonotonicityWarning")
def test_random_cases_cover_the_edges():
    """The random cases above reach every edge they are meant to cover."""
    seen = set()
    for kind, seeds in _SEEDS.items():
        for seed in seeds:
            data, targets, cfg = _CASES[kind](seed)
            result = _outcome(lambda: pm.bootstrap_ci(data, targets, cfg))
            if isinstance(result, tuple):
                seen.add(result[0])
                continue
            if _degenerate(result["cd"]) != _degenerate(result["pns"]):
                seen.add("per-family degenerate counts")
            q = targets["pns"].estimand.query
            counter = RowCounts(data, q.c_stratum)
            for child in np.random.SeedSequence(seed).spawn(cfg.replicates):
                idx = np.random.default_rng(child).integers(0, data.n, data.n)
                try:
                    table = counter.table(idx)
                except PositivityError:
                    seen.add("empty stratum")
                    continue
                if not table.counts[table.x == q.x_alt].any():
                    seen.add("empty x_alt arm")
                seen |= _crossworld_edges(table, q)
                model = pm.CdfModel(table)
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
        "empty x_alt arm",
        "undefined share",
        "case A",
        "case B",
        "crossworld denominator >= 2**53",
        "crossworld exact ratio",
        "mediator level empty in both arms",
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


def _batched_grid(ys, ms, xs):
    """(query, args) of every query of the batched CDF surface."""
    for x, y, strict in itertools.product(xs, ys, (True, False)):
        yield "cdf_y_given_x", (y, x, strict)
        for m in ms:
            yield "cdf_y_given_xm", (y, x, m, strict)
            for strict_m in (True, False):
                yield "joint_cdf_ym_given_x", (y, m, x, strict, strict_m)
    for x_base, x_alt, y in itertools.product(xs, xs, ys):
        yield "crossworld_cdf", (y, x_base, x_alt)


@pytest.mark.parametrize(
    "kind, seed, stratum",
    [*(("random", seed, stratum) for seed in range(12) for stratum in (None, (1.0,))),
     *(("wide", seed, None) for seed in range(8))],
)
def test_count_matrix_matches_count_tables(kind, seed, stratum):
    """Each query of the count matrix gives, per replicate, the bits of the
    same query of the row-built surface of that replicate's row copy, and
    NaN where that query (or the build, for an empty stratum) raises
    PositivityError."""
    data = _CASES[kind](seed)[0]
    counter = RowCounts(data, stratum)
    draws = [np.random.default_rng(child).integers(0, data.n, data.n)
             for child in np.random.SeedSequence(seed).spawn(6)]
    surface = counter.matrix(np.stack([counter.bincount(idx) for idx in draws]))
    models = []
    for idx in draws:
        try:
            models.append(RowCdfModel(data.take(idx), stratum))
        except PositivityError:
            models.append(None)

    def scalar(model, name, args):
        if model is None:
            return float("nan")
        try:
            return getattr(model, name)(*args)
        except PositivityError:
            return float("nan")

    if kind == "random":
        ms = (-INF, *M_LEVELS, 0.5, 7.0, 9.0, INF)
        grid = _batched_grid((-INF, -2.0, *Y_LEVELS, 0.1, 1.0, 5.0, INF), ms,
                             (0.0, -0.0, 1.0, 2.0, 3.0))
    else:
        ms = (0.0, 2.0, 5.0, 9.0, INF)
        grid = _batched_grid((*Y_LEVELS, INF), ms, (0.0, 1.0))
    grid = [*grid, *(("mediator_pmf", (m, x)) for m in ms for x in (0.0, 1.0, 2.0, 3.0))]
    for name, args in grid:
        want = [scalar(model, name, args) for model in models]
        assert repr(getattr(surface, name)(*args).tolist()) == repr(want), (name, args)


def test_count_matrix_takes_the_rational_sum_from_2_53():
    """From a cross-world denominator of 2**53 on, float64 is no longer
    exact: on this replicate, whose denominator lies just above it, the
    float64 ratio of numerator and denominator is not correctly rounded,
    and the count matrix must still give the correctly rounded rational
    sum."""
    tuples = list(itertools.product((0.0, 1.0), (0.0, 1.0, 2.0), (0.0, 1.0)))
    cols = {key: np.array(column) for key, column in zip("xmy", zip(*tuples))}
    counter = RowCounts(pm.Dataset(cols, pm.ColumnRoles("x", "m", "y")))
    # rows per (x, m, y) tuple, in tuple order
    counts = np.array([[4081, 1776, 5550, 3801, 3822, 4321, 5278, 2448, 2131, 5703, 3306, 4127]])
    base, alt = counts.reshape(2, 3, 2).tolist()
    n_base, n_alt = [sum(cell) for cell in base], [sum(cell) for cell in alt]
    den = sum(n_alt) * math.prod(n_base)
    assert 2**53 <= den < 2**54
    # the outcome below 1 with treatment at 0 and the mediator as under
    # treatment 1: each base cell's y = 0 share, weighted by the alt cell's
    # share of its arm
    exact = sum(Fraction(b[0] * a, sum(b)) for b, a in zip(base, n_alt)) / sum(n_alt)
    want = float(exact)
    # the numerator over the common denominator: float64 rounds both
    num = sum(b[0] * a * den // (sum(b) * sum(n_alt)) for b, a in zip(base, n_alt))
    assert Fraction(num, den) == exact and float(num) / float(den) != want

    assert repr(counter.matrix(counts).crossworld_cdf(1.0, 0.0, 1.0).tolist()) == repr([want])
    assert repr(pm.CdfModel(counter.table()._replace(counts=counts[0])).crossworld_cdf(
        1.0, 0.0, 1.0)) == repr(want)


def _rational_crossworld(table: dict, levels, y: float, x_base: float, x_alt: float) -> float:
    """The cross-world CDF of one count table ``{(x, m, y): rows}`` as the
    correctly rounded ``Fraction`` sum over the mediator ``levels`` with
    rows under ``x_alt``, NaN where a conditioning cell is empty."""

    def rows(x, m, below=INF):
        return sum(n for (tx, tm, ty), n in table.items() if tx == x and tm == m and ty < below)

    n_alt = sum(rows(x_alt, m) for m in levels)
    if n_alt == 0:
        return float("nan")
    acc = Fraction(0)
    for m in levels:
        alt, base = rows(x_alt, m), rows(x_base, m)
        if alt and not base:
            return float("nan")
        if alt:
            acc += Fraction(rows(x_base, m, y) * alt, base)
    return float(acc / n_alt)


@pytest.mark.parametrize("seed", range(24))
def test_crossworld_cdf_is_the_rounded_rational_sum(seed):
    """Random count matrices with 1 to 30 mediator levels and up to 10**6
    rows per tuple, so cross-world denominators run from below 2**53 to
    hundreds of bits: every replicate's cross-world CDF is ``float`` of its
    ``Fraction`` sum, NaN where a cell is empty (thin arms, zeroed cells and
    levels missing under one arm), and with both arms the same it is the
    arm's outcome CDF.  A one-row ``CdfModel`` with 2**33 to 2**37 rows per
    tuple, whose products of counts overflow int64, agrees as well."""
    rng = np.random.default_rng(seed)
    n_levels = int(rng.integers(1, 31))
    levels = [float(v) for v in range(n_levels)]
    ys = (0.0, 1.0, 2.0)
    tuples = [t for t in itertools.product((0.0, 1.0), levels, ys)
              if not (t[0] == 0.0 and t[1] % 7 == 3)]  # level 3 only under x = 1
    cols = [np.array(column) for column in zip(*tuples)]
    counts = rng.integers(0, 10**int(rng.integers(1, 7)), (6, len(tuples)))
    counts[rng.random(counts.shape) < 0.1] = 0
    counts[0, [i for i, t in enumerate(tuples) if t[0] == 1.0]] = 0  # an empty arm
    counts[1, [i for i, t in enumerate(tuples) if t[0] == 0.0][:3]] = 0  # an empty cell
    big = rng.integers(2**33, 2**37, len(tuples))
    tables = [dict(zip(tuples, row)) for row in counts.tolist()]
    surface = ecdf.CountMatrix(*cols, counts)
    model = pm.CdfModel(ecdf.CountTable(*cols, big))
    for y in (-1.0, *ys, 0.5, 2.5, INF):
        for xb, xa in ((0.0, 1.0), (1.0, 0.0)):
            want = [_rational_crossworld(table, levels, y, xb, xa) for table in tables]
            assert repr(surface.crossworld_cdf(y, xb, xa).tolist()) == repr(want), (y, xb, xa)
            try:
                got = model.crossworld_cdf(y, xb, xa)
            except PositivityError:  # the level missing under x = 0
                got = float("nan")
            assert repr(got) == repr(_rational_crossworld(dict(zip(tuples, big.tolist())),
                                                          levels, y, xb, xa))
        for x in (0.0, 1.0):
            assert repr(surface.crossworld_cdf(y, x, x).tolist()) == repr(
                surface.cdf_y_given_x(y, x).tolist())
            assert model.crossworld_cdf(y, x, x) == model.cdf_y_given_x(y, x)
    assert 2**53 < math.prod(big.tolist()[:2])


@pytest.mark.filterwarnings("ignore::pocmed.MediatorMonotonicityWarning")
@pytest.mark.parametrize("seed", range(8))
def test_wrapper_that_changes_its_family_runs_on_row_copies(seed):
    """``functools.wraps`` copies the ``estimand`` marker.  A wrapper that
    returns its family's result unchanged is bootstrapped from the count
    matrix, with what the row loop over row copies gives for it; one that
    drops keys of the result or changes its values runs once and is
    rejected with ValueError, alone or first in a mapping."""
    data, targets, cfg = _CASES["random"](seed)
    calls = Counter()

    def wrapped(name, change):
        fn = targets[name]

        @functools.wraps(fn)
        def wrapper(d):
            calls[name] += 1
            return change(fn(d))

        return wrapper

    wrappers = {
        "pns": wrapped("pns", lambda r: {"t_pns": r["t_pns"]}),
        "cd": wrapped("cd", lambda r: {"cd_pns": 1.0 - r["cd_pns"]}),
        "pn": wrapped("pn", dict),
    }
    for name in ("pns", "cd"):
        family = _outcome(lambda: targets[name](data))
        calls.clear()
        if isinstance(family, tuple):  # the family itself fails on the full data
            assert _outcome(lambda: pm.bootstrap_ci(data, wrappers[name], cfg)) == family
            continue
        with pytest.raises(ValueError, match=f"its '{targets[name].estimand.kind}' family's"):
            pm.bootstrap_ci(data, wrappers[name], cfg)
        assert calls == Counter({name: 1})
        with pytest.raises(ValueError, match=f"target '{name}'"):
            pm.bootstrap_ci(data, {name: wrappers[name], "pn": wrappers["pn"]}, cfg)

    want = _outcome(lambda: row_bootstrap_ci(data, wrappers["pn"], cfg))
    calls.clear()
    got = _outcome(lambda: pm.bootstrap_ci(data, wrappers["pn"], cfg))
    assert got == want
    if not isinstance(want, tuple):
        assert calls == Counter(pn=1)


def test_batched_bootstrap_work_does_not_grow_with_replicates(monkeypatch):
    """Estimator targets run once, on one CdfModel of the full data, however
    many replicates are drawn, also when wrapped with ``functools.wraps``,
    and no resample is copied row by row; a plain callable is refused
    before anything runs."""
    data = pm.sample_observational(pm.logistic_bernoulli_preset(), 400, seed=1)
    q = pm.Query(x_base=0.0, x_alt=1.0, y_threshold=1.0, m_fixed=1.0)
    builds, takes, calls = [], [], Counter()
    build, take = pm.CdfModel.__init__, pm.Dataset.take

    def counted_build(self, *args, **kwargs):
        builds.append(args)
        build(self, *args, **kwargs)

    def counted_take(self, indices):
        takes.append(indices)
        return take(self, indices)

    def traced(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pm.CdfModel, "__init__", counted_build)
    monkeypatch.setattr(pm.Dataset, "take", counted_take)
    for replicates in (2, 40, 300):
        cfg = pm.BootstrapConfig(replicates=replicates, level=0.9, seed=replicates)
        targets = {kind: traced(kind, pm.estimator_target(kind, q))
                   for kind in ("natural", "cd", "pn", "ps")}
        builds.clear(), takes.clear(), calls.clear()
        pm.bootstrap_ci(data, targets, cfg)
        assert (len(builds), len(takes)) == (1, 0)
        assert calls == Counter(dict.fromkeys(targets, 1))

        builds.clear(), calls.clear()
        with pytest.raises(TypeError, match="estimator_target"):
            pm.bootstrap_ci(data, {"natural": targets["natural"], "rows": lambda d: {"n": d.n}},
                            cfg)
        with pytest.raises(TypeError, match="estimator_target"):
            pm.bootstrap_ci(data, lambda d: {"n": d.n}, cfg)
        assert (len(builds), len(takes), sum(calls.values())) == (0, 0, 0)


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


def test_estimate_stratum_copies_no_rows(jobs_dir, monkeypatch, capsys):
    def no_row_copies(self, indices):
        raise AssertionError("Dataset.take called")

    monkeypatch.setattr(pm.Dataset, "take", no_row_copies)
    for replicates in ("0", "2", "40"):
        # the query is validated on the stratum's mask, not on a row copy
        code = main(["estimate", *_JOBS, "--c-cols", "econ_hard", "--stratum", "1",
                     "--m-fixed", "3", "--families", "pns,cd,pn,ps",
                     "--replicates", replicates])
        assert code == 0, capsys.readouterr().err
