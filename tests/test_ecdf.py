"""Empirical conditional CDF estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pocmed as pm
from pocmed.ecdf import _distinct_rows
from pocmed.errors import PositivityError

from _distinct_rows_reference import lexsort_distinct_rows
from conftest import S1, S15, S2

INF = float("inf")


def _dataset(rows):
    arr = np.asarray(rows, dtype=float)
    cols = {"x": arr[:, 0], "m": arr[:, 1], "y": arr[:, 2]}
    return pm.Dataset(cols, pm.ColumnRoles("x", "m", "y"))


def test_cdf_given_x():
    model = pm.CdfModel(_dataset([(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 0, 1)]))
    assert model.cdf_y_given_x(1.0, 0) == 0.5
    assert model.cdf_y_given_x(-10.0, 0) == 0.0
    assert model.cdf_y_given_x(INF, 0) == 1.0
    assert model.cdf_y_given_x(1.0, 0, strict=False) == 1.0


def test_cdf_given_xm():
    model = pm.CdfModel(_dataset([(0, 0, 0), (0, 0, 1), (0, 1, 1)]))
    assert model.cdf_y_given_xm(1.0, 0, 0) == 0.5
    assert model.cdf_y_given_xm(1.0, 0, 1) == 0.0
    assert model.cdf_y_given_xm(1.0, 0, 1, strict=False) == 1.0


def test_positivity_errors():
    model = pm.CdfModel(_dataset([(0, 0, 0), (1, 1, 1)]))
    with pytest.raises(PositivityError):
        model.cdf_y_given_x(0.5, 2)
    with pytest.raises(PositivityError):
        model.cdf_y_given_xm(0.5, 0, 1)


def test_mediator_pmf():
    model = pm.CdfModel(_dataset([(1, 0, 0), (1, 1, 0), (1, 1, 0)]))
    assert model.mediator_pmf(1, 1) == pytest.approx(2 / 3)
    assert model.mediator_pmf(5, 1) == 0.0


def test_joint_cdf():
    model = pm.CdfModel(_dataset([(1, 0, 0), (1, 1, 1)]))
    assert model.joint_cdf_ym_given_x(INF, INF, 1) == 1.0
    assert model.joint_cdf_ym_given_x(-1, 0, 1) == 0.0
    assert model.joint_cdf_ym_given_x(1, 1, 1) == 0.5
    assert model.joint_cdf_ym_given_x(1.0, INF, 1) == model.cdf_y_given_x(1.0, 1)


def test_crossworld_identity_same_arm():
    model = pm.CdfModel(
        _dataset([(0, 0, 0), (0, 1, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0)])
    )
    for y in (-1.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        assert model.crossworld_cdf(y, 0, 0) == model.cdf_y_given_x(y, 0)


def test_crossworld_degenerate_mediator():
    model = pm.CdfModel(_dataset([(0, 3, 0), (0, 3, 1), (1, 3, 1)]))
    assert model.crossworld_cdf(1.0, 0, 1) == model.cdf_y_given_xm(1.0, 0, 3)


def test_crossworld_missing_cell_names_mediator():
    model = pm.CdfModel(_dataset([(0, 0, 0), (1, 1, 1), (1, 0, 1)]))
    with pytest.raises(PositivityError, match="1.0"):
        model.crossworld_cdf(1.0, 0, 1)


def test_infinite_sample_limits(preset_analytic):
    # analytic conditional CDFs of the preset model
    assert preset_analytic.cdf_y_given_xm(1.0, 0, 1) == pytest.approx(1 - S15, abs=1e-15)
    assert preset_analytic.cdf_y_given_xm(1.0, 1, 1) == pytest.approx(1 - S2, abs=1e-15)
    assert preset_analytic.mediator_pmf(1.0, 1) == pytest.approx(S15, abs=1e-15)
    expected_rho = (1 - S1) * (1 - S15) + (1 - S15) * S15
    assert preset_analytic.crossworld_cdf(1.0, 0, 1) == pytest.approx(
        expected_rho, abs=1e-12
    )


# -- properties over random small datasets --------------------------------------


@st.composite
def small_datasets(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    x = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    m = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    y = draw(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=n, max_size=n
        )
    )
    rows = list(zip(map(float, x), map(float, m), y))
    return _dataset(rows)


@given(small_datasets(), st.floats(min_value=-6, max_value=6, allow_nan=False))
@settings(max_examples=120, deadline=None)
def test_cdf_properties(data, y):
    model = pm.CdfModel(data)
    for x in model.x_levels():
        strict = model.cdf_y_given_x(y, x)
        loose = model.cdf_y_given_x(y, x, strict=False)
        assert 0.0 <= strict <= loose <= 1.0
        assert model.cdf_y_given_x(-INF, x) == 0.0
        assert model.cdf_y_given_x(INF, x) == 1.0
        assert model.cdf_y_given_x(y - 0.5, x) <= strict
        total = sum(model.mediator_pmf(mv, x) for mv in model.mediator_support(x))
        assert abs(total - 1.0) <= 1e-12
        assert model.joint_cdf_ym_given_x(y, INF, x) == model.cdf_y_given_x(y, x)


@given(small_datasets(), st.floats(min_value=-6, max_value=6, allow_nan=False))
@settings(max_examples=120, deadline=None)
def test_crossworld_bounds_and_identity(data, y):
    model = pm.CdfModel(data)
    levels = model.x_levels()
    for x_alt in levels:
        for x_base in levels:
            try:
                value = model.crossworld_cdf(y, x_base, x_alt)
            except PositivityError:
                continue
            cells = [
                model.cdf_y_given_xm(y, x_base, mv)
                for mv in model.mediator_support(x_alt)
            ]
            assert min(cells) - 1e-12 <= value <= max(cells) + 1e-12
        assert model.crossworld_cdf(y, x_alt, x_alt) == model.cdf_y_given_x(y, x_alt)


def _assert_same_distinct_rows(columns):
    keys, ids = _distinct_rows(columns)
    want_keys, want_ids = lexsort_distinct_rows(columns)
    assert np.array_equal(ids, want_ids)
    assert len(keys) == len(want_keys)
    for got, want in zip(keys, want_keys):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("seed", range(40))
def test_distinct_rows_matches_lexsort_reference(seed):
    # few rows with many levels take the np.unique ranking, many rows with
    # few levels the dense one; -0.0 and 0.0 are one value whose stored
    # spelling is that of the tuple's first row
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    width = int(rng.integers(1, 5))
    pool = np.array([-0.0, 0.0, 1.0, -1.5, 2.0, 1e300, -5e-324, 7.25])
    levels = int(rng.integers(1, pool.size + 1))
    columns = [rng.choice(pool[:levels], size=n) for _ in range(width)]
    _assert_same_distinct_rows(columns)


def test_distinct_rows_edge_shapes():
    _assert_same_distinct_rows([np.array([-0.0])])
    _assert_same_distinct_rows([np.array([3.0]), np.array([-0.0]), np.array([0.0])])
    _assert_same_distinct_rows([np.array([0.0, -0.0, 2.0, -0.0, 0.0, 2.0])])
    zeros = np.array([-0.0, 0.0, -0.0])
    _assert_same_distinct_rows([zeros, zeros[::-1].copy(), zeros, zeros])


def test_distinct_rows_key_space_beyond_int64():
    # four all-distinct columns of 60000 levels: 60000**4 > 2**63, so the
    # key is re-ranked before the last radix product
    n = 60_000
    assert n**4 > 2**63
    rng = np.random.default_rng(1)
    columns = [rng.permutation(n) * 0.5 - 7.0 for _ in range(4)]
    _assert_same_distinct_rows(columns)
