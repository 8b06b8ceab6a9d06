"""Ordered data layer: loading, stratification, intervals, evidence."""

import itertools

import numpy as np
import pytest

import pocmed as pm
from pocmed.cli import main
from pocmed.errors import (
    EmptyDataError,
    InvalidEvidenceError,
    ParseError,
    PositivityError,
    SchemaError,
)

ROLES = pm.ColumnRoles("x", "m", "y")


def test_load_small_table():
    text = "x,m,y\n0,0,1.5\n0,1,2.0\n1,0,0.5\n1,1,3.25\n"
    data = pm.load_dataset(text, ROLES)
    assert data.n == 4
    assert set(data.x_support()) == {0.0, 1.0}
    assert data.y[3] == 3.25


def test_load_from_bytes_and_file(tmp_path):
    text = "x,m,y\n0,0,1\n1,1,2\n"
    from_bytes = pm.load_dataset(text.encode("utf-8"), ROLES)
    path = tmp_path / "t.csv"
    path.write_text(text)
    from_path = pm.load_dataset(str(path), ROLES)
    assert from_bytes.equals(from_path)


def test_path_with_commas_is_a_path(tmp_path):
    # a path string used to be taken for CSV text as soon as it held a comma
    folder = tmp_path / "dir,with,comma"
    folder.mkdir()
    path = folder / "data.csv"
    path.write_text("x,m,y\n0,0,0\n0,1,1\n1,0,1\n1,1,1\n")
    from_str = pm.load_dataset(str(path), ROLES)
    assert from_str.n == 4
    assert pm.load_dataset(path, ROLES).equals(from_str)
    code = main(["estimate", "--input", str(path), "--x-base", "0", "--x-alt", "1",
                 "--y", "1", "--replicates", "0"])
    assert code == 0


def test_parse_error_names_line():
    text = "x,m,y\n0,0,1\n0,1,oops\n"
    with pytest.raises(ParseError, match="line 3"):
        pm.load_dataset(text, ROLES)


def test_missing_role_column():
    with pytest.raises(SchemaError, match="missing role columns"):
        pm.load_dataset("x,m\n0,0\n", ROLES)


def test_empty_table():
    with pytest.raises(EmptyDataError):
        pm.load_dataset("x,m,y\n", ROLES)


def test_ragged_row_rejected():
    with pytest.raises(ParseError, match="line 3"):
        pm.load_dataset("x,m,y\n0,0,1\n0,0\n", ROLES)


def test_extra_columns_ignored_and_order_preserved():
    text = "id,x,m,y\n9,0,0,5\n8,1,1,6\n"
    data = pm.load_dataset(text, ROLES)
    assert data.n == 2
    assert list(data.y) == [5.0, 6.0]


def test_job_training_shaped_table():
    # 899 rows shaped like the job-search study export: columns treat,
    # job_seek, depress2 mapped onto treatment / mediator / outcome roles
    rng = np.random.default_rng(0)
    n = 899
    lines = ["treat,job_seek,depress2"]
    for i in range(n):
        lines.append(
            f"{rng.integers(0, 2)},{rng.integers(1, 6)},{rng.uniform(1, 4):.3f}"
        )
    roles = pm.ColumnRoles("treat", "job_seek", "depress2")
    data = pm.load_dataset("\n".join(lines) + "\n", roles)
    assert data.n == 899
    assert set(data.x_support()) == {0.0, 1.0}


def test_round_trip():
    text = "x,m,y\n0,0,1.25\n1,1,-3.5\n1,0,0.1\n"
    data = pm.load_dataset(text, ROLES)
    again = pm.load_dataset(data.to_csv(), ROLES)
    assert data.equals(again)


def test_columns_read_only(tiny_dataset):
    with pytest.raises(ValueError):
        tiny_dataset.x[0] = 5.0


def test_total_order_axioms():
    # reflexive, transitive, antisymmetric, total on loaded values
    data = pm.load_dataset("x,m,y\n0,0,1.5\n0,1,2.0\n1,0,0.5\n1,1,1.5\n", ROLES)
    values = sorted(set(float(v) for v in data.y))
    for a in values:
        assert a <= a
    for a, b, c in itertools.product(values, repeat=3):
        if a <= b and b <= c:
            assert a <= c
    for a, b in itertools.product(values, repeat=2):
        if a <= b and b <= a:
            assert a == b
        assert a <= b or b <= a
        assert (not (a <= b)) == (a > b)


# -- stratification -----------------------------------------------------------


def _covariate_dataset():
    cols = {
        "x": np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0]),
        "m": np.zeros(6),
        "y": np.arange(6, dtype=float),
        "g": np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0]),
    }
    return pm.Dataset(cols, pm.ColumnRoles("x", "m", "y", ("g",)))


def test_stratify_identity_without_covariates(tiny_dataset):
    assert pm.stratify(tiny_dataset, None) is tiny_dataset
    assert pm.stratify(tiny_dataset, ()) is tiny_dataset


def test_stratify_selects_matching_rows():
    data = _covariate_dataset()
    sub = pm.stratify(data, (1.0,))
    assert sub.n == 3
    assert np.all(sub.column("g") == 1.0)


def test_stratify_idempotent():
    data = _covariate_dataset()
    once = pm.stratify(data, (0.0,))
    twice = pm.stratify(once, (0.0,))
    assert once.equals(twice)


def test_stratify_empty_stratum():
    with pytest.raises(PositivityError):
        pm.stratify(_covariate_dataset(), (7.0,))


def test_stratify_wrong_arity():
    with pytest.raises(SchemaError):
        pm.stratify(_covariate_dataset(), (0.0, 1.0))


# -- intervals and evidence ----------------------------------------------------


def test_interval_validation():
    iv = pm.Interval(1.0, 2.0)
    assert iv.contains(1.0) and not iv.contains(2.0)
    closed = pm.Interval(1.0, 2.0, upper_closed=True)
    assert closed.contains(2.0)
    with pytest.raises(InvalidEvidenceError):
        pm.Interval(2.0, 1.0)
    with pytest.raises(InvalidEvidenceError):
        pm.Interval(1.0, 1.0)  # empty half-open point
    point = pm.Interval.point(1.0)
    assert point.contains(1.0) and not point.contains(1.0001)
    with pytest.raises(InvalidEvidenceError):
        pm.Interval.point(float("inf"))


def test_evidence_kinds():
    iy = pm.Interval(0.0, 2.0)
    assert pm.Evidence(x_star=1, interval_y=iy).kind == "outcome-only"
    assert pm.Evidence(x_star=1, interval_y=iy, m_star=2.0).kind == "point-mediator"
    assert (
        pm.Evidence(x_star=1, interval_y=iy, interval_m=pm.Interval(0, 1)).kind
        == "interval-mediator"
    )
    with pytest.raises(InvalidEvidenceError):
        pm.Evidence(x_star=1, interval_y=iy, m_star=1.0, interval_m=pm.Interval(0, 1))
