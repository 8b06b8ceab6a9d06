"""Ordered data layer: loading, stratification, intervals, evidence."""

import io
import itertools
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pocmed as pm
from pocmed import data as data_module
from pocmed.cli import main
from pocmed.errors import (
    EmptyDataError,
    InvalidEvidenceError,
    ParseError,
    PocError,
    PositivityError,
    SchemaError,
)

ROLES = pm.ColumnRoles("x", "m", "y")


def test_load_small_table():
    text = "x,m,y\n0,0,1.5\n0,1,2.0\n1,0,0.5\n1,1,3.25\n"
    data = pm.load_dataset(text, ROLES)
    assert data.n == 4
    assert set(np.unique(data.x)) == {0.0, 1.0}
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


def test_leading_byte_order_mark_is_dropped(tmp_path):
    # a spreadsheet's UTF-8 BOM used to become part of the first column name
    text = "x,m,y\n0,0,1\n1,1,0\n"
    want = pm.load_dataset(text, ROLES)
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    sources = [
        str(path),
        path,
        path.read_bytes(),
        "\ufeff" + text,
        io.BytesIO(path.read_bytes()),
        io.StringIO("\ufeff" + text),
    ]
    for source in sources:
        assert pm.load_dataset(source, ROLES).equals(want), source
    # only one mark is dropped; a second one is part of the name
    with pytest.raises(SchemaError, match="ufeffx"):
        pm.load_dataset("\ufeff\ufeff" + text, ROLES)


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


def test_long_row_rejected():
    # an extra cell used to be dropped silently
    with pytest.raises(ParseError, match="line 2: expected 3 cells, got 4"):
        pm.load_dataset("x,m,y\n0,0,1,9\n0,1,1\n", ROLES)
    with pytest.raises(ParseError, match="line 4: expected 3 cells, got 4"):
        pm.load_dataset("x,m,y\n0,0,1\n\n1,1,0,\n", ROLES)


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
    assert set(np.unique(data.x)) == {0.0, 1.0}


def test_round_trip():
    text = "x,m,y\n0,0,1.25\n1,1,-3.5\n1,0,0.1\n"
    data = pm.load_dataset(text, ROLES)
    again = pm.load_dataset(data.to_csv(), ROLES)
    assert data.equals(again)


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-5, 1e16,
                -1e16, 0.1, 1.7976931348623157e308]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            *[st.one_of(st.sampled_from(_EDGE_FLOATS),
                        st.floats(allow_nan=False, allow_infinity=False))] * 4
        ),
        min_size=1,
        max_size=40,
    )
)
def test_csv_round_trip_is_bit_exact(rows):
    cols = np.array(rows, dtype=np.float64)
    roles = pm.ColumnRoles("x", "m", "y", ("c",))
    data = pm.Dataset(dict(zip(("x", "m", "y", "c"), cols.T)), roles)
    text = data.to_csv()
    assert text == "x,m,y,c\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in cols
    )
    again = pm.load_dataset(text, roles)
    for name in roles.all_columns:
        assert np.array_equal(again.column(name).view(np.int64),
                              data.column(name).view(np.int64))


def _per_row_csv(data):
    columns = [data.column(name) for name in data.column_names]
    return ",".join(data.column_names) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns)
    )


def _spy_row_ids(monkeypatch):
    calls = []
    real = data_module._row_ids
    monkeypatch.setattr(data_module, "_row_ids", lambda coded: calls.append(1) or real(coded))
    return calls


@pytest.mark.parametrize("n", [1, data_module._CSV_BLOCK_ROWS - 1,
                               data_module._CSV_BLOCK_ROWS + 1, 3 * data_module._CSV_BLOCK_ROWS])
def test_to_csv_matches_per_row_reference(n, monkeypatch):
    # few distinct rows, each written in many places, with both zero
    # spellings in one column: the lines are gathered from the distinct rows
    rng = np.random.default_rng(n)
    data = pm.Dataset({"x": rng.choice([0.0, -0.0, 1.0], n), "m": rng.choice([0.5, -2.0], n),
                       "y": rng.choice(_EDGE_FLOATS, n)}, ROLES)
    if n > 1:
        assert {repr(v) for v in data.x.tolist()} == {"0.0", "-0.0", "1.0"}
    calls = _spy_row_ids(monkeypatch)
    assert data.to_csv() == _per_row_csv(data)
    assert calls == [1]


def test_to_csv_matches_per_row_reference_past_the_key_space(monkeypatch):
    # seven columns of 600 distinct values each could form far more rows
    # than the table has (past 2**63 even), so each row is joined as its own
    rng = np.random.default_rng(5)
    names = [f"c{i}" for i in range(7)]
    columns = {name: rng.standard_normal(600) for name in names}
    columns["c0"][:2] = [0.0, -0.0]
    data = pm.Dataset(columns, pm.ColumnRoles("c0", "c1", "c2", tuple(names[3:])))
    assert math.prod(np.unique(c).size for c in columns.values()) >= 1 << 63
    calls = _spy_row_ids(monkeypatch)
    assert data.to_csv() == _per_row_csv(data)
    assert calls == []


def test_to_csv_keeps_each_zero_spelling():
    data = pm.Dataset({"x": [0.0, -0.0, 0.0], "m": [-0.0, -0.0, 5e-324],
                       "y": [1e16, 1e-5, -0.0]}, ROLES)
    assert data.to_csv() == "x,m,y\n0.0,-0.0,1e+16\n-0.0,-0.0,1e-05\n0.0,5e-324,-0.0\n"


_FUZZ_CELLS = ["0", "1", "-0.0", " 2 ", "3.5\t", "1_0", "1e5", "5e-324", "nan", "inf",
               "-Infinity", "1e400", "oops", "", " ", "0x1", "1,5"]


@st.composite
def _csv_text(draw):
    header = draw(st.sampled_from(["x,m,y", " x , m ,y", "id,x,m,y", "x,m,y,x"]))
    width = len(header.split(","))
    clean_text = draw(st.booleans())
    lines = [header]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank"] * 2 + ["short", "long"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        k = width + {"row": 0, "short": -1, "long": 1}[kind]
        clean = clean_text or draw(st.booleans())
        cells = st.sampled_from(["0", "1", "-0.0", "2.5", " 4 "] if clean else _FUZZ_CELLS)
        lines.append(",".join(draw(st.lists(cells, min_size=k, max_size=k))))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def _outcome(fn):
    try:
        return fn()
    except PocError as exc:
        return type(exc), str(exc)


def _per_cell_outcome(text):
    """What the per-cell reader makes of ``text``: a Dataset, or the error
    type and message.  A header that names a role column twice is refused
    before any row is read."""
    lines = text.splitlines()
    header = [h.strip() for h in lines[0].split(",")]
    names = ROLES.all_columns

    def read():
        repeated = [c for c in names if header.count(c) > 1]
        if repeated:
            raise SchemaError(
                f"role columns {repeated!r} appear more than once in header {header!r}")
        index = [header.index(c) for c in names]
        columns = data_module._parse_per_cell(lines, len(header), index, names)
        return pm.Dataset(dict(zip(names, columns)), ROLES)

    return _outcome(read)


def _assert_same_outcome(got, want, text):
    if isinstance(want, tuple):
        assert got == want, repr(text)
        return
    assert isinstance(got, pm.Dataset), (repr(text), got)
    for name in ROLES.all_columns:
        assert np.array_equal(got.column(name).view(np.int64),
                              want.column(name).view(np.int64)), repr(text)


@settings(max_examples=300, deadline=None)
@given(_csv_text())
def test_bulk_parse_matches_per_cell(text):
    loaded = _outcome(lambda: pm.load_dataset(text.encode("utf-8"), ROLES))
    _assert_same_outcome(loaded, _per_cell_outcome(text), text)


def _loader_characters():
    """Every ASCII character, and every code point that is whitespace, a
    decimal digit or a line boundary to ``str.splitlines``."""
    chars = [chr(c) for c in range(128)]
    for c in range(128, 0x110000):
        ch = chr(c)
        if ch.isspace() or ch.isdecimal() or len(("a" + ch + "b").splitlines()) == 2:
            chars.append(ch)
    return chars


def test_loader_matches_per_cell_for_every_character():
    # the C reader and the per-cell reader must agree on every character
    # wherever it sits: the load gives the per-cell values bit for bit, or
    # the per-cell error
    chars = _loader_characters()
    assert {"\x1c", "\x1f", "\x85", " ", "\u0661", "\u3000"} <= set(chars)
    for ch in chars:
        rows = [
            f"0,{ch}1,2,9",    # before a role cell
            f"0,1{ch},2,9",    # after it
            f"0,1{ch}5,2,9",   # inside it
            f"0,1,2,9{ch}",    # in a column without a role
            ch,                # as a line of its own
        ]
        for row in rows:
            text = f"x,m,y,z\n0.5,-0.0,3,1\n{row}\n4,1e-5,2.5,7\n"
            want = _per_cell_outcome(text)
            _assert_same_outcome(_outcome(lambda: pm.load_dataset(text, ROLES)), want, text)


_EDGE_TEXTS = [
    "x,m,y\n1\x1f,0,0\n",          # 1.0 to both readers; bare float("1\x1f") raises
    "x,m,y\n0\x1c,0,0\n",          # one row to numpy, two lines to splitlines
    "x,m,y\r0,0,1\r1,-0.0,0\r",    # lone carriage returns
    "x,m,y\r0,0,1\n1,1,0\r\n",
    "x,m,y\n0,0,1\r\r\n1,1,0\n",
    "\ufeffx,m,y\r\n0,0,1\r\n1,1,0\r\n",
    "x,m,y\n0,0,1#\n1,1,0\n",      # "#" is not a comment
    "x,m,y\n#0,0,1\n1,1,0\n",
    "x,m,y\n0,0,1\n  \n1,1,0\n",   # a blank row of spaces
    "x,m,y\n0,0,1\n\t\n",
    "x,m,y\n1_0,0,1\n",
    "x,m,y\n\u0661,0,1\n",
    "x,m,y\n1,0,nan\n",
    "x,m,y\n1,0,1e400\n",
    "x,m,y\n1,0,\n",
    "x,m,y\n1,0,1,\n",
    'x,m,y\n"1",0,1\n',
    "x,m,y,z\n0,0,1,Zoë\n1,1,0,\u00e9\u2603\n",   # non-ASCII text without a role
    "id,x,m,y\nr1,0,0,1\nr2,1,1,0\n",             # a text first column
    "id,x,m,y\nr1,0,0,1\nr2,1,1,0,9\n",           # an extra cell after a text ID
]


@pytest.mark.parametrize("text", _EDGE_TEXTS)
def test_loader_matches_per_cell_on_edge_texts(text):
    want = _per_cell_outcome(text.removeprefix("\ufeff"))
    for source in (text, text.encode("utf-8")):
        _assert_same_outcome(_outcome(lambda: pm.load_dataset(source, ROLES)), want, text)


_HEADER_ONLY_TEXTS = ["x,m,y\n", "x,m,y", "x,m,y\r\n\r\n  \n\t\r\n", "x,m,y\r"]


@pytest.mark.parametrize("text", _HEADER_ONLY_TEXTS)
def test_header_only_table_warns_nothing(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyDataError, match="a header but no data rows"):
            pm.load_dataset(text.encode("utf-8"), ROLES)


def _strict_outcome(source):
    """:func:`_outcome` of loading ``source`` with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _outcome(lambda: pm.load_dataset(source, ROLES))


@pytest.mark.parametrize("text", _EDGE_TEXTS + _HEADER_ONLY_TEXTS)
def test_file_sources_match_per_cell(tmp_path, text):
    # numpy reads a regular file again by its path; a plain file named *.gz
    # stays in memory, as numpy would try to decompress it
    want = _per_cell_outcome(text.removeprefix("\ufeff"))
    plain, gz = tmp_path / "table.csv", tmp_path / "table.csv.gz"
    for path in (plain, gz):
        path.write_bytes(text.encode("utf-8"))
        for source in (str(path), path):
            _assert_same_outcome(_strict_outcome(source), want, text)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
@pytest.mark.parametrize("text", _EDGE_TEXTS + _HEADER_ONLY_TEXTS)
def test_pipe_sources_match_per_cell(text):
    # a pipe gives its text once, so it must stay in memory
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, text.encode("utf-8"))
        os.close(write_end)
        got = _strict_outcome(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    _assert_same_outcome(got, _per_cell_outcome(text.removeprefix("\ufeff")), text)


@pytest.mark.parametrize("raw, at", [
    (b"x,m,y\n0,0,\xff\n", 10),
    (b"\xef\xbb\xbfx,m,y\n\xe9,0,1\n", 9),   # counted from the byte-order mark
    (b"x,m,y\n0,0,1\xc3", 11),                # a sequence cut short by the end
])
def test_table_not_utf8_raises_parse_error_naming_the_byte(tmp_path, raw, at):
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    for source in (raw, path, str(path), io.BytesIO(raw)):
        with pytest.raises(ParseError, match=f"^byte {at}: 0x{raw[at]:02x} is not UTF-8 text$"):
            pm.load_dataset(source, ROLES)


def test_clean_tables_take_the_c_reader(tmp_path, monkeypatch):
    # a silent fall back to the per-cell reader would keep every result and
    # lose the speed, so the loads here must never reach it
    path = tmp_path / "sim.csv"
    assert main(["simulate", "--preset", "logistic-bernoulli", "--n", "500",
                 "--seed", "3", "--out", str(path)]) == 0
    text = path.read_text()
    rng = np.random.default_rng(0)
    floats = pm.Dataset(
        {name: rng.choice(_EDGE_FLOATS, 200) * rng.choice([1.0, -1.0], 200)
         for name in ROLES.all_columns},
        ROLES,
    )
    lines = text.splitlines()

    def add_column(name, cell, last=False):
        rows = [(name, lines[0])] + [(cell(i), line) for i, line in enumerate(lines[1:])]
        return "".join(f"{line},{new}\n" if last else f"{new},{line}\n" for new, line in rows)

    with_text = {
        "ASCII id": add_column("id", lambda i: f"r{i}"),
        "UTF-8 id": add_column("id", lambda i: f"Zoë{i}"),
        "text column last": add_column("note", lambda i: f"n{i}", last=True),
    }
    calls, sources = [], []
    real = data_module._parse_per_cell
    monkeypatch.setattr(data_module, "_parse_per_cell",
                        lambda *args: calls.append(args) or real(*args))
    real_loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda source, *args, **kwargs: sources.append(source)
                        or real_loadtxt(source, *args, **kwargs))
    simulated = pm.load_dataset(path, ROLES)
    # numpy is given the file's absolute path, so it reads in chunks
    assert sources == [os.path.abspath(path)]
    _assert_same_outcome(pm.load_dataset(text.replace("\n", "\r\n"), ROLES), simulated, "crlf")
    _assert_same_outcome(pm.load_dataset(floats.to_csv(), ROLES), floats, "to_csv")
    for where, table in with_text.items():
        _assert_same_outcome(pm.load_dataset(table, ROLES), simulated, where)
    assert calls == []
    assert all(isinstance(source, io.StringIO) for source in sources[1:])


@pytest.mark.parametrize("field", ["x_base", "x_alt", "y_threshold", "m_fixed", "c_stratum"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_query_rejects_non_finite_numbers(field, bad):
    fields = {"x_base": 0.0, "x_alt": 1.0, "y_threshold": 1.0}
    fields[field] = (0.0, bad) if field == "c_stratum" else bad
    with pytest.raises(InvalidEvidenceError, match=f"{field} must be a finite number"):
        pm.Query(**fields)


@pytest.mark.parametrize("field", ["x_star", "m_star"])
def test_evidence_rejects_non_finite_numbers(field):
    fields = {"x_star": 1.0, "interval_y": pm.Interval.full(), field: math.nan}
    with pytest.raises(InvalidEvidenceError, match=f"{field} must be a finite number"):
        pm.Evidence(**fields)


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


def test_interval_contains_rows_as_scalars():
    """On an array ``contains`` answers, row by row, what it answers for each
    value alone, which for a float is a plain bool: open and closed upper
    ends, infinite ends, both zeros and NaN."""
    inf = math.inf
    values = np.array([-inf, -1.0, -0.0, 0.0, 0.5, 1.0, 1.5, inf, math.nan])
    for lo, hi, closed in itertools.product((-inf, -0.0, 0.0, 1.0), (-0.0, 0.0, 1.0, inf),
                                            (False, True)):
        if lo > hi or (lo == hi and not closed) or math.isinf(lo) and lo == hi:
            continue
        iv = pm.Interval(lo, hi, upper_closed=closed)
        want = [iv.contains(v) for v in values.tolist()]
        assert all(type(w) is bool for w in want) and not want[-1], iv
        got = iv.contains(values)
        assert got.dtype == bool and got.tolist() == want, iv
    assert pm.Interval(0.0, 1.0).contains(values).tolist() == [
        False, False, True, True, True, False, False, False, False]
    assert pm.Interval(-0.0, 1.0, upper_closed=True).contains(values).tolist() == [
        False, False, True, True, True, True, False, False, False]


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
