"""Command-line interface: exit codes, determinism, report schema."""

import dataclasses
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pocmed as pm
from pocmed import _fork, bootstrap, cli, identify, verification
from pocmed.cli import main
from pocmed.ecdf import RowCounts
from pocmed.errors import PocError


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sim.csv"
    assert (
        main(
            [
                "simulate",
                "--preset",
                "logistic-bernoulli",
                "--n",
                "1500",
                "--seed",
                "7",
                "--out",
                str(path),
            ]
        )
        == 0
    )
    return str(path)


def test_simulate_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = _run(
            capsys,
            "simulate", "--preset", "logistic-bernoulli",
            "--n", "200", "--seed", "11", "--out", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 201


def test_simulate_rejects_zero_rows(capsys):
    code, _, err = _run(
        capsys, "simulate", "--preset", "logistic-bernoulli", "--n", "0"
    )
    assert code == 2 and "error" in err


def test_simulate_unknown_preset(capsys):
    code, _, err = _run(capsys, "simulate", "--preset", "nope", "--n", "5")
    assert code == 2


def test_estimate_report_schema_and_determinism(sim_csv, tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = [
        "estimate", "--input", sim_csv,
        "--x-base", "0", "--x-alt", "1", "--y", "1",
        "--replicates", "150", "--seed", "3", "--format", "json",
    ]
    code, stdout1, _ = _run(capsys, *argv, "--out", str(out1))
    assert code == 0
    code, stdout2, _ = _run(capsys, *argv, "--out", str(out2))
    assert code == 0
    assert stdout1 == stdout2
    assert out1.read_bytes() == out2.read_bytes()

    report = json.loads(stdout1)
    assert out1.read_text(encoding="utf-8") == stdout1
    assert report["version"] == pm.__version__
    assert report["seed"] == 3
    block = report["queries"][0]
    quantities = block["families"]["pns"]["quantities"]
    for key in ("t_pns", "nd_pns", "ni_pns"):
        entry = quantities[key]
        assert 0.0 <= entry["ci_lower"] <= entry["ci_upper"] <= 1.0
        assert entry["point"] == pytest.approx(
            entry["point"], abs=0.0
        )  # finite round-trip
    assert (
        quantities["t_pns"]["point"]
        == pytest.approx(
            quantities["nd_pns"]["point"] + quantities["ni_pns"]["point"], abs=1e-12
        )
    )


def test_estimate_with_evidence_and_families(sim_csv, capsys):
    code, stdout, _ = _run(
        capsys,
        "estimate", "--input", sim_csv,
        "--x-base", "0", "--x-alt", "1", "--y", "1", "--m-fixed", "1",
        "--families", "pns,cd,pn,ps",
        "--evidence-x", "1", "--evidence-m", "1",
        "--y-interval", "1,1", "--y-upper-closed",
        "--replicates", "100", "--seed", "5", "--format", "json",
    )
    assert code == 0
    block = json.loads(stdout)["queries"][0]
    assert set(block["families"]) == {"pns", "cd", "pn", "ps"}
    assert block["families"]["pns"]["case_flag"] in ("A", "B")
    assert block["query"]["evidence"]["x_star"] == 1.0
    # point evidence on the alt arm at the threshold equals the necessity family
    pns_q = block["families"]["pns"]["quantities"]
    pn_q = block["families"]["pn"]["quantities"]
    assert pns_q["t_pns"]["point"] == pytest.approx(pn_q["t_pn"]["point"], abs=1e-12)


def test_estimate_job_training_shape(tmp_path, capsys):
    rng = np.random.default_rng(1)
    lines = ["treat,job_seek,depress2"]
    for _ in range(899):
        lines.append(
            f"{rng.integers(0, 2)},{rng.integers(1, 6)},{rng.uniform(1, 4):.3f}"
        )
    path = tmp_path / "jobs.csv"
    path.write_text("\n".join(lines) + "\n")
    code, stdout, _ = _run(
        capsys,
        "estimate", "--input", str(path),
        "--x-col", "treat", "--m-col", "job_seek", "--y-col", "depress2",
        "--x-base", "0", "--x-alt", "1", "--y", "3",
        "--evidence-x", "0", "--y-interval", "1.5,2.5",
        "--replicates", "120", "--seed", "1", "--format", "json",
    )
    assert code == 0
    block = json.loads(stdout)["queries"][0]
    assert block["families"]["pns"]["case_flag"] == "A"
    assert block["query"]["evidence"]["y_interval"] == [1.5, 2.5]


def test_estimate_missing_level_exits_2(sim_csv, tmp_path, capsys):
    out = tmp_path / "err.json"
    code, _, err = _run(
        capsys,
        "estimate", "--input", sim_csv,
        "--x-base", "0", "--x-alt", "5", "--y", "1", "--out", str(out),
    )
    assert code == 2
    assert "PositivityError" in err
    assert "error" in json.loads(out.read_text())


def test_estimate_table_not_utf8_exits_2_with_error_json(tmp_path, capsys):
    # a Latin-1 cell used to escape as UnicodeDecodeError, without the JSON
    table = tmp_path / "latin1.csv"
    table.write_bytes("x,m,y,note\n0,0,1,café\n1,1,0,ok\n".encode("latin-1"))
    out = tmp_path / "err.json"
    code, stdout, err = _run(
        capsys,
        "estimate", "--input", str(table),
        "--x-base", "0", "--x-alt", "1", "--y", "1", "--out", str(out),
    )
    message = "byte 20: 0xe9 is not UTF-8 text"
    assert code == 2 and stdout == ""
    assert err == f"error: ParseError: {message}\n"
    assert json.loads(out.read_text()) == {"error": {"type": "ParseError", "message": message}}


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--x-base", "0", "--x-alt", "1", "--y", "nan"], "y_threshold"),
        (["--x-base", "inf", "--x-alt", "1", "--y", "1"], "x_base"),
        (["--x-base", "0", "--x-alt", "1", "--y", "1", "--m-fixed", "nan"], "m_fixed"),
        (["--x-base", "0", "--x-alt", "1", "--y", "1", "--evidence-x=-inf"], "x_star"),
    ],
)
def test_estimate_non_finite_query_exits_2(sim_csv, capsys, flags, field):
    # NaN and infinite query numbers used to run and print estimates
    code, out, err = _run(capsys, "estimate", "--input", sim_csv, *flags,
                          "--replicates", "0")
    assert code == 2 and out == ""
    assert f"InvalidEvidenceError: {field} must be a finite number" in err


def test_estimate_config_document(sim_csv, tmp_path, capsys):
    config = {
        "input": sim_csv,
        "queries": [
            {"x_base": 0, "x_alt": 1, "y": 1.0},
            {
                "x_base": 0,
                "x_alt": 1,
                "y": 1.0,
                "evidence": {"x_star": 0, "y_interval": [0.0, 1.0]},
            },
        ],
        "families": ["pns"],
        "bootstrap": {"replicates": 80},
        "seed": 9,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, stdout, _ = _run(capsys, "estimate", "--config", str(path), "--format", "json")
    assert code == 0
    report = json.loads(stdout)
    assert report["seed"] == 9
    assert len(report["queries"]) == 2
    assert report["queries"][1]["query"]["evidence"]["x_star"] == 0.0


#: queries of two strata, two each, over the table of ``_strata_config``
_TWO_STRATA_QUERIES = [
    {"x_base": 0, "x_alt": 1, "y": 1, "m_fixed": 0},
    {"x_base": 0, "x_alt": 1, "y": 1, "stratum": [1]},
    {"x_base": 1, "x_alt": 0, "y": 1, "evidence": {"x_star": 1, "y_interval": [1, 2]}},
    {"x_base": 0, "x_alt": 1, "y": 1, "m_fixed": 1, "stratum": [1.0]},
]


def _strata_config(tmp_path, queries, replicates) -> str:
    """A config document over a 400-row table with one binary covariate."""
    rng = np.random.default_rng(4)
    rows = rng.integers(0, 2, size=(400, 4))
    path = tmp_path / "strata.csv"
    path.write_text("x,m,y,c\n" + "".join(f"{a},{b},{c},{d}\n" for a, b, c, d in rows))
    config = {"input": str(path), "schema": {"c": ["c"]}, "queries": queries,
              "families": ["pns", "cd", "pn", "ps"], "bootstrap": {"replicates": replicates}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return str(cfg)


def test_estimate_builds_one_model_per_stratum(tmp_path, capsys, monkeypatch):
    # without a bootstrap, queries of one stratum share one CdfModel; each
    # block still equals the block of the query run on its own
    queries = _TWO_STRATA_QUERIES
    built = []

    class CountingModel(pm.CdfModel):
        def __init__(self, source, c_stratum=None):
            built.append(c_stratum)
            super().__init__(source, c_stratum)

    monkeypatch.setattr("pocmed.cli.CdfModel", CountingModel)

    def blocks(qs):
        cfg = _strata_config(tmp_path, qs, 0)
        code, stdout, _ = _run(capsys, "estimate", "--config", cfg, "--format", "json")
        assert code == 0
        return [json.dumps(b, sort_keys=True) for b in json.loads(stdout)["queries"]]

    together = blocks(queries)
    assert built == [None, (1.0,)]
    assert together == [blocks([q])[0] for q in queries]


def test_estimate_codes_each_stratum_once(tmp_path, capsys, monkeypatch):
    # with a bootstrap, bootstrap_ci reads the RowCounts that cmd_estimate
    # coded for the query's stratum instead of coding the rows again
    built = []
    init = RowCounts.__init__

    def counting(self, dataset, c_stratum=None):
        built.append(c_stratum)
        init(self, dataset, c_stratum)

    monkeypatch.setattr(RowCounts, "__init__", counting)
    cfg = _strata_config(tmp_path, _TWO_STRATA_QUERIES, 20)
    code, stdout, _ = _run(capsys, "estimate", "--config", cfg, "--format", "json")
    assert code == 0 and len(json.loads(stdout)["queries"]) == 4
    assert built == [None, (1.0,)]


def test_estimate_reads_byte_order_mark(tmp_path, capsys):
    # exited 2 with "missing role columns ['x'] in header ['\\ufeffx', ...]"
    text = b"x,m,y\n0,0,0\n0,1,1\n1,0,1\n1,1,1\n0,0,1\n"
    (tmp_path / "plain.csv").write_bytes(text)
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text)
    runs = [
        _run(capsys, "estimate", "--input", str(tmp_path / name), "--x-base", "0",
             "--x-alt", "1", "--y", "1", "--replicates", "0", "--format", "json")
        for name in ("plain.csv", "bom.csv")
    ]
    (code, out, err), (bom_code, bom_out, bom_err) = runs
    assert code == bom_code == 0 and err == bom_err == ""
    assert bom_out == out.replace("plain.csv", "bom.csv")


def test_quoted_header_is_not_unquoted(tmp_path, capsys):
    """Quotes are not special: a quoted header names a column with the
    quotes in it, so the role column ``x`` is missing."""
    path = tmp_path / "quoted.csv"
    path.write_text('"x",m,y\n0,0,1\n1,1,0\n')
    code, out, err = _run(capsys, "estimate", "--input", str(path), "--x-base", "0",
                          "--x-alt", "1", "--y", "1", "--replicates", "0")
    assert (code, out) == (2, "")
    assert err == "error: SchemaError: missing role columns ['x'] in header ['\"x\"', 'm', 'y']\n"


@pytest.mark.parametrize("header, row, flags, repeated", [
    # estimated from the first x before
    ("x,m,y,x", "1,1,0,0", [], ["x"]),
    # "no rows in covariate stratum (2.0,)" before, as the first c was read
    ("x,m,y,c,c", "1,1,0,0,2", ["--c-cols", "c", "--stratum", "2"], ["c"]),
])
def test_repeated_role_column_exits_2(tmp_path, capsys, header, row, flags, repeated):
    path = tmp_path / "repeated.csv"
    path.write_text(f"{header}\n{row}\n{row.replace('1,1,0', '0,0,1')}\n")
    out = tmp_path / "err.json"
    code, stdout, err = _run(capsys, "estimate", "--input", str(path), *_QUERY, *flags,
                             "--replicates", "0", "--out", str(out))
    message = (f"role columns {repeated!r} appear more than once in header "
               f"{header.split(',')!r}")
    assert (code, stdout) == (2, "")
    assert err == f"error: SchemaError: {message}\n"
    assert json.loads(out.read_text()) == {"error": {"type": "SchemaError", "message": message}}


#: x, m, y and c, where stratum 0 holds both treatment arms and stratum 1
#: only x = 0
_STRATA_TABLE = "x,m,y,c\n0,0,0,0\n0,1,1,0\n1,0,1,0\n1,1,0,0\n0,0,1,1\n0,1,0,1\n"


@pytest.mark.parametrize("replicates", ["0", "2"])
@pytest.mark.parametrize("stratum, error, message", [
    ([1, 2], "SchemaError", "stratum (1.0, 2.0) does not match covariate columns ('c',)"),
    ([7], "PositivityError", "no rows in covariate stratum (7.0,)"),
    ([1], "PositivityError", "x_alt level 1.0 not present in the treatment support"),
])
def test_estimate_stratum_errors_exit_2(tmp_path, capsys, monkeypatch, replicates, stratum,
                                        error, message):
    # the second query's stratum is refused before the first is estimated
    (tmp_path / "t.csv").write_text(_STRATA_TABLE)
    queries = [{"x_base": 0, "x_alt": 1, "y": 1, "stratum": [0]},
               {"x_base": 0, "x_alt": 1, "y": 1, "stratum": stratum}]
    (tmp_path / "run.json").write_text(json.dumps(
        {"input": str(tmp_path / "t.csv"), "schema": {"c": ["c"]}, "queries": queries}))
    estimated = []
    monkeypatch.setattr(cli, "_estimate_block", lambda *a: estimated.append(a))
    out = tmp_path / "err.json"
    code, stdout, err = _run(capsys, "estimate", "--config", str(tmp_path / "run.json"),
                             "--replicates", replicates, "--out", str(out))
    assert (code, stdout, estimated) == (2, "", [])
    assert err == f"error: {error}: {message}\n"
    assert json.loads(out.read_text()) == {"error": {"type": error, "message": message}}


@pytest.mark.parametrize("source, message", [
    (["--x-base", "0", "--x-alt", "1", "--y", "1"],
     "no requested family applies to the query of the flags: cd needs --m-fixed"),
    (["--config", "run.json"], "no requested family applies to queries[1]: cd needs m_fixed"),
])
def test_query_without_a_family_exits_2(sim_csv, tmp_path, monkeypatch, capsys, source,
                                        message):
    # exit 0 with "families": {} and no warning before
    monkeypatch.chdir(tmp_path)
    queries = [{"x_base": 0, "x_alt": 1, "y": 1, "m_fixed": 1}, {"x_base": 0, "x_alt": 1, "y": 1}]
    (tmp_path / "run.json").write_text(json.dumps({"queries": queries, "families": ["cd"]}))
    code, stdout, err = _run(capsys, "estimate", "--input", sim_csv, *source, "--families", "cd",
                             "--replicates", "0", "--out", "err.json")
    assert (code, stdout) == (2, "")
    assert err == f"error: PocError: {message}\n"
    assert json.loads((tmp_path / "err.json").read_text()) == {
        "error": {"type": "PocError", "message": message}}


_LOGISTIC_SCM = {
    "treatment": {"logistic": {"intercept": 0.0}},
    "mediator": {"logistic": {"intercept": 1.0, "coefs": [0.5]}},
    "outcome": {"logistic": {"intercept": 1.0, "coefs": [0.5, 0.5]}},
}


def _with(path, value):
    """``_LOGISTIC_SCM`` with the entry at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(_LOGISTIC_SCM))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return {"scm": doc}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"scm": []}, "ConfigError: scm must be an object, got []"),
        ([], "ConfigError: the config document must be an object"),
        (_with(("mediator", "logistic", "coefs"), 5),
         "ConfigError: scm.mediator.logistic.coefs must be a list of numbers, got 5"),
        (_with(("mediator", "logistic", "coefs"), ["0.5"]),
         "ConfigError: scm.mediator.logistic.coefs must be a number, got '0.5'"),
        (_with(("mediator", "logistic", "intercept"), True),
         "ConfigError: scm.mediator.logistic.intercept must be a number, got True"),
        (_with(("mediator", "logistic"), [1.0]),
         "ConfigError: scm.mediator.logistic must be an object"),
        (_with(("treatment",), {"logistic": {}}),
         "ConfigError: scm.treatment.logistic has no 'intercept' key"),
        (_with(("outcome",), "logistic"), "ConfigError: scm.outcome must be an object"),
        (_with(("outcome",), {"spline": {}}),
         "ConfigError: unknown node spec ['spline']"),
        (_with(("treatment",), {"table": {"cuts": [0.5]}}),
         "ConfigError: scm.treatment.table must be a list of cells"),
        (_with(("treatment",), {"table": [[0.5]]}),
         "ConfigError: scm.treatment.table cell must be an object"),
        (_with(("treatment",), {"table": [{"cuts": [0.5]}]}),
         "ConfigError: scm.treatment.table cell has no 'values' key"),
        (_with(("treatment",), {"table": [{"parents": 0, "cuts": [], "values": [1]}]}),
         "ConfigError: scm.treatment.table cell parents must be a list of numbers"),
        (_with(("covariates",), {"values": [0], "weight": 1}),
         "ConfigError: scm.covariates must be a list"),
        (_with(("covariates",), [{"values": 0, "weight": 1}]),
         "ConfigError: scm.covariates values must be a list of numbers, got 0"),
        (_with(("covariates",), [{"values": [0]}]),
         "ConfigError: scm.covariates entry has no 'weight' key"),
        (_with(("covariates",), [{"values": [0], "weight": None}]),
         "ConfigError: scm.covariates weight must be a number, got None"),
        # a missing node exited 2 through a bare KeyError before
        ({"scm": {k: v for k, v in _LOGISTIC_SCM.items() if k != "outcome"}},
         "ConfigError: scm has no 'outcome' key"),
        # a NaN parameter used to simulate an all-zero mediator column
        (_with(("mediator", "logistic", "intercept"), float("nan")),
         "UnsupportedSpecError: logistic node needs finite parameters"),
        # the last of two cells with the same parents used to win silently
        (_with(("treatment",), {"table": [{"cuts": [0.5], "values": [0, 1]},
                                          {"cuts": [], "values": [1]}]}),
         "ConfigError: scm.treatment.table has two cells for parents []"),
        (_with(("mediator",), {"table": [
            {"parents": [0], "cuts": [], "values": [1]},
            {"parents": [-0.0], "cuts": [], "values": [0]},
            {"parents": [1], "cuts": [], "values": [1]}]}),
         "ConfigError: scm.mediator.table has two cells for parents [-0.0]"),
        # these weights used to simulate every row in one stratum, or draw
        # rows with probability -0.5
        *((_with(("covariates",), [{"values": [0], "weight": w}, {"values": [1], "weight": v}]),
           "UnsupportedSpecError: covariate weights must be finite and non-negative")
          for w, v in ((float("nan"), 1), (float("inf"), 1), (-1, 3))),
        # a non-finite cell used to fail after sampling, as a CSV ParseError
        (_with(("treatment",), {"table": [{"cuts": [0.5], "values": [0, float("inf")]}]}),
         "UnsupportedSpecError: cell (): parents and values must be finite"),
        (_with(("mediator",), {"table": [{"parents": [float("nan")], "cuts": [], "values": [1]}]}),
         "UnsupportedSpecError: cell (nan,): parents and values must be finite"),
    ],
)
def test_malformed_scm_document_exits_2(tmp_path, capsys, doc, message):
    path = tmp_path / "scm.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "simulate", "--config", str(path), "--n", "5")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("command", [
    ["estimate", "--input", "data.csv"],
    ["simulate", "--n", "5"],
    ["sweep", "--x-base", "0", "--x-alt", "1"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("raw, message", [
    # these exited 2 with an untyped JSONDecodeError or UnicodeDecodeError,
    # and wrote no error block to --out
    (b'{"scm":\n  [1,}', "line 2 column 6: Expecting value"),
    (b'\xef\xbb\xbf{"a": "\xff"}', "byte 10: 0xff is not UTF-8 text"),
    # this one exited 1 with a RecursionError traceback
    (b"[" * 100_000 + b"]" * 100_000, "nested too deeply to read"),
], ids=["not-json", "not-utf8", "too-deep"])
def test_unreadable_config_document_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                       command, raw, message):
    monkeypatch.chdir(tmp_path)
    Path("data.csv").write_text("x,m,y\n0,0,0\n1,1,1\n")
    Path("run.json").write_bytes(raw)
    code, stdout, err = _run(capsys, *command, "--config", "run.json", "--out", "out.json")
    want = f"the config document: {message}"
    assert code == 2 and stdout == "" and err == f"error: ConfigError: {want}\n"
    assert json.loads(Path("out.json").read_text()) == {
        "error": {"type": "ConfigError", "message": want}}


_QUERY = ["--x-base", "0", "--x-alt", "1", "--y", "1"]


@pytest.mark.parametrize("command, error, message", [
    # these exited 2 with an untyped FileNotFoundError or IsADirectoryError,
    # and wrote no error block to --out
    (["simulate", "--n", "5", "--config", "nope.json"], "ConfigError",
     f"cannot read the config document 'nope.json': {os.strerror(errno.ENOENT)}"),
    (["estimate", "--input", "nope.csv", *_QUERY], "ParseError",
     f"cannot read 'nope.csv': {os.strerror(errno.ENOENT)}"),
    (["estimate", "--input", "folder", *_QUERY], "ParseError",
     f"cannot read 'folder': {os.strerror(errno.EISDIR)}"),
    (["sweep", "--input", "nope.csv", "--x-base", "0", "--x-alt", "1", "--grid-over", "y"],
     "ParseError", f"cannot read 'nope.csv': {os.strerror(errno.ENOENT)}"),
], ids=["simulate-config", "estimate-missing", "estimate-directory", "sweep-missing"])
def test_unreadable_input_file_is_a_typed_error(tmp_path, monkeypatch, capsys,
                                                command, error, message):
    monkeypatch.chdir(tmp_path)
    Path("folder").mkdir()
    code, stdout, err = _run(capsys, *command, "--out", "out.json")
    assert code == 2 and stdout == "" and err == f"error: {error}: {message}\n"
    assert json.loads(Path("out.json").read_text()) == {
        "error": {"type": error, "message": message}}


def test_unwritable_error_block_exits_2_without_a_traceback(tmp_path, capsys):
    # a FileNotFoundError traceback with exit 1 before
    table = tmp_path / "table.csv"
    table.write_text("x,m,y\n0,0,0\n0,1,1\n")
    out = tmp_path / "missing" / "out.json"
    code, stdout, err = _run(capsys, "estimate", "--input", str(table), *_QUERY,
                             "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == (
        "error: PositivityError: x_alt level 1.0 not present in the treatment support\n"
        f"error: the error block could not be written to {str(out)!r}: "
        f"{os.strerror(errno.ENOENT)}\n"
    )
    assert not out.parent.exists()


def test_config_document_may_open_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps({"scm": _LOGISTIC_SCM}).encode())
    code, stdout, _ = _run(capsys, "simulate", "--config", str(path), "--n", "3", "--seed", "1")
    assert code == 0 and stdout.startswith("x,m,y\n")


def _query_with(**fields):
    """A one-query ``queries`` list; ``None`` fields are left out."""
    query = {"x_base": 0, "x_alt": 1, "y": 1, **fields}
    return [{k: v for k, v in query.items() if v is not None}]


def _evidence_with(**fields):
    return _query_with(evidence={"x_star": 0, **fields})


@pytest.mark.parametrize(
    "queries, message",
    [
        # a TypeError traceback before
        (5, "queries must be a list of objects, got 5"),
        ([5], "queries[0] must be an object, got 5"),
        (_query_with(x_base=None), "queries[0] has no 'x_base' key"),
        (_query_with(x_alt="1"), "queries[0].x_alt must be a number, got '1'"),
        (_query_with(y=True), "queries[0].y must be a number, got True"),
        (_query_with(m_fixed=[1]), "queries[0].m_fixed must be a number, got [1]"),
        (_query_with(stratum=1), "queries[0].stratum must be a list of numbers, got 1"),
        (_query_with(stratum=["a"]), "queries[0].stratum must be a number, got 'a'"),
        (_query_with(evidence=3), "queries[0].evidence must be an object, got 3"),
        (_query_with(evidence={"x_star": "0"}),
         "queries[0].evidence.x_star must be a number, got '0'"),
        # a TypeError traceback before
        (_evidence_with(y_interval=3),
         "queries[0].evidence.y_interval must be a list of numbers, got 3"),
        (_evidence_with(y_interval=[1]),
         "queries[0].evidence.y_interval must be a list of two numbers, got [1.0]"),
        (_evidence_with(y_interval=[0, "2"]),
         "queries[0].evidence.y_interval must be a number, got '2'"),
        (_evidence_with(y_interval=[0, 2], y_upper_closed=1),
         "queries[0].evidence.y_upper_closed must be true or false, got 1"),
        (_evidence_with(m_interval={"lower": 0}),
         "queries[0].evidence.m_interval must be a list of numbers"),
        (_evidence_with(m_interval=[0, 1, 2]),
         "queries[0].evidence.m_interval must be a list of two numbers"),
        (_evidence_with(m_interval=[0, 1], m_upper_closed="yes"),
         "queries[0].evidence.m_upper_closed must be true or false, got 'yes'"),
        (_evidence_with(m_star=None, y_interval=[0, 2], m_upper_closed=False) + [
            {"x_base": 0, "x_alt": 1, "y": 1, "m_fixed": 1,
             "evidence": {"x_star": 0, "m_star": "1"}}],
         "queries[1].evidence.m_star must be a number, got '1'"),
    ],
)
def test_malformed_estimate_document_exits_2(tmp_path, capsys, sim_csv, queries, message):
    path = tmp_path / "estimate.json"
    path.write_text(json.dumps({"input": sim_csv, "queries": queries}))
    code, out, err = _run(capsys, "estimate", "--config", str(path), "--replicates", "0")
    assert code == 2 and out == ""
    assert err.startswith(f"error: ConfigError: {message}")


@pytest.mark.parametrize(
    "fields, flags, message",
    [
        # run unconditioned, exit 0, before
        ({"queries": _query_with(evidence={"y_interval": [1, 2]})}, [],
         "ConfigError: queries[0].evidence has no 'x_star' key"),
        ({"queries": _query_with(evidence={"x_star": None, "m_star": 1})}, [],
         "ConfigError: queries[0].evidence.x_star must be a number, got None"),
        ({}, ["--x-base", "0", "--x-alt", "1", "--y", "1", "--y-interval", "1,2"],
         "PocError: --y-interval needs --evidence-x"),
        ({}, ["--x-base", "0", "--x-alt", "1", "--y", "1", "--m-interval", "0,1"],
         "PocError: --m-interval needs --evidence-x"),
        ({}, ["--x-base", "0", "--x-alt", "1", "--y", "1", "--evidence-m", "1"],
         "PocError: --evidence-m needs --evidence-x"),
        # dropped beside a config query before
        ({}, ["--evidence-x", "0", "--y-interval", "0,1"],
         "PocError: a query needs --x-base, --x-alt, and --y together"),
        ({}, ["--m-fixed", "1"], "PocError: a query needs --x-base, --x-alt, and --y together"),
        # TypeError tracebacks with exit 1 before
        ({"schema": 5}, [], "ConfigError: schema must be an object, got 5"),
        ({"bootstrap": 5}, [], "ConfigError: bootstrap must be an object, got 5"),
        # looked up as columns named 1 and 'g' before
        ({"schema": {"x": 1}}, [], "ConfigError: schema.x must be a string, got 1"),
        ({"schema": {"c": "g"}}, [],
         "ConfigError: schema.c must be a list of strings, got 'g'"),
        ({"schema": {"c": [1]}}, [], "ConfigError: schema.c must be a string, got 1"),
        # converted from strings, exit 0, before
        ({"bootstrap": {"replicates": "9"}}, [],
         "ConfigError: bootstrap.replicates must be an integer, got '9'"),
        ({"bootstrap": {"level": "0.9"}}, [],
         "ConfigError: bootstrap.level must be a number, got '0.9'"),
        # an untyped ValueError before
        ({"seed": "abc"}, [], "ConfigError: seed must be an integer, got 'abc'"),
        # split into letters before
        ({"families": "pns"}, [], "ConfigError: families must be a list of strings, got 'pns'"),
        # asserted the assumption before
        ({"assume_mediator_monotone": "false"}, [],
         "ConfigError: assume_mediator_monotone must be true or false, got 'false'"),
        # no bootstrap, silently, before
        ({"bootstrap": {"replicates": 1}}, [],
         "ConfigError: bootstrap.replicates must be 0 (no bootstrap) or at least 2, got 1"),
        ({}, ["--replicates", "1"],
         "PocError: --replicates must be 0 (no bootstrap) or at least 2, got 1"),
        ({}, ["--replicates=-5"],
         "PocError: --replicates must be 0 (no bootstrap) or at least 2, got -5"),
        # ignored without a bootstrap, and an untyped ValueError with one, before
        ({}, ["--replicates", "0", "--level", "7"],
         "PocError: --level must be inside (0, 1), got 7.0"),
        ({}, ["--replicates", "2", "--level", "7"],
         "PocError: --level must be inside (0, 1), got 7.0"),
        ({}, ["--replicates", "2", "--level", "nan"],
         "PocError: --level must be inside (0, 1), got nan"),
        ({}, ["--level", "0"], "PocError: --level must be inside (0, 1), got 0.0"),
        ({"bootstrap": {"replicates": 0, "level": 1}}, [],
         "ConfigError: bootstrap.level must be inside (0, 1), got 1.0"),
        ({"bootstrap": {"level": -0.5}}, [],
         "ConfigError: bootstrap.level must be inside (0, 1), got -0.5"),
        # read as absent, so the default families ran, exit 0, before
        ({}, ["--families", ""],
         "PocError: --families needs a comma list from pns,cd,pn,ps, got ''"),
    ],
)
def test_malformed_estimate_settings_exit_2(tmp_path, capsys, sim_csv, fields, flags, message):
    doc = {"input": sim_csv, "queries": _query_with(), **fields}
    path = tmp_path / "estimate.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "estimate", "--config", str(path), *flags)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "flags, message",
    [
        # an untyped ValueError before
        (["--replicates", "1"], "--replicates must be at least 2, got 1"),
        (["--replicates", "0"], "--replicates must be at least 2, got 0"),
        (["--quick", "--replicates", "1"], "--replicates must be at least 2, got 1"),
        # silently run as 0 models before
        (["--scms", "-3", "--decomposition", "-1"], "--scms must be at least 0, got -3"),
        (["--decomposition", "-1"], "--decomposition must be at least 0, got -1"),
        # an untyped numpy ValueError before
        (["--seed", "-1"], "--seed must be at least 0, got -1"),
        (["--quick", "--seed", "-1"], "--seed must be at least 0, got -1"),
        # ignored under --quick before
        (["--quick", "--scms", "-3"], "--scms must be at least 0, got -3"),
    ],
)
def test_malformed_verify_settings_exit_2(capsys, flags, message):
    code, out, err = _run(capsys, "verify", *flags)
    assert code == 2 and out == ""
    assert err.startswith(f"error: PocError: {message}")


def test_malformed_simulate_settings_exit_2(capsys):
    # an untyped numpy ValueError before
    code, out, err = _run(capsys, "simulate", "--preset", "logistic-bernoulli", "--n", "5",
                          "--seed", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: PocError: --seed must be at least 0, got -1")


def test_estimate_folds_a_negative_seed(sim_csv, capsys):
    code, out, _ = _run(capsys, "estimate", "--input", sim_csv, "--x-base", "0",
                        "--x-alt", "1", "--y", "1", "--replicates", "2", "--seed", "-1",
                        "--format", "json")
    assert code == 0 and json.loads(out)["seed"] == -1


def test_verify_quick_takes_explicit_counts(capsys):
    # --quick sets the defaults only: it ran 10 models here before
    code, out, _ = _run(capsys, "verify", "--quick", "--scms", "3", "--decomposition", "2",
                        "--replicates", "20")
    assert "oracle equivalence (3 models," in out
    assert "decomposition identities (4 evaluations)" in out


_GRID_SWEEPS = {
    "data y": ["--grid-over", "y"],
    "data covariate": ["--grid-over", "covariate", "--c-cols", "g", "--y", "1"],
    "model y": ["--preset", "logistic-bernoulli", "--grid-over", "y"],
    "model intercept": ["--preset", "logistic-bernoulli", "--grid-over", "mediator-intercept",
                        "--y", "1"],
}


@pytest.mark.parametrize("grid", ["abc", "1,x", "1,,2", ""])
@pytest.mark.parametrize("sweep", list(_GRID_SWEEPS))
def test_malformed_grid_exits_2(tmp_path, capsys, sweep, grid):
    # an untyped ValueError before; an empty grid ran the default grid
    argv = ["sweep", "--x-base", "0", "--x-alt", "1", "--grid", grid, *_GRID_SWEEPS[sweep]]
    if sweep.startswith("data"):
        path = tmp_path / "strat.csv"
        path.write_text("x,m,y,g\n0,0,0,0\n1,1,1,0\n")
        argv += ["--input", str(path)]
    code, out, err = _run(capsys, *argv)
    bad = {"abc": "abc", "1,x": "x", "1,,2": "", "": ""}[grid]
    assert code == 2 and out == ""
    assert err.startswith(f"error: PocError: --grid takes comma-separated numbers, got {bad!r}")


@pytest.mark.parametrize("stratum, bad",
                         [("abc", "abc"), ("0,", ""), ("1e3,one", "one"), ("", "")])
def test_malformed_stratum_exits_2(sim_csv, capsys, stratum, bad):
    # an untyped ValueError before; an empty stratum ran unstratified
    code, out, err = _run(capsys, "estimate", "--input", sim_csv, "--x-base", "0",
                          "--x-alt", "1", "--y", "1", "--stratum", stratum)
    assert code == 2 and out == ""
    assert err.startswith(f"error: PocError: --stratum takes comma-separated numbers, got {bad!r}")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate", "--preset", "logistic-bernoulli", "--n", "5"], ["--format", "json"]),
        (["verify", "--quick"], ["--config", "run.json"]),
        (["verify", "--quick"], ["--format", "json"]),
        (["sweep", "--preset", "logistic-bernoulli", "--x-base", "0", "--x-alt", "1"],
         ["--seed", "1"]),
        (["sweep", "--preset", "logistic-bernoulli", "--x-base", "0", "--x-alt", "1"],
         ["--format", "json"]),
    ],
)
def test_unread_flags_are_usage_errors(capsys, argv, flag):
    # argparse's usage text and SystemExit before, with no typed error
    code, stdout, err = _run(capsys, *argv, *flag)
    assert code == 2 and stdout == ""
    assert err == f"error: PocError: unrecognized arguments: {' '.join(flag)}\n"


def test_refused_flag_text_writes_the_error_block(tmp_path, monkeypatch, capsys):
    # argparse's usage text and SystemExit before, and no error block
    monkeypatch.chdir(tmp_path)
    code, stdout, err = _run(capsys, "estimate", "--input", "d.csv", "--seed", "1.5",
                             "--out", "e.json", *_QUERY)
    message = "argument --seed: invalid int value: '1.5'"
    assert code == 2 and stdout == "" and err == f"error: PocError: {message}\n"
    assert json.loads(Path("e.json").read_text()) == {
        "error": {"type": "PocError", "message": message}}


def test_verify_quick_passes_and_is_deterministic(capsys):
    code, stdout, _ = _run(capsys, "verify", "--quick", "--seed", "1")
    assert code == 0
    assert "FAIL" not in stdout
    assert "excluded" in stdout
    code, stdout2, _ = _run(capsys, "verify", "--quick", "--seed", "1")
    assert code == 0 and stdout2 == stdout


def test_sweep_single_point_matches_estimate(sim_csv, capsys):
    code, est_out, _ = _run(
        capsys,
        "estimate", "--input", sim_csv,
        "--x-base", "0", "--x-alt", "1", "--y", "1",
        "--replicates", "0", "--format", "json",
    )
    point = json.loads(est_out)["queries"][0]["families"]["pns"]["quantities"]["t_pns"][
        "point"
    ]
    code, sweep_out, _ = _run(
        capsys,
        "sweep", "--input", sim_csv,
        "--x-base", "0", "--x-alt", "1", "--grid-over", "y", "--grid", "1",
    )
    assert code == 0
    rows = {
        line.split(",")[1]: float(line.split(",")[2])
        for line in sweep_out.strip().splitlines()[1:]
    }
    assert rows["t_pns"] == point


def test_sweep_decomposition_and_svg(tmp_path, capsys):
    svg = tmp_path / "chart.svg"
    code, stdout, _ = _run(
        capsys,
        "sweep", "--preset", "logistic-bernoulli",
        "--x-base", "0", "--x-alt", "1", "--grid-over", "y",
        "--svg", str(svg),
    )
    assert code == 0
    by_grid: dict = {}
    for line in stdout.strip().splitlines()[1:]:
        grid, key, value, status = line.split(",")
        assert status == "ok"
        by_grid.setdefault(grid, {})[key] = float(value)
    for quantities in by_grid.values():
        assert quantities["t_pns"] == quantities["nd_pns"] + quantities["ni_pns"]
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text
    assert "stroke-dasharray" in text


def test_sweep_positivity_flagged_not_fatal(tmp_path, capsys):
    # stratum g=1 has no rows with treatment 1: that grid point is flagged,
    # the sweep continues, and the exit code stays 0
    lines = ["x,m,y,g"]
    for xv, mv, yv, gv in [
        (0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 0, 0),
        (0, 0, 1, 1), (0, 1, 0, 1),
    ]:
        lines.append(f"{xv},{mv},{yv},{gv}")
    path = tmp_path / "strat.csv"
    path.write_text("\n".join(lines) + "\n")
    code, stdout, err = _run(
        capsys,
        "sweep", "--input", str(path), "--c-cols", "g",
        "--x-base", "0", "--x-alt", "1", "--y", "1",
        "--grid-over", "covariate",
    )
    assert code == 0
    statuses = {line.split(",")[0]: line.split(",")[3] for line in stdout.splitlines()[1:]}
    assert statuses["0.0"] == "ok"
    assert statuses["1.0"].startswith("positivity")
    assert "warning" in err
    # covariate sweep without covariate columns is a usage error instead
    code, _, _ = _run(
        capsys,
        "sweep", "--input", str(path),
        "--x-base", "0", "--x-alt", "1", "--grid-over", "covariate",
    )
    assert code == 2


def test_sweep_svg_with_nothing_to_plot_writes_nothing(tmp_path, capsys):
    # no row has treatment 1, so every grid point fails positivity; this
    # wrote the rows, then exited 2 with an untyped ValueError from the
    # chart and without the per-point warnings
    path = tmp_path / "pos.csv"
    path.write_text("x,m,y\n0,0,0\n0,1,1\n0,0,1\n")
    rows, svg = tmp_path / "rows.csv", tmp_path / "out.svg"
    code, stdout, err = _run(capsys, "sweep", "--input", str(path), "--x-base", "0",
                             "--x-alt", "1", "--svg", str(svg), "--out", str(rows))
    message = f"--svg {svg}: no grid point has a value to plot"
    assert code == 2 and stdout == "" and not svg.exists()
    assert err.splitlines() == [
        "warning: grid 0.5: no rows with treatment level 1.0",
        "warning: grid 1.0: no rows with treatment level 1.0",
        f"error: PocError: {message}",
    ]
    assert json.loads(rows.read_text()) == {"error": {"type": "PocError", "message": message}}


def test_sweep_mediator_intercept_monotone(capsys):
    code, stdout, _ = _run(
        capsys,
        "sweep", "--preset", "logistic-bernoulli",
        "--x-base", "0", "--x-alt", "1", "--y", "1",
        "--grid-over", "mediator-intercept", "--grid=-2,-1,0,1,2",
    )
    assert code == 0
    cross = [
        float(line.split(",")[2])
        for line in stdout.strip().splitlines()[1:]
        if line.split(",")[1] == "crossworld"
    ]
    assert len(cross) == 5
    # raising the mediator threshold parameter raises mediator take-up and
    # hence lowers the probability of staying below the outcome threshold
    assert all(a >= b - 1e-12 for a, b in zip(cross, cross[1:]))


def test_model_covariate_sweep_runs_every_stratum(tmp_path, capsys):
    scm = {
        "treatment": {"logistic": {"intercept": 0.0, "coefs": [0.5]}},
        "mediator": {"logistic": {"intercept": -0.5, "coefs": [1.0, 0.3]}},
        "outcome": {"logistic": {"intercept": -1.0, "coefs": [0.8, 1.2, -0.4]}},
        "covariates": [{"values": [1], "weight": 0.6}, {"values": [0], "weight": 0.4}],
    }
    path = tmp_path / "cov.json"
    path.write_text(json.dumps({"scm": scm}))
    argv = ["sweep", "--config", str(path), "--x-base", "0", "--x-alt", "1", "--y", "1",
            "--grid-over", "covariate"]
    code, stdout, _ = _run(capsys, *argv)
    assert code == 0
    rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
    keys = ["t_pns", "nd_pns", "ni_pns", "cdf_base", "cdf_alt", "crossworld"]
    # one block per stratum, in the model's support order
    assert [(grid, key) for grid, key, _, _ in rows] == [
        (grid, key) for grid in ("1.0", "0.0") for key in keys
    ]
    assert {status for *_, status in rows} == {"ok"}
    for block in (rows[:6], rows[6:]):
        t, nd, ni = (float(value) for _, _, value, _ in block[:3])
        assert t == nd + ni
    # every stratum runs, so a grid would be ignored: it is rejected instead
    code, stdout, err = _run(capsys, *argv, "--grid", "1")
    assert code == 2 and stdout == ""
    assert err.startswith("error: PocError: --grid does not apply to a model covariate sweep")


@pytest.mark.parametrize("source", [["--preset", "logistic-bernoulli"],
                                    ["--input", "missing.csv"]])
def test_y_sweep_refuses_y(tmp_path, monkeypatch, capsys, source):
    # read and then ignored before; refused before any table or model is read
    monkeypatch.chdir(tmp_path)
    code, stdout, err = _run(capsys, "sweep", *source, "--x-base", "0", "--x-alt", "1",
                             "--y", "5", "--out", "out.json")
    message = "--y does not apply to a y sweep, whose grid gives the outcome thresholds"
    assert code == 2 and stdout == "" and err == f"error: PocError: {message}\n"
    assert json.loads(Path("out.json").read_text()) == {
        "error": {"type": "PocError", "message": message}}


_ONE_COVARIATE = ("error: PocError: a covariate sweep needs exactly one covariate column, "
                  "got 2: each grid value names one stratum")


def test_model_covariate_sweep_rejects_two_covariates(tmp_path, capsys):
    scm = {
        "treatment": {"logistic": {"intercept": 0.0, "coefs": [0.5, 0.2]}},
        "mediator": {"logistic": {"intercept": -0.5, "coefs": [1.0, 0.3, -0.2]}},
        "outcome": {"logistic": {"intercept": -1.0, "coefs": [0.8, 1.2, -0.4, 0.1]}},
        "covariates": [{"values": [0, 0], "weight": 0.5}, {"values": [0, 1], "weight": 0.5}],
    }
    path = tmp_path / "cov2.json"
    path.write_text(json.dumps({"scm": scm}))
    # exited 2 naming the logistic node's parents before
    code, stdout, err = _run(capsys, "sweep", "--config", str(path), "--x-base", "0",
                             "--x-alt", "1", "--y", "1", "--grid-over", "covariate")
    assert code == 2 and stdout == ""
    assert err.startswith(_ONE_COVARIATE)


def test_empirical_covariate_sweep_rejects_two_covariates(tmp_path, capsys):
    path = tmp_path / "cov2.csv"
    path.write_text("x,m,y,c1,c2\n0,0,0,0,1\n1,1,1,0,1\n0,1,1,1,0\n1,0,0,1,0\n")
    # swept the first column alone before
    code, stdout, err = _run(capsys, "sweep", "--input", str(path), "--c-cols", "c1,c2",
                             "--x-base", "0", "--x-alt", "1", "--y", "1",
                             "--grid-over", "covariate")
    assert code == 2 and stdout == ""
    assert err.startswith(_ONE_COVARIATE)


def test_estimate_renders_its_report_once_for_out_and_json(sim_csv, tmp_path, capsys,
                                                           monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "render_json", lambda report: calls.append(1) or "{}\n")
    code, stdout, _ = _run(capsys, "estimate", "--input", sim_csv, "--x-base", "0",
                           "--x-alt", "1", "--y", "1", "--replicates", "0",
                           "--format", "json", "--out", str(tmp_path / "r.json"))
    assert code == 0 and stdout == "{}\n" and len(calls) == 1


# -- verify in two processes ---------------------------------------------------

_SMALL_VERIFY = ("verify", "--quick", "--scms", "3", "--decomposition", "6",
                 "--replicates", "20")

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork here")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forked_and_serial(capsys, monkeypatch, *argv, out=None):
    """``argv`` run with ``os.fork`` and then without it: two ``(exit code,
    stdout, stderr, --out text)``; no child may be left after either."""
    runs = []
    for fork in (True, False):
        if not fork:
            monkeypatch.delattr(os, "fork")
        extra = ("--out", str(out)) if out else ()
        code, stdout, stderr = _run(capsys, *argv, *extra)
        _assert_no_child_left()
        runs.append((code, stdout, stderr, out.read_text(encoding="utf-8") if out else None))
    return runs


@needs_fork
def test_verify_output_is_the_same_with_and_without_fork(tmp_path, capsys, monkeypatch):
    forked, serial = _forked_and_serial(capsys, monkeypatch, "verify", "--quick",
                                        out=tmp_path / "verify.json")
    assert forked == serial
    assert forked[0] == 0 and "FAIL" not in forked[1] and forked[2] == ""


def _raising(error):
    def part(*args, **kwargs):
        raise error

    return part


@needs_fork
@pytest.mark.parametrize(
    "failing, shown",
    [
        # one part fails: in the child, in the parent's held part, or in the
        # parent's part that runs unheld (the child is killed then)
        ({"estimation_rows": "PocError"}, "PocError: estimation_rows"),
        ({"decomposition_suite": "ValueError"}, "ValueError: decomposition_suite"),
        ({"equivalence_suite": "PocError"}, "PocError: equivalence_suite"),
        ({"exact_truth_rows": "ValueError"}, "ValueError: exact_truth_rows"),
        # two fail: the one a serial run reaches first is reported
        ({"equivalence_suite": "ValueError", "estimation_rows": "PocError"},
         "PocError: estimation_rows"),
        ({"decomposition_suite": "PocError", "equivalence_suite": "ValueError"},
         "ValueError: equivalence_suite"),
    ],
)
def test_verify_part_failure_matches_the_serial_run(capsys, monkeypatch, failing, shown):
    for name, error in failing.items():
        kind = {"PocError": PocError, "ValueError": ValueError}[error]
        monkeypatch.setattr(verification, name, _raising(kind(name)))
    forked, serial = _forked_and_serial(capsys, monkeypatch, *_SMALL_VERIFY)
    assert forked == serial
    assert forked[:3] == (2, "", f"error: {shown}\n")


@needs_fork
def test_verify_child_that_dies_is_an_error(capsys, monkeypatch):
    monkeypatch.setattr(verification, "decomposition_suite", lambda **kwargs: os._exit(3))
    code, stdout, stderr = _run(capsys, *_SMALL_VERIFY)
    _assert_no_child_left()
    assert (code, stdout) == (2, "")
    assert stderr == "error: ChildProcessError: the child process ended without a result\n"


@needs_fork
def test_bootstrap_child_that_dies_is_an_error(sim_csv, capsys, monkeypatch):
    # with the size rule forced, the child draws the upper replicates
    real = bootstrap._replicate_columns

    def upper_dies(counter, estimands, seed, lo, hi):
        return os._exit(3) if lo else real(counter, estimands, seed, lo, hi)

    monkeypatch.setattr(bootstrap, "_FORK_DRAWS", 0)
    monkeypatch.setattr(bootstrap, "_replicate_columns", upper_dies)
    code, stdout, stderr = _run(capsys, "estimate", "--input", sim_csv, "--x-base", "0",
                                "--x-alt", "1", "--y", "1", "--replicates", "20")
    _assert_no_child_left()
    assert (code, stdout) == (2, "")
    assert stderr == "error: ChildProcessError: the child process ended without a result\n"


def _pid(_):
    return os.getpid()


@needs_fork
def test_child_error_that_does_not_pickle_is_named():
    class Local(Exception):
        pass

    def part():
        raise Local("boom")

    with _fork.beside(part) as child:
        with pytest.raises(ChildProcessError,
                           match=r"raised .*<locals>\.Local: boom, which cannot be pickled"):
            child.join()
    _assert_no_child_left()


@needs_fork
def test_child_result_that_does_not_pickle_is_named():
    with _fork.beside(lambda: lambda: 0) as child:
        with pytest.raises(ChildProcessError,
                           match="the child process returned a function, which cannot be pickled"):
            child.join()
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("items", [0, 1, 2, 9, 10])
def test_child_that_asks_first_takes_the_back_half(monkeypatch, items):
    """With the parent's first look waiting for the asking, the child maps
    the back half of the items (none of one), and its part's result still
    comes back at the join."""
    monkeypatch.setattr(_fork, "_WAIT_FOR_ASK", True)
    with _fork.beside(lambda: "part", helps=True) as child:
        pids = child.map(_pid, range(items))
        assert child.join() == "part"
    _assert_no_child_left()
    keep = (items + 1) // 2
    assert pids[:keep] == [os.getpid()] * keep
    assert len(pids) == items and os.getpid() not in pids[keep:]


@needs_fork
def test_child_that_is_never_asked_sends_its_part():
    """A parent that finishes its items before the child asks answers
    none; a map with no items, or none at all, answers none too."""
    with _fork.beside(lambda: "part", helps=True) as child:
        assert child.map(abs, []) == []
        assert child.join() == "part"
    with _fork.beside(lambda: "part", helps=True) as child:
        assert child.join() == "part"
    _assert_no_child_left()


def _stub_verify_child(monkeypatch):
    """The child's own part done at once, and the parent's first look at
    the child waiting for its asking: the child then checks the back half
    of the equivalence models, deterministically."""
    monkeypatch.setattr(verification, "estimation_rows", lambda **kwargs: [])
    monkeypatch.setattr(verification, "decomposition_suite", lambda **kwargs: {
        "max_decomposition_error": 0.0, "max_proportion_error": 0.0,
        "n_triples": 0, "n_case_b": 0})
    monkeypatch.setattr(_fork, "_WAIT_FOR_ASK", True)


#: ``verify`` with 6 equivalence models: models 0-2 are the parent's, 3-5
#: the child's; models 1 and 4 have queries no other model has
_HANDOFF_VERIFY = ("verify", "--quick", "--scms", "6", "--decomposition", "0",
                   "--replicates", "20")


@needs_fork
@pytest.mark.parametrize("model, side", [(1, b"p"), (4, b"c")])
def test_verify_check_failure_matches_the_serial_run(tmp_path, capsys, monkeypatch, model,
                                                     side):
    """A failure planted in one model's check, which the parent or the
    child runs (a byte in a file says which), is the serial run's."""
    target = verification._equivalence_plan(6, 0)[0][model].q
    assert [t.q for t in verification._equivalence_plan(6, 0)[0]].count(target) == 1
    log = os.open(tmp_path / "sides", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    real = identify.cd_pns

    def planted(an, q):
        if q == target:
            os.write(log, b"c" if _fork.in_child else b"p")
            raise PocError(f"planted in model {model}")
        return real(an, q)

    _stub_verify_child(monkeypatch)
    monkeypatch.setattr(identify, "cd_pns", planted)
    try:
        forked, serial = _forked_and_serial(capsys, monkeypatch, *_HANDOFF_VERIFY)
    finally:
        os.close(log)
    assert forked == serial
    assert forked[:3] == (2, "", f"error: PocError: planted in model {model}\n")
    assert (tmp_path / "sides").read_bytes() == side + b"p"


@needs_fork
def test_verify_handoff_larger_than_a_pipe_buffer(tmp_path, capsys, monkeypatch):
    """150 planned models do not fit in one pipe buffer; the parent writes
    them between its own checks, and the output is the serial run's."""
    sizes = []
    real = _fork.Child._send

    def send(self, block):
        sizes.append(len(self._unsent))
        return real(self, block)

    _stub_verify_child(monkeypatch)
    monkeypatch.setattr(_fork.Child, "_send", send)
    forked, serial = _forked_and_serial(capsys, monkeypatch, "verify", "--quick", "--scms",
                                        "300", "--decomposition", "0",
                                        out=tmp_path / "verify.json")
    assert forked == serial and forked[0] == 0
    assert sizes[0] > 1 << 16


@needs_fork
def test_bootstraps_in_the_verify_child_do_not_fork(tmp_path, capsys, monkeypatch):
    """The estimation rows' bootstraps run in verify's child, which forks
    no further even where the size rule asks for it: one fork in all, the
    one of verify.  Each call of ``os.fork``, in either process, appends a
    byte to a file."""
    log = os.open(tmp_path / "forks", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    real = os.fork

    def logged():
        os.write(log, b"f")
        return real()

    monkeypatch.setattr(bootstrap, "_FORK_DRAWS", 0)
    monkeypatch.setattr(os, "fork", logged)
    try:
        code, stdout, _ = _run(capsys, *_SMALL_VERIFY)
    finally:
        os.close(log)
    _assert_no_child_left()
    assert code == 0 and "FAIL" not in stdout
    assert (tmp_path / "forks").read_bytes() == b"f"


@needs_fork
def test_nan_total_fails_both_suite_rows(tmp_path, capsys, monkeypatch):
    """A NaN compared value fails its row: it passed unseen before, since
    ``diff > max_diff`` and ``max(err, nan)`` both drop a NaN."""
    real = identify.natural_pns
    monkeypatch.setattr(identify, "natural_pns",
                        lambda *a, **k: dataclasses.replace(real(*a, **k), t_pns=math.nan))
    forked, serial = _forked_and_serial(capsys, monkeypatch, *_SMALL_VERIFY,
                                        out=tmp_path / "verify.json")
    assert forked == serial and forked[0] == cli.EXIT_VERIFY_FAIL
    rows = {r["name"].split(" (")[0]: r for r in json.loads(forked[3])["rows"]}
    for name in ("oracle equivalence", "decomposition identities"):
        assert rows[name]["passed"] is False and "nan" in rows[name]["detail"]


_WARNING_SCRIPT = """
import os, sys, warnings
from pocmed import cli, verification

if sys.argv[1] == "serial":
    del os.fork
for name in ("estimation_rows", "equivalence_suite", "decomposition_suite"):
    def part(_real=getattr(verification, name), _name=name, **kwargs):
        warnings.warn(f"planted in {_name}", UserWarning)
        return _real(**kwargs)
    setattr(verification, name, part)
sys.exit(cli.main(["verify", "--quick", "--scms", "2", "--decomposition", "3",
                   "--replicates", "20"]))
"""


_HANDOFF_WARNING_SCRIPT = """
import os, sys, warnings
from pocmed import _fork, cli, identify, verification

if sys.argv[1] == "serial":
    del os.fork
_fork._WAIT_FOR_ASK = True
for name in ("estimation_rows", "decomposition_suite"):
    def part(_name=name, **kwargs):
        warnings.warn(f"planted in {_name}", UserWarning)
        return [] if _name == "estimation_rows" else {
            "max_decomposition_error": 0.0, "max_proportion_error": 0.0,
            "n_triples": 0, "n_case_b": 0}
    setattr(verification, name, part)
plan = verification._equivalence_plan(6, 0)[0]
sides = {plan[1].q: "parent", plan[4].q: "child"}
real = identify.cd_pns
def planted(an, q):
    if q in sides:
        warnings.warn(f"planted in the {sides[q]}'s check", UserWarning)
    return real(an, q)
identify.cd_pns = planted
sys.exit(cli.main(["verify", "--quick", "--scms", "6", "--decomposition", "0",
                   "--replicates", "20"]))
"""


@needs_fork
def test_verify_warnings_of_handed_checks_reach_stderr_in_serial_order():
    """Warnings of checks on each side reach stderr in model order, after
    the estimation rows' and before the decomposition suite's."""
    src = str(Path(pm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        subprocess.run([sys.executable, "-c", _HANDOFF_WARNING_SCRIPT, mode], env=env,
                       capture_output=True, text=True, timeout=120)
        for mode in ("fork", "serial")
    ]
    forked, serial = [(r.returncode, r.stdout, r.stderr) for r in runs]
    assert forked == serial
    err = runs[0].stderr
    order = [err.find(f"UserWarning: planted in {name}")
             for name in ("estimation_rows", "the parent's check", "the child's check",
                          "decomposition_suite")]
    assert runs[0].returncode == 0 and -1 < order[0] < order[1] < order[2] < order[3]


@needs_fork
def test_verify_warnings_reach_stderr_in_serial_order():
    """Warnings shown in the child reach the parent's stderr, after those
    of earlier parts and before those of later ones, as in a serial run."""
    src = str(Path(pm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        subprocess.run([sys.executable, "-c", _WARNING_SCRIPT, mode], env=env,
                       capture_output=True, text=True, timeout=120)
        for mode in ("fork", "serial")
    ]
    forked, serial = [(r.returncode, r.stdout, r.stderr) for r in runs]
    assert forked == serial
    err = runs[0].stderr
    order = [err.find(f"UserWarning: planted in {name}")
             for name in ("estimation_rows", "equivalence_suite", "decomposition_suite")]
    assert runs[0].returncode == 0 and -1 < order[0] < order[1] < order[2]
