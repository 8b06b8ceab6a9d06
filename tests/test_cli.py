"""Command-line interface: exit codes, determinism, report schema."""

import json

import numpy as np
import pytest

import pocmed as pm
from pocmed.cli import main


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
    ],
)
def test_malformed_scm_document_exits_2(tmp_path, capsys, doc, message):
    path = tmp_path / "scm.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, "simulate", "--config", str(path), "--n", "5")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


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
