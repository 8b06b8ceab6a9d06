"""Golden outputs of ``pocmed estimate``, ``simulate``, ``sweep`` and
``verify``, and of the randomized oracle suites, compared byte for byte.

Each case runs the CLI in a scratch directory on inputs from
``tests/fixtures/golden`` (or on a table that ``simulate`` draws first) and
compares its exit code, standard output, standard error and every file it
writes with the recorded copies under ``tests/fixtures/golden/<case>/``.

The ``estimate`` copies were captured with the row-resampling bootstrap,
before the count-table bootstrap replaced it; the ``simulate`` and ``sweep``
copies with the per-row CSV loader, writer and table-node sampler, before
their bulk numpy versions replaced them; the ``verify`` and suite copies
with the pairwise monotonicity scan and the uncached analytic CDFs, before
the exact oracle's fast path replaced them; ``sweep_strata_empirical`` with
one hand-written branch per kind of sweep, before one loop replaced them.
To record them again after an intended change of output, run
``PYTHONPATH=src python tests/test_golden_estimate.py`` and say so in
``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import pytest

from pocmed import cli, verification

GOLDEN = Path(__file__).parent / "fixtures" / "golden"

_JOBS_ROLES = ["--x-col", "treat", "--m-col", "job_seek", "--y-col", "depress2"]

#: name -> (input files copied in, set-up commands, estimate argv, files written)
CASES = {
    # README: all four families with bootstrap CIs on the preset model
    "readme_preset": (
        [],
        [["simulate", "--preset", "logistic-bernoulli", "--n", "10000", "--seed", "7",
          "--out", "data.csv"]],
        ["estimate", "--input", "data.csv", "--x-base", "0", "--x-alt", "1", "--y", "1",
         "--m-fixed", "1", "--families", "pns,cd,pn,ps", "--replicates", "1000",
         "--seed", "3", "--out", "report.json"],
        ["report.json"],
    ),
    # README: outcome-only evidence, default replicates and families
    "readme_jobs_evidence": (
        ["jobs.csv"],
        [],
        ["estimate", "--input", "jobs.csv", *_JOBS_ROLES, "--x-base", "0", "--x-alt", "1",
         "--y", "3", "--evidence-x", "0", "--y-interval", "1.5,2.5"],
        [],
    ),
    # README: the job-search study command
    "readme_jobs_cd": (
        ["jobs.csv"],
        [],
        ["estimate", "--input", "jobs.csv", *_JOBS_ROLES, "--x-base", "0", "--x-alt", "1",
         "--y", "3", "--m-fixed", "5", "--families", "pns,cd", "--replicates", "1000",
         "--seed", "0"],
        [],
    ),
    # README: the config document, with point-mediator evidence for cd
    "readme_jobs_config": (
        ["jobs.csv", "jobs_config.json"],
        [],
        ["estimate", "--config", "jobs_config.json", "--format", "json"],
        [],
    ),
    # point-mediator evidence in a stratum, interval-mediator evidence
    # (asserted monotone) and outcome-only evidence in the other stratum
    "strata_evidence": (
        ["strata_scm.json", "strata_estimate.json"],
        [["simulate", "--config", "strata_scm.json", "--n", "3000", "--seed", "2",
          "--out", "strata.csv"]],
        ["estimate", "--config", "strata_estimate.json", "--out", "report.json"],
        ["report.json"],
    ),
    # lonely rows: degenerate replicates whose count differs by family
    "lonely_rows": (
        ["lonely.csv", "lonely_estimate.json"],
        [],
        ["estimate", "--config", "lonely_estimate.json", "--format", "json"],
        [],
    ),
    # interval-mediator evidence without the monotonicity assertion
    "error_assumption": (
        ["jobs.csv"],
        [],
        ["estimate", "--input", "jobs.csv", *_JOBS_ROLES, "--x-base", "0", "--x-alt", "1",
         "--y", "3", "--evidence-x", "1", "--y-interval", "1.5,3.5", "--m-interval", "2,4",
         "--replicates", "50", "--out", "report.json"],
        ["report.json"],
    ),
    # the cd family's point estimate hits an empty cell after pns succeeded
    "error_cd_positivity": (
        ["lonely.csv"],
        [],
        ["estimate", "--input", "lonely.csv", "--x-base", "0", "--x-alt", "2", "--y", "0.5",
         "--m-fixed", "1", "--families", "pns,cd", "--replicates", "40"],
        [],
    ),
}


#: CSV writing, table-node sampling and CSV loading: name -> same fields
IO_CASES = {
    # the preset model: logistic nodes, no covariates
    "simulate_preset": (
        [],
        [],
        ["simulate", "--preset", "logistic-bernoulli", "--n", "2000", "--seed", "11",
         "--out", "data.csv"],
        ["data.csv"],
    ),
    # table nodes over two covariates, with -0.0 and 0.0 levels and tiny
    # and huge outcome values
    "simulate_negzero": (
        ["negzero_scm.json"],
        [],
        ["simulate", "--config", "negzero_scm.json", "--n", "3000", "--seed", "4",
         "--out", "negzero.csv"],
        ["negzero.csv"],
    ),
    # an empirical y sweep over the table drawn above, with its chart
    "sweep_negzero": (
        ["negzero_scm.json"],
        [["simulate", "--config", "negzero_scm.json", "--n", "3000", "--seed", "4",
          "--out", "negzero.csv"]],
        ["sweep", "--input", "negzero.csv", "--x-base", "0", "--x-alt", "1",
         "--m-fixed", "0.5", "--out", "sweep.csv", "--svg", "sweep.svg"],
        ["sweep.csv", "sweep.svg"],
    ),
    # a y sweep of the preset model's exact CDFs, with its chart
    "sweep_preset_y": (
        [],
        [],
        ["sweep", "--preset", "logistic-bernoulli", "--x-base", "0", "--x-alt", "1",
         "--m-fixed", "1", "--svg", "sweep.svg"],
        ["sweep.svg"],
    ),
    # a model covariate sweep: one analytic surface per covariate stratum
    "sweep_strata_covariate": (
        ["strata_scm.json"],
        [],
        ["sweep", "--config", "strata_scm.json", "--x-base", "0", "--x-alt", "1",
         "--grid-over", "covariate", "--y", "1", "--m-fixed", "1"],
        [],
    ),
    # an empirical covariate sweep over a stratum with rows, one whose
    # treated arm is empty and one with no rows, with its chart
    "sweep_strata_empirical": (
        ["strata_gap.csv"],
        [],
        ["sweep", "--input", "strata_gap.csv", "--c-cols", "c", "--grid-over", "covariate",
         "--grid", "0,1,2", "--x-base", "0", "--x-alt", "1", "--y", "1", "--svg", "sweep.svg"],
        ["sweep.svg"],
    ),
    # a sweep of the preset's mediator intercept
    "sweep_preset_intercept": (
        [],
        [],
        ["sweep", "--preset", "logistic-bernoulli", "--x-base", "0", "--x-alt", "1",
         "--grid-over", "mediator-intercept", "--y", "1", "--grid=-1,0,0.5,2",
         "--m-fixed", "0"],
        [],
    ),
}


#: the exact oracle behind ``verify``: name -> same fields
VERIFY_CASES = {
    # the quick suite at a seed other than the default
    "verify_quick": (
        [],
        [],
        ["verify", "--quick", "--seed", "1", "--out", "verify.json"],
        ["verify.json"],
    ),
    # the suite sizes of the ``verify-oracle`` benchmark workload
    "verify_bench": (
        [],
        [],
        ["verify", "--replicates", "25", "--scms", "100", "--decomposition", "300",
         "--seed", "0", "--out", "verify.json"],
        ["verify.json"],
    ),
}

#: randomized oracle suites: name -> call whose ``repr`` is recorded
SUITE_CASES = {
    "suite_equivalence": lambda: verification.equivalence_suite(n_scms=200, seed=0),
    "suite_decomposition": lambda: verification.decomposition_suite(n_scms=1000, seed=0),
}


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _capture(name: str, work: Path) -> dict[str, str]:
    """Run one case inside ``work``; return every recorded artefact."""
    if name in SUITE_CASES:
        return {"repr.txt": repr(SUITE_CASES[name]()) + "\n"}
    inputs, setup, argv, written = {**CASES, **IO_CASES, **VERIFY_CASES}[name]
    for file in inputs:
        shutil.copy(GOLDEN / file, work / file)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for command in setup:
            assert _run(command)[0] == cli.EXIT_OK, command
        code, stdout, stderr = _run(argv)
        files = {f: (work / f).read_text(encoding="utf-8") for f in written}
    finally:
        os.chdir(cwd)
    return {"exit_code.txt": f"{code}\n", "stdout.txt": stdout, "stderr.txt": stderr, **files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_estimate_matches_golden(name, tmp_path):
    artefacts = _capture(name, tmp_path)
    for file, text in artefacts.items():
        expected = (GOLDEN / name / file).read_text(encoding="utf-8")
        assert text == expected, f"{name}/{file} differs from the golden copy"


@pytest.mark.parametrize("name", sorted(IO_CASES))
def test_simulate_and_sweep_match_golden(name, tmp_path):
    test_estimate_matches_golden(name, tmp_path)


@pytest.mark.parametrize("name", sorted({**VERIFY_CASES, **SUITE_CASES}))
def test_verify_and_suites_match_golden(name, tmp_path):
    test_estimate_matches_golden(name, tmp_path)


if __name__ == "__main__":
    import tempfile

    for case in sorted({**CASES, **IO_CASES, **VERIFY_CASES, **SUITE_CASES}):
        with tempfile.TemporaryDirectory() as tmp:
            artefacts = _capture(case, Path(tmp))
        (GOLDEN / case).mkdir(exist_ok=True)
        for file, text in artefacts.items():
            (GOLDEN / case / file).write_text(text, encoding="utf-8")
        print(case, artefacts.get("exit_code.txt", "").strip(), file=sys.stderr)
