"""Tests of the benchmark itself: span arithmetic, a tiny run of every
workload, and that a wrong output digest is counted, not fatal.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import gzip
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
run.import_pocmed()


def _span(sid, parent, name, start, end, error=None):
    return spans.Span(sid, parent, name, start, end, command=1, error=error)


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        _span(1, None, "cli", 0.0, 10.0),
        _span(2, 1, "bootstrap.bootstrap_ci", 1.0, 9.0),
        _span(3, 2, "bootstrap.target", 2.0, 4.0),
        _span(4, 3, "ecdf.CdfModel", 2.5, 3.5),
        _span(5, 2, "bootstrap.target", 5.0, 6.0, error="PositivityError"),
        _span(6, 1, "identify", 9.5, 10.0),
        _span(7, 6, "identify", 9.6, 9.8),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({1: 1.5, 2: 5.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 0.3, 7: 0.2})
    metrics = spans.pass_metrics(tree, {"bootstrap.replicates": 2})
    assert metrics["cli.self_s"] == pytest.approx(1.5)
    assert metrics["identify.self_s"] == pytest.approx(0.5)
    assert metrics["identify.calls"] == 1  # the nested call is part of the outer one
    assert metrics["bootstrap.target.calls"] == 2
    assert metrics["bootstrap.degenerate"] == 1
    assert metrics["bootstrap.useful_ratio"] == 0.5
    assert metrics["ecdf.builds_per_replicate"] == 0.5


def test_self_time_merges_overlapping_children():
    tree = [
        _span(1, None, "cli", 0.0, 10.0),
        _span(2, 1, "data.load_dataset", 1.0, 5.0),
        _span(3, 1, "data.stratify", 4.0, 7.0),
        _span(4, 1, "identify", 9.0, 12.0),
    ]
    assert spans.self_times(tree)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_restores_originals_and_reports_absent_names(monkeypatch):
    import pocmed.bootstrap
    import pocmed.cli
    import pocmed.ecdf

    originals = (pocmed.cli.bootstrap_ci, pocmed.bootstrap.CdfModel.__init__)
    monkeypatch.setattr(
        spans, "TARGETS", spans.TARGETS + (("gone", "pocmed.data", "removed_later", None),)
    )
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pocmed.cli.bootstrap_ci is not originals[0]
        assert pocmed.cli.bootstrap_ci is pocmed.bootstrap.bootstrap_ci
        assert pocmed.ecdf.CdfModel.__init__ is not originals[1]
    finally:
        tracer.uninstall()
    assert tracer.absent == ["pocmed.data:removed_later"]
    assert (pocmed.cli.bootstrap_ci, pocmed.bootstrap.CdfModel.__init__) == originals


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(tmp_path, name, trace):
    result = run.run_workload(
        name, 3, 0.01, trace, sizes=workloads.TINY,
        work_root=tmp_path / "work", out_dir=tmp_path / "out",
    )
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list((tmp_path / "work").iterdir()) == []
    if trace:
        assert result["absent"] == [] and result["counts_repeat"]
        dump = tmp_path / "out" / f"trace-{name}-seed3.jsonl.gz"
        lines = gzip.decompress(dump.read_bytes()).decode().splitlines()
        assert json.loads(lines[0])["fields"][0] == "pass" and len(lines) > 1
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_planted_digest_mismatch_counts_as_failure(tmp_path):
    result = run.run_workload(
        "boot-binary-10k", 0, 0.01, 0, sizes=workloads.TINY,
        digests={"boot-binary-10k": "0" * 64}, work_root=tmp_path / "work",
    )
    assert result["failed"] == 1 and not result["correct"]
    assert result["problems"][0].startswith("estimate quantities digest")
    assert result["metrics"]["norm_wall_s"]["value"] > 0


def test_benchmark_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.E2E_UNITS)
