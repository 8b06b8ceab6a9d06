"""The benchmark's workloads: inputs made from a seed, the CLI commands of
one pass, and the checks on what those commands write.

Each workload stresses a different part of pocmed (see ``README.md`` in
this directory for the reasons); pocmed itself sees only the generated
files and the command lines built here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

#: Seed at which the recorded output digests (``digests.json``) apply.
DEFAULT_SEED = 0

#: ``verify`` always runs at its own default seed.  Its estimation rows
#: compare finite-sample estimates with the truth at fixed tolerances
#: (about 2 standard errors), so they fail by chance at about 1 seed in 10
#: (9 of the seeds 0..99, 4 and 5 among them); a benchmark seed passed
#: through would make the workload fail at random.
VERIFY_SEED = 0

FAMILIES = ("pns", "cd", "pn", "ps")


@dataclass(frozen=True)
class Sizes:
    boot_rows: int = 10_000
    boot_replicates: int = 250
    wide_rows: int = 100_000
    verify_replicates: int = 25
    verify_scms: int = 100
    verify_decomposition: int = 300


FULL = Sizes()
#: Small enough for the benchmark's own tests; digests are not checked.
TINY = Sizes(
    boot_rows=400,
    boot_replicates=20,
    wide_rows=4000,
    verify_replicates=40,
    verify_scms=4,
    verify_decomposition=10,
)


@dataclass
class Check:
    """Outcome of one output check."""

    name: str
    ok: bool
    detail: str = ""


def _table(cells):
    return [{"parents": list(p), "cuts": cuts, "values": values} for p, cuts, values in cells]


def _shifted_cuts(levels: int, shift: float) -> list[float]:
    return [round((k + 1) / levels - shift, 6) for k in range(levels - 1)]


def wide_model() -> dict:
    """Threshold-table model with 3 treatment, 8 mediator and 12 outcome
    levels and one binary covariate.  Cut points move down as x, m and c
    rise, so higher parents push the child up and T-PNS is non-zero."""
    treatment = _table(
        ((c,), _shifted_cuts(3, 0.05 * c), [0, 1, 2]) for c in (0, 1)
    )
    mediator = _table(
        ((x, c), _shifted_cuts(8, 0.03 * x + 0.02 * c), list(range(8)))
        for x in (0, 1, 2)
        for c in (0, 1)
    )
    outcome = _table(
        ((x, m, c), _shifted_cuts(12, 0.015 * x + 0.004 * m + 0.01 * c), list(range(12)))
        for x in (0, 1, 2)
        for m in range(8)
        for c in (0, 1)
    )
    return {
        "scm": {
            "treatment": {"table": treatment},
            "mediator": {"table": mediator},
            "outcome": {"table": outcome},
            "covariates": [{"values": [0], "weight": 0.5}, {"values": [1], "weight": 0.5}],
        }
    }


#: The three evidence shapes: none (with a fixed mediator), point-mediator
#: evidence inside a covariate stratum, and interval-mediator evidence.
WIDE_QUERIES = (
    {"x_base": 0, "x_alt": 2, "y": 6, "m_fixed": 4},
    {
        "x_base": 0,
        "x_alt": 1,
        "y": 5,
        "m_fixed": 3,
        "stratum": [1],
        "evidence": {"x_star": 1, "y_interval": [3, 8], "m_star": 3},
    },
    {
        "x_base": 1,
        "x_alt": 2,
        "y": 7,
        "evidence": {"x_star": 2, "y_interval": [4, 10], "m_interval": [2, 6]},
    },
)

BOOT_QUERY = {"x_base": 0, "x_alt": 1, "y": 1, "m_fixed": 1}


class Workload:
    name = ""
    why = ""

    def setup(self, work: Path, seed: int, sizes: Sizes, run) -> None:
        """Write the input files into ``work``; ``run`` runs a CLI command."""

    def steps(self, work: Path, seed: int, sizes: Sizes) -> list[tuple[str, list[str]]]:
        """The commands of one pass, as ``(label, argv)``."""
        raise NotImplementedError

    def outputs(self, work: Path) -> list[Path]:
        """Files every pass writes; each pass must reproduce them byte for byte."""
        raise NotImplementedError

    def inputs(self, work: Path) -> list[Path]:
        """Files pocmed reads that the benchmark or an earlier command made."""
        return []

    def check(self, work: Path, seed: int, sizes: Sizes, digests: dict) -> list[Check]:
        """Checks on the outputs of one pass."""
        raise NotImplementedError


class BootBinary(Workload):
    name = "boot-binary-10k"
    why = (
        "4-family estimate with B=250 on the paper's binary preset: the bootstrap "
        "loop (resample, Dataset.take, CdfModel build) does nearly all the work"
    )

    def setup(self, work, seed, sizes, run):
        run(["simulate", "--preset", "logistic-bernoulli", "--n", str(sizes.boot_rows),
             "--seed", str(seed), "--out", str(work / "data.csv")])

    def steps(self, work, seed, sizes):
        q = BOOT_QUERY
        return [("estimate", [
            "estimate", "--input", str(work / "data.csv"),
            "--x-base", str(q["x_base"]), "--x-alt", str(q["x_alt"]), "--y", str(q["y"]),
            "--m-fixed", str(q["m_fixed"]), "--families", ",".join(FAMILIES),
            "--replicates", str(sizes.boot_replicates), "--seed", str(seed),
            "--format", "json", "--out", str(work / "estimate.json"),
        ])]

    def outputs(self, work):
        return [work / "estimate.json"]

    def inputs(self, work):
        return [work / "data.csv"]

    def check(self, work, seed, sizes, digests):
        return estimate_checks(
            work / "estimate.json", work / "data.csv", (BOOT_QUERY,), (), False,
            digests.get(self.name), bootstrap=True,
        )


class WideIO(Workload):
    name = "wide-io-100k"
    why = (
        "simulate 100k rows of a multi-level table model, estimate 3 queries of "
        "every evidence shape without bootstrap, sweep y: CSV I/O and sampling"
    )

    def setup(self, work, seed, sizes, run):
        (work / "model.json").write_text(json.dumps(wide_model()), encoding="utf-8")
        config = {
            "input": str(work / "data.csv"),
            "schema": {"c": ["c1"]},
            "families": list(FAMILIES),
            "assume_mediator_monotone": True,
            "queries": list(WIDE_QUERIES),
        }
        (work / "queries.json").write_text(json.dumps(config), encoding="utf-8")

    def steps(self, work, seed, sizes):
        return [
            ("simulate", ["simulate", "--config", str(work / "model.json"),
                          "--n", str(sizes.wide_rows), "--seed", str(seed),
                          "--out", str(work / "data.csv")]),
            ("estimate", ["estimate", "--config", str(work / "queries.json"),
                          "--replicates", "0", "--seed", str(seed),
                          "--format", "json", "--out", str(work / "estimate.json")]),
            ("sweep", ["sweep", "--input", str(work / "data.csv"),
                       "--x-base", "0", "--x-alt", "2", "--m-fixed", "4",
                       "--grid-over", "y", "--svg", str(work / "chart.svg"),
                       "--out", str(work / "sweep.csv")]),
        ]

    def outputs(self, work):
        return [work / name for name in ("data.csv", "estimate.json", "sweep.csv", "chart.svg")]

    def inputs(self, work):
        return [work / "model.json", work / "queries.json", work / "data.csv"]

    def check(self, work, seed, sizes, digests):
        checks = [simulate_check(work / "data.csv", sizes.wide_rows, ("x", "m", "y", "c1"))]
        checks += estimate_checks(
            work / "estimate.json", work / "data.csv", WIDE_QUERIES, ("c1",), True,
            digests.get(self.name), bootstrap=False,
        )
        checks += sweep_checks(work / "data.csv", work / "sweep.csv", work / "chart.svg", 7)
        return checks


class VerifyOracle(Workload):
    name = "verify-oracle"
    why = (
        "verify with 100 equivalence and 300 decomposition models: the exact "
        "oracle (check_monotonicity, truths, AnalyticCdf) and identify dominate"
    )

    def steps(self, work, seed, sizes):
        return [("verify", [
            "verify", "--replicates", str(sizes.verify_replicates),
            "--scms", str(sizes.verify_scms), "--decomposition", str(sizes.verify_decomposition),
            "--seed", str(VERIFY_SEED), "--out", str(work / "verify.json"),
        ])]

    def outputs(self, work):
        return [work / "verify.json"]

    def check(self, work, seed, sizes, digests):
        rows = json.loads((work / "verify.json").read_text(encoding="utf-8"))["rows"]
        failed = [r["name"] for r in rows if r["passed"] is False]
        return [Check("verify rows passed", bool(rows) and not failed,
                      f"{len(rows)} rows, failed: {failed}")]


WORKLOADS = {w.name: w for w in (BootBinary(), WideIO(), VerifyOracle())}


# -- output checks -------------------------------------------------------------


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_DIGEST_FIELDS = ("point", "ci_lower", "ci_upper", "replicate_mean", "degenerate_count")


def quantities_digest(report: dict) -> str:
    """Digest of the numeric values of every quantity (not of the bytes), so
    that new report keys outside these fields leave it unchanged."""
    h = hashlib.sha256()
    for qi, block in enumerate(report["queries"]):
        for family in sorted(block["families"]):
            quantities = block["families"][family]["quantities"]
            for key in sorted(quantities):
                for field in _DIGEST_FIELDS:
                    value = quantities[key].get(field)
                    if isinstance(value, (int, float)) and not isinstance(value, bool):
                        h.update(f"{qi}/{family}/{key}/{field}={float(value)!r};".encode())
    return h.hexdigest()


def _evidence(spec, pm):
    """The (natural, controlled-direct) evidence records of a query spec."""
    ev = spec.get("evidence")
    if not ev:
        return None, None
    iy = ev.get("y_interval")
    interval_y = pm.Interval(*iy) if iy else pm.Interval.full()
    im = ev.get("m_interval")
    interval_m = pm.Interval(*im) if im else None
    natural = pm.Evidence(x_star=ev["x_star"], interval_y=interval_y, interval_m=interval_m)
    cd = None
    if ev.get("m_star") is not None:
        cd = pm.Evidence(x_star=ev["x_star"], interval_y=interval_y, m_star=ev["m_star"])
    return natural, cd


def _triple(prefix, t):
    return {
        f"t_{prefix}": t.t_pns, f"nd_{prefix}": t.nd_pns, f"ni_{prefix}": t.ni_pns,
        "prop_nd": t.prop_nd, "prop_ni": t.prop_ni,
    }


def recompute(data, spec, mediator_monotone) -> dict[str, dict]:
    """Point estimates of every family for one query spec, straight from
    ``CdfModel`` and the identification functions."""
    import warnings

    import pocmed as pm

    q = pm.Query(
        x_base=spec["x_base"], x_alt=spec["x_alt"], y_threshold=spec["y"],
        m_fixed=spec.get("m_fixed"),
        c_stratum=tuple(spec["stratum"]) if spec.get("stratum") else None,
    )
    natural_e, cd_e = _evidence(spec, pm)
    model = pm.CdfModel(data, q.c_stratum)
    out = {}
    if natural_e is None:
        out["pns"] = _triple("pns", pm.natural_pns(model, q))
    elif natural_e.interval_m is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pm.MediatorMonotonicityWarning)
            triple, _ = pm.natural_pns_with_mediator_evidence(
                model, q, natural_e, mediator_monotone=mediator_monotone)
        out["pns"] = _triple("pns", triple)
    else:
        out["pns"] = _triple("pns", pm.natural_pns_with_evidence(model, q, natural_e)[0])
    if q.m_fixed is not None:
        value = (pm.cd_pns(model, q) if cd_e is None
                 else pm.cd_pns_with_evidence(model, q, cd_e)[0])
        out["cd"] = {"cd_pns": value}
    out["pn"] = _triple("pn", pm.pn_family(model, q))
    out["ps"] = _triple("ps", pm.ps_family(model, q))
    return out


def estimate_checks(report_path, data_path, specs, covariates, mediator_monotone,
                    digest, bootstrap) -> list[Check]:
    import pocmed as pm

    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    blocks = report["queries"]
    checks = [Check("estimate query count", len(blocks) == len(specs),
                    f"{len(blocks)} blocks for {len(specs)} queries")]
    worst = 0.0
    ci_bad = []
    for block in blocks:
        for family, fam in block["families"].items():
            qs = fam["quantities"]
            for prefix in ("pns", "pn", "ps"):
                t, nd, ni = (qs.get(f"{k}_{prefix}", {}).get("point") for k in ("t", "nd", "ni"))
                if None not in (t, nd, ni):
                    worst = max(worst, abs(t - (nd + ni)))
            for key, entry in qs.items():
                lo, hi = entry.get("ci_lower"), entry.get("ci_upper")
                if bootstrap and (lo is None or hi is None or not lo <= hi):
                    ci_bad.append(f"{family}/{key}")
    checks.append(Check("estimate |t-(nd+ni)| <= 1e-12", worst <= 1e-12, f"max {worst:.3e}"))
    checks.append(Check("estimate CI lower <= upper", not ci_bad, f"bad: {ci_bad}"))

    data = pm.load_dataset(str(data_path), pm.ColumnRoles("x", "m", "y", tuple(covariates)))
    mismatches = []
    for qi, (spec, block) in enumerate(zip(specs, blocks)):
        want = recompute(data, spec, mediator_monotone)
        for family, values in want.items():
            got = block["families"].get(family, {}).get("quantities", {})
            for key, value in values.items():
                point = got.get(key, {}).get("point")
                if (value is None) != (point is None) or (value is not None and point != value):
                    mismatches.append(f"q{qi}/{family}/{key}: {point!r} != {value!r}")
    checks.append(Check("estimate points == CdfModel + identify", not mismatches,
                        "; ".join(mismatches[:5])))
    if digest is not None:
        got = quantities_digest(report)
        checks.append(Check("estimate quantities digest", got == digest,
                            f"got {got[:16]}, recorded {digest[:16]}"))
    return checks


def simulate_check(path: Path, rows: int, header) -> Check:
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().strip()
        count = sum(1 for _ in fh)
    ok = count == rows and tuple(first.split(",")) == tuple(header)
    return Check("simulate rows and header", ok, f"{count} rows, header {first!r}")


def sweep_checks(data_path, sweep_path, svg_path, per_point) -> list[Check]:
    levels = set()
    with open(data_path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        y_col = next(reader).index("y")
        for row in reader:
            levels.add(float(row[y_col]))
    # the default grid: every level above the lowest, plus the midpoints
    points = 2 * (len(levels) - 1)
    with open(sweep_path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    finite = all(r[3] == "ok" and math.isfinite(float(r[2])) for r in body)
    checks = [Check(
        "sweep rows", header == ["grid", "quantity", "value", "status"]
        and len(body) == points * per_point and finite,
        f"{len(body)} rows for {points} grid points x {per_point}",
    )]
    try:
        root = ET.parse(svg_path).getroot()
        lines = sum(1 for el in root.iter() if el.tag.rsplit("}", 1)[-1] in ("polyline", "path"))
        ok = root.tag.rsplit("}", 1)[-1] == "svg" and lines >= 3
        detail = f"{lines} series elements"
    except ET.ParseError as exc:
        ok, detail = False, f"not well-formed: {exc}"
    checks.append(Check("sweep SVG well-formed", ok, detail))
    return checks
