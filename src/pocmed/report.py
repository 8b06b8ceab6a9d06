"""Report assembly and rendering.

Reports are plain dictionaries, rendered either as deterministic JSON
(machine) or as an aligned text table with percent formatting (human).
README's "Report format" lists every key of the ``estimate`` JSON; its
``version`` is the package version, not a separate schema version.
Re-running with identical inputs and seed produces byte-identical output:
no timestamps, sorted keys, repr floats.
"""

from __future__ import annotations

import json
import math

from . import __version__


def json_safe(value):
    """Map non-finite floats to strings so the JSON stays standard."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def render_json(report: dict) -> str:
    return json.dumps(json_safe(report), sort_keys=True, indent=2) + "\n"


def fmt_pct(value: float | None) -> str:
    if value is None:
        return "undefined"
    return f"{100.0 * value:.3f}%"


_QUANTITY_LABELS = {
    "t_pns": "T-PNS",
    "nd_pns": "ND-PNS",
    "ni_pns": "NI-PNS",
    "cd_pns": "CD-PNS",
    "t_pn": "T-PN",
    "nd_pn": "ND-PN",
    "ni_pn": "NI-PN",
    "t_ps": "T-PS",
    "nd_ps": "ND-PS",
    "ni_ps": "NI-PS",
    "prop_nd": "share direct",
    "prop_ni": "share indirect",
}


def _quantity_lines(quantities: dict, indent: str) -> list[str]:
    lines = []
    for key, entry in quantities.items():
        label = _QUANTITY_LABELS.get(key, key)
        point = entry.get("point")
        line = f"{indent}{label:<16}{fmt_pct(point):>12}"
        if entry.get("ci_lower") is not None:
            line += (
                f"   CI [{fmt_pct(entry['ci_lower'])}, {fmt_pct(entry['ci_upper'])}]"
            )
            if entry.get("degenerate_count"):
                line += f"   ({entry['degenerate_count']} degenerate replicates)"
        lines.append(line)
    return lines


def render_estimate_table(report: dict) -> str:
    lines = [f"pocmed {report['version']}  seed {report['seed']}"]
    lines.append(f"input: {report['input']} ({report['n_rows']} rows)")
    for i, block in enumerate(report["queries"], start=1):
        q = block["query"]
        head = (
            f"query {i}: x {q['x_base']} -> {q['x_alt']}, outcome threshold {q['y_threshold']}"
        )
        if q.get("m_fixed") is not None:
            head += f", mediator fixed at {q['m_fixed']}"
        if q.get("c_stratum"):
            head += f", stratum {q['c_stratum']}"
        lines.append("")
        lines.append(head)
        if q.get("evidence"):
            lines.append(f"  evidence: {q['evidence']}")
        for family, fam_block in block["families"].items():
            case = fam_block.get("case_flag")
            suffix = f" (case {case})" if case in ("A", "B") else ""
            lines.append(f"  {family}{suffix}:")
            lines.extend(_quantity_lines(fam_block["quantities"], "    "))
        for warning in block.get("warnings", ()):
            lines.append(f"  warning: {warning}")
    return "\n".join(lines) + "\n"


def new_report(input_desc: str, n_rows: int, seed: int) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "input": input_desc,
        "n_rows": n_rows,
        "queries": [],
    }


def render_verify_table(rows, title: str) -> str:
    lines = [title]
    n_pass = n_fail = 0
    for row in rows:
        if row.passed is None:
            status = "NOTE"
        elif row.passed:
            status = "PASS"
            n_pass += 1
        else:
            status = "FAIL"
            n_fail += 1
        lines.append(f"  [{status}] {row.name}")
        lines.append(f"         {row.detail}")
    lines.append(f"{n_pass} passed, {n_fail} failed")
    return "\n".join(lines) + "\n"
