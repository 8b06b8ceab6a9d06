"""The README's library quickstart runs as written, the bootstrap
contract it states holds, its settings table is the CLI's, and its report
format table lists every key of the ``estimate`` JSON."""

import functools
import json
import re
from pathlib import Path

import pytest

import pocmed as pm
from pocmed.cli import SETTINGS
from test_golden_estimate import CASES, GOLDEN

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:  # the second block reads the first one's names
        exec(compile(block, str(README), "exec"), namespace)
    data, query = namespace["data"], namespace["query"]
    point = pm.natural_pns(namespace["model"], query).t_pns
    assert namespace["cis"]["t_pns"].point == namespace["both"]["pns"]["t_pns"].point == point
    assert list(namespace["both"]) == ["pns", "pn"]

    # as the README states: any other callable than an estimator target is
    # refused, and so is a wrapper that changes its family's result
    cfg = pm.BootstrapConfig(replicates=2)
    with pytest.raises(TypeError):
        pm.bootstrap_ci(data, lambda d: {"n": d.n}, cfg)
    target = pm.estimator_target("natural", query)

    @functools.wraps(target)
    def halved(d):
        result = target(d)
        return {**result, "t_pns": result["t_pns"] / 2}

    with pytest.raises(ValueError):
        pm.bootstrap_ci(data, halved, cfg)


def _cells(row) -> list[str]:
    """A settings row as the README table writes it."""
    default = row.default
    if isinstance(default, tuple):
        default = f"`{default[0]}` (`{default[1]}` with `--quick`)"
    elif default is not None:
        default = f"`{json.dumps(default)}`"
    return [f"`{row.flag}`", f"`{row.key}`" if row.key else "", ", ".join(row.commands.split()),
            default or "", row.rule[0] if row.rule else ""]


def test_readme_settings_table_is_the_code_table():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| Flag | Config key | Commands | Default | Rule |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert rows == [_cells(row) for row in SETTINGS]


def _key_paths(value, path=""):
    """The path of every key in a JSON value, list items as ``[]`` and the
    keys under ``families`` and ``quantities`` as ``<f>`` and ``<q>``."""
    if isinstance(value, list):
        return set().union(*(_key_paths(item, path + "[]") for item in value))
    if not isinstance(value, dict):
        return set()
    name = {"families": "<f>", "quantities": "<q>"}.get(path.rpartition(".")[2])
    paths = set()
    for key, item in value.items():
        key_path = f"{path}.{name or key}" if path else key
        paths |= {key_path} | _key_paths(item, key_path)
    return paths


def test_readme_report_format_lists_every_estimate_key():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| Key path | Value |")
    documented = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        documented.append(line.split("|")[1].strip().strip("`"))
    found, outputs = set(), 0
    for name, (_, _, argv, written) in CASES.items():
        json_out = [f for f in written if f.endswith(".json")]
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            json_out.append("stdout.txt")
        for file in json_out if argv[0] == "estimate" else ():
            found |= _key_paths(json.loads((GOLDEN / name / file).read_text(encoding="utf-8")))
            outputs += 1
    assert outputs == 7
    assert len(documented) == len(set(documented)) and set(documented) == found
