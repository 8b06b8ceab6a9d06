"""The README's library quickstart runs as written, the bootstrap
contract it states holds, and its settings table is the CLI's."""

import functools
import json
import re
from pathlib import Path

import pytest

import pocmed as pm
from pocmed.cli import SETTINGS

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
