"""The README's library quickstart runs as written, and the bootstrap
contract it states holds."""

import functools
import re
from pathlib import Path

import pytest

import pocmed as pm

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
