"""The settings table behind every flag and config key.

The parser declares exactly the flags of ``SURFACE``; every row rejects bad
input, given as a flag or as a config key, with exit 2, a typed error that
names the flag, the key or the file, and an ``{"error": ...}`` block in
``--out``; and a valid value gives the same report whether it comes as a
flag or as a config key.  The cases are generated from ``cli.SETTINGS``, so
a new row is tested as soon as it is added.
"""

import argparse
import errno
import json
import os

import pytest

from pocmed import cli, errors
from pocmed.cli import SETTINGS, main

#: each command's options, which the table must keep as they are: option
#: strings, type, choices, default and action
SURFACE = {
    "estimate": {
        "--config": (None, None, None, "_StoreAction"),
        "--out": (None, None, None, "_StoreAction"),
        "--seed": ("int", None, None, "_StoreAction"),
        "--format": (None, ("json", "table"), "table", "_StoreAction"),
        "--x-col": (None, None, None, "_StoreAction"),
        "--m-col": (None, None, None, "_StoreAction"),
        "--y-col": (None, None, None, "_StoreAction"),
        "--c-cols": (None, None, None, "_StoreAction"),
        "--x-base": ("float", None, None, "_StoreAction"),
        "--x-alt": ("float", None, None, "_StoreAction"),
        "--y": ("float", None, None, "_StoreAction"),
        "--m-fixed": ("float", None, None, "_StoreAction"),
        "--stratum": (None, None, None, "_StoreAction"),
        "--evidence-x": ("float", None, None, "_StoreAction"),
        "--evidence-m": ("float", None, None, "_StoreAction"),
        "--y-interval": (None, None, None, "_StoreAction"),
        "--y-upper-closed": (None, None, False, "_StoreTrueAction"),
        "--m-interval": (None, None, None, "_StoreAction"),
        "--m-upper-closed": (None, None, False, "_StoreTrueAction"),
        "--input": (None, None, None, "_StoreAction"),
        "--families": (None, None, None, "_StoreAction"),
        "--replicates": ("int", None, None, "_StoreAction"),
        "--level": ("float", None, None, "_StoreAction"),
        "--assume-mediator-monotone": (None, None, False, "_StoreTrueAction"),
    },
    "simulate": {
        "--config": (None, None, None, "_StoreAction"),
        "--out": (None, None, None, "_StoreAction"),
        "--seed": ("int", None, None, "_StoreAction"),
        "--preset": (None, None, None, "_StoreAction"),
        "--n": ("int", None, None, "_StoreAction"),
    },
    "verify": {
        "--out": (None, None, None, "_StoreAction"),
        "--seed": ("int", None, None, "_StoreAction"),
        "--replicates": ("int", None, None, "_StoreAction"),
        "--scms": ("int", None, None, "_StoreAction"),
        "--decomposition": ("int", None, None, "_StoreAction"),
        "--quick": (None, None, False, "_StoreTrueAction"),
    },
    "sweep": {
        "--config": (None, None, None, "_StoreAction"),
        "--out": (None, None, None, "_StoreAction"),
        "--x-col": (None, None, None, "_StoreAction"),
        "--m-col": (None, None, None, "_StoreAction"),
        "--y-col": (None, None, None, "_StoreAction"),
        "--c-cols": (None, None, None, "_StoreAction"),
        "--input": (None, None, None, "_StoreAction"),
        "--preset": (None, None, None, "_StoreAction"),
        "--x-base": ("float", None, None, "_StoreAction"),
        "--x-alt": ("float", None, None, "_StoreAction"),
        "--y": ("float", None, None, "_StoreAction"),
        "--m-fixed": ("float", None, None, "_StoreAction"),
        "--grid-over": (None, ("y", "covariate", "mediator-intercept"), "y", "_StoreAction"),
        "--grid": (None, None, None, "_StoreAction"),
        "--svg": (None, None, None, "_StoreAction"),
    },
}


def test_parser_surface_is_unchanged():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        command: {
            action.option_strings[0]: (
                getattr(action.type, "__name__", action.type),
                tuple(action.choices) if action.choices else None,
                action.default,
                type(action).__name__,
            )
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
            and len(action.option_strings) == 1
        }
        for command, sub in commands.choices.items()
    }
    assert surface == SURFACE
    counts = {command: len(options) for command, options in surface.items()}
    assert counts == {"estimate": 24, "simulate": 5, "verify": 6, "sweep": 15}


def test_config_keys_are_the_documented_ones():
    keys = sorted({row.key for row in SETTINGS if row.key})
    assert keys == sorted([
        "seed", "input", "families", "assume_mediator_monotone", "bootstrap.replicates",
        "bootstrap.level", "schema.x", "schema.m", "schema.y", "schema.c",
        *(f"queries[].{k}" for k in ("x_base", "x_alt", "y", "m_fixed", "stratum")),
        *(f"queries[].evidence.{k}" for k in ("x_star", "m_star", "y_interval",
                                              "y_upper_closed", "m_interval", "m_upper_closed")),
    ])
    # simulate reads no seed key, and estimate's --seed takes any integer
    assert [row.commands for row in SETTINGS if row.key == "seed"] == ["estimate"]


# -- bad input, generated from the table ---------------------------------------

TABLE = "x,m,y,c,x2,m2,y2\n" + "".join(
    f"{x},{m},{y},{c},{x},{m},{y}\n"
    for x, m, y, c in [(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0), (1, 1, 2, 0),
                       (0, 0, 1, 1), (0, 1, 2, 1), (1, 0, 0, 1), (1, 1, 1, 1)] * 2
)

#: the flags each command runs with, besides the one under test
BASE = {
    "estimate": {"--input": "t.csv", "--x-base": "0", "--x-alt": "1", "--y": "1",
                 "--replicates": "0"},
    "simulate": {"--preset": "logistic-bernoulli", "--n": "5"},
    "verify": {"--quick": True, "--scms": "1", "--decomposition": "1", "--replicates": "2"},
    "sweep": {"--input": "t.csv", "--x-base": "0", "--x-alt": "1"},
}

#: the config document of each command that reads keys
BASE_CONFIG = {
    "estimate": {"input": "t.csv", "queries": [{"x_base": 0, "x_alt": 1, "y": 1}],
                 "bootstrap": {"replicates": 0}},
    "sweep": {},
}

#: values that a rule may refuse, as flag text and as the value the table reads
RANGE = {
    "integer": [("-1", -1), ("0", 0), ("1", 1)],
    "number": [("-0.5", -0.5), ("0", 0.0), ("1", 1.0)],
    "numbers": [("1", [1.0]), ("1,2,3", [1.0, 2.0, 3.0])],
    "strings": [("a,,b", ["a", "", "b"]), ("xx", ["xx"])],
    "string": [("nope", "nope")],
}

#: the field that the library's own finiteness check names for a query key
LIBRARY_NAME = {"y": "y_threshold", "stratum": "c_stratum"}


def _rows(command=None):
    return [(c, row) for row in SETTINGS for c in row.commands.split() if command in (None, c)]


def _refused(row, value) -> bool:
    if row.rule is None:
        return False
    ok = row.rule[1]
    return not (ok(value) if callable(ok) else value in ok)


def _names(row, where):
    """What an error about ``row`` may name: the flag or the key, and for a
    query key the field that the library checks."""
    named = [row.flag if where == "flag" else row.key.replace("queries[]", "queries[0]")]
    if row.key and row.key.startswith("queries[]."):
        leaf = row.key.rsplit(".", 1)[1]
        named.append(LIBRARY_NAME.get(leaf, leaf))
    return named


def _flag_values(row):
    """Bad text for ``row``'s flag: the empty string; NaN, the infinities and
    a fraction or a bool where a number or an integer is due; the values
    its rule refuses; for an interval, bounds that are reversed or NaN, or
    equal without the flag that closes the interval.  A switch takes no
    value at all."""
    if row.kind == "boolean":
        return ["=yes"]
    texts = [] if row.flag == "--c-cols" else [""]  # --c-cols '' is no covariate
    if row.kind in ("integer", "number", "numbers", "choice"):
        texts += ["nan", "inf", "-inf"]
    if row.kind == "integer":
        texts += ["1.5", "true"]
    if row.flag.endswith("-interval"):
        texts += ["2,1", "nan,1", "1,1"]
    return texts + [text for text, value in RANGE.get(row.kind, []) if _refused(row, value)]


def _config_values(row):
    """Bad values for ``row``'s config key: the empty string, NaN, the
    infinities, a bool, a fraction where an integer is due, the wrong JSON
    type, the values its rule refuses, null where the key has a default or
    is required, and the bad intervals of :func:`_flag_values`."""
    values = ["", float("nan"), float("inf"), float("-inf"), {"a": 1}]
    if row.default is not None or row.key.removeprefix("queries[].") in cli._REQUIRED:
        values.append(None)
    values.append({"boolean": "true", "string": 1, "path": 1}.get(row.kind, "1"))
    if row.kind != "boolean":
        values.append(True)
    if row.kind == "integer":
        values.append(1.5)
    if row.key.endswith("_interval"):
        values += [[2, 1], [float("nan"), 1], [1, 1]]
    return values + [value for _, value in RANGE.get(row.kind, []) if _refused(row, value)]


def _argv(command, flags):
    argv = [command]
    for flag, value in flags.items():
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv.append(flag + value if value.startswith("=") else f"{flag}={value}")
    return argv


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text(TABLE)
    (tmp_path / "folder").mkdir()
    (tmp_path / "latin1.dat").write_bytes(b"\xff,m,y\n0,0,0\n")
    return tmp_path


def _with_key(doc, key, value):
    """``doc`` with the dotted ``key`` set to ``value``; a ``queries[].``
    key is set in the first query, beside a valid x* for an evidence key."""
    doc = json.loads(json.dumps(doc))
    *parents, leaf = key.split(".")
    node = doc
    for part in parents:
        if part == "queries[]":
            node = node.setdefault("queries", [{}])[0]
        else:
            node = node.setdefault(part, {"x_star": 0} if part == "evidence" else {})
    node[leaf] = value
    return doc


def _fails_as_bad_input(capsys, argv, names, out="out.json"):
    """Run ``argv``: it must exit 2 without a traceback, with a typed error
    naming one of ``names`` and, unless ``out`` is None, the error block in
    ``out``; text that a flag's declared type or choices refuse too."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2, (argv, captured.out, captured.err)
    assert "Traceback" not in captured.err
    first = captured.err.splitlines()[0]
    kind, _, message = first.removeprefix("error: ").partition(": ")
    assert issubclass(getattr(errors, kind), errors.PocError), first
    assert any(name in message for name in names), (names, first)
    if out is not None:
        with open(out, encoding="utf-8") as fh:
            assert json.load(fh) == {"error": {"type": kind, "message": message}}


@pytest.mark.parametrize("command, row, text", [
    pytest.param(command, row, text, id=f"{command} {row.flag}={text}")
    for command, row in _rows() for text in _flag_values(row)
])
def test_bad_flag_value_is_a_typed_error(work, capsys, command, row, text):
    out = None if row.flag == "--out" else "out.json"
    flags = {**BASE[command], "--out": out, row.flag: text}
    if row.key and row.key.startswith("queries[].evidence.") and row.flag != "--evidence-x":
        flags["--evidence-x"] = "0"
    _fails_as_bad_input(capsys, _argv(command, flags), _names(row, "flag"), out)


@pytest.mark.parametrize("command, row, value", [
    pytest.param(command, row, value, id=f"{command} {row.key}={value!r}")
    for command, row in _rows() if row.key and command in BASE_CONFIG
    for value in _config_values(row)
])
def test_bad_config_value_is_a_typed_error(work, capsys, command, row, value):
    (work / "run.json").write_text(json.dumps(_with_key(BASE_CONFIG[command], row.key, value)))
    flags = {**BASE[command], "--config": "run.json", "--out": "out.json"}
    if command == "estimate":
        flags = {"--config": "run.json", "--out": "out.json"}
    _fails_as_bad_input(capsys, _argv(command, flags), _names(row, "key"))


@pytest.mark.parametrize("command, row, where, name, named", [
    pytest.param(command, row, where, name, named, id=f"{command} {row.flag} {where}={name}")
    for command, row in _rows() if row.kind == "path"
    for where in ("flag", "key") if where == "flag" or (row.key and command in BASE_CONFIG)
    for name, named in [("missing/none.dat", "missing"), ("folder", "folder"),
                        ("latin1.dat", "byte 0: 0xff is not UTF-8 text")]
    if name != "latin1.dat" or row.flag in ("--config", "--input")
])
def test_unusable_file_is_a_typed_error(work, capsys, command, row, where, name, named):
    """A missing file, a directory, and for a file that is read, bytes that
    are not UTF-8; the error names the path, or the byte."""
    flags = dict(BASE[command])
    if where == "key":
        (work / "run.json").write_text(json.dumps(_with_key(BASE_CONFIG[command], row.key, name)))
        flags = {"--config": "run.json"}
    else:
        flags[row.flag] = name
    if row.flag == "--svg":  # a model sweep, whose grid has points to plot
        flags.update({"--input": None, "--preset": "logistic-bernoulli"})
    out = None if row.flag == "--out" else "out.json"
    if out:
        flags["--out"] = out
    _fails_as_bad_input(capsys, _argv(command, flags), [named], out)


@pytest.mark.parametrize("section", sorted({
    row.key.split(".")[0] for row in SETTINGS
    if row.key and "." in row.key and not row.key.startswith("queries[].")
}))
def test_null_settings_object_is_a_config_error(work, capsys, section):
    (work / "run.json").write_text(json.dumps({**BASE_CONFIG["estimate"], section: None}))
    _fails_as_bad_input(capsys, ["estimate", "--config", "run.json", "--out", "out.json"],
                        [f"{section} must be an object"])


def test_unwritable_out_names_the_flag_and_the_path(work, capsys):
    # an untyped FileNotFoundError before
    code = main(_argv("estimate", {**BASE["estimate"], "--out": "missing/out.json"}))
    err = capsys.readouterr().err
    why = os.strerror(errno.ENOENT)
    assert code == 2 and err == (
        f"error: PocError: --out: cannot write 'missing/out.json': {why}\n"
        f"error: the error block could not be written to 'missing/out.json': {why}\n")


# -- valid values: the same report from a flag as from a config key ----------

#: a valid value of each estimate setting that has a config key, as flag text
VALID = {
    "--seed": "5", "--input": "t.csv", "--x-col": "x2", "--m-col": "m2", "--y-col": "y2",
    "--c-cols": "c", "--families": "pns,pn", "--replicates": "3", "--level": "0.8",
    "--assume-mediator-monotone": True, "--x-base": "0", "--x-alt": "1", "--y": "2",
    "--m-fixed": "1", "--stratum": "1", "--evidence-x": "1", "--evidence-m": "0",
    "--y-interval": "0,2", "--y-upper-closed": True, "--m-interval": "0,1",
    "--m-upper-closed": True,
}

#: what a valid value needs beside it to change the report
NEEDS = {
    "--y-upper-closed": {"--y-interval": "0,2"},
    "--m-interval": {"--assume-mediator-monotone": True},
    "--m-upper-closed": {"--m-interval": "0,1", "--assume-mediator-monotone": True},
}

KEYED = {row.flag: row for _, row in _rows("estimate") if row.key}


def _json(row, text):
    """Flag text as the JSON value of the row's key."""
    if row.kind == "boolean":
        return True
    parse = {"integer": int, "number": float, "numbers": float}.get(row.kind, str)
    if row.kind in ("numbers", "strings"):
        return [parse(part) for part in text.split(",")]
    return parse(text)


def test_every_keyed_setting_has_a_valid_value():
    assert sorted(KEYED) == sorted(VALID)


@pytest.mark.parametrize("flag", sorted(VALID))
def test_flag_and_config_key_give_the_same_report(work, capsys, flag):
    row = KEYED[flag]
    flags = {"--input": "t.csv", "--c-cols": "c", "--replicates": "0", "--x-base": "0",
             "--x-alt": "1", "--y": "1", flag: VALID[flag]}
    if row.key.startswith("queries[].evidence."):
        flags.setdefault("--evidence-x", "0")
    flags.update(NEEDS.get(flag, {}))
    # a query key moves with its whole query: a query is all flags or all keys
    moved = {f for f in flags if KEYED.get(f) and KEYED[f].key.startswith("queries[].")}
    moved = moved if flag in moved else {flag}
    doc = {}
    for f in sorted(moved):
        doc = _with_key(doc, KEYED[f].key, _json(KEYED[f], flags[f]))
    (work / "run.json").write_text(json.dumps(doc))
    reports = []
    for argv in (
        _argv("estimate", {**flags, "--format": "json", "--out": "out.json"}),
        _argv("estimate", {**{f: v for f, v in flags.items() if f not in moved},
                           "--config": "run.json", "--format": "json", "--out": "out.json"}),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        reports.append((captured.out, (work / "out.json").read_bytes()))
    assert reports[0] == reports[1]


def test_empty_c_cols_flag_is_an_empty_covariate_list(work, capsys):
    (work / "run.json").write_text(json.dumps({"schema": {"c": ["c"]}}))
    argv = ["sweep", "--config", "run.json", "--input", "t.csv", "--x-base", "0",
            "--x-alt", "1", "--y", "1", "--grid-over", "covariate"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--c-cols", ""]) == 2
    assert capsys.readouterr().err == (
        "error: PocError: covariate sweep needs covariate columns (--c-cols)\n")


def test_flags_override_the_config_document(work, capsys):
    doc = {"input": "missing.csv", "seed": 7, "families": ["cd"], "schema": {"x": "nope"},
           "bootstrap": {"replicates": 5, "level": 0.5}}
    (work / "run.json").write_text(json.dumps(doc))
    flags = {**BASE["estimate"], "--seed": "3", "--families": "pns", "--x-col": "x",
             "--level": "0.9", "--format": "json"}
    reports = []
    for extra in ({"--config": "run.json"}, {}):
        assert main(_argv("estimate", {**flags, **extra})) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["seed"] == 3 and list(report["queries"][0]["families"]) == ["pns"]
