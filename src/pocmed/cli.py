"""Command-line front end.

Commands:

* ``estimate``: probabilities-of-causation families from a CSV table,
  with bootstrap confidence intervals.
* ``simulate``: draw an observational CSV from a structural model
  (built-in preset or config document).
* ``verify``: self-contained check of the estimator stack against exact
  model truths and recorded reference values; exit 1 on any failed row.
  Where ``os.fork`` exists, a child process computes the estimation rows
  and the decomposition suite while this one runs the equivalence suite;
  a child that is done while equivalence models remain unchecked checks
  the back half of them.
* ``sweep``: evaluate the measures over a grid (outcome thresholds,
  covariate values, or a mediator threshold parameter) and emit
  plot-ready rows plus an optional SVG chart.

Exit codes: 0 success, 1 verification failure, 2 usage or data error.
A config document (JSON) may carry the same settings as the flags; flags
override the document.  Every setting is one row of ``SETTINGS``.
Identical inputs and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings
from typing import NamedTuple

import numpy as np

from . import __version__, _fork, identify
from .bootstrap import BootstrapConfig, bootstrap_ci, estimator_target
from .chart import render_line_chart
from .data import (
    ColumnRoles,
    Evidence,
    Interval,
    Query,
    _decode,
    load_dataset,
)
from .ecdf import CdfModel, RowCounts
from .errors import ConfigError, InvalidEvidenceError, ParseError, PocError, PositivityError
from .identify import MediatorMonotonicityWarning
from .oracle import (
    AnalyticCdf,
    LogisticNode,
    ScmSpec,
    TableNode,
    logistic_bernoulli_preset,
    sample_observational,
)
from .report import (
    new_report,
    render_estimate_table,
    render_json,
    render_verify_table,
)
from . import verification

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2

_PRESETS = {"logistic-bernoulli": logistic_bernoulli_preset}
_FAMILY_ORDER = ("pns", "cd", "pn", "ps")


class Setting(NamedTuple):
    """One flag and the config key it overrides: a dotted path into the
    config document, a ``queries[].`` path into each query object, or None.
    A ``(full, --quick)`` pair is a default of ``verify``.  ``rule`` is what
    a value must be, in words, and its test or the values allowed."""

    flag: str
    key: str | None
    kind: str  # a kind that _typed checks, or "choice" for fixed choices
    commands: str
    help: str
    default: object = None
    rule: tuple | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


_NONEMPTY = ("must not be empty", bool)
_PAIR = ("must be a list of two numbers", lambda v: len(v) == 2)
_COUNT = ("must be at least 0", lambda v: v >= 0)
_FINITE = ("must be a finite number", math.isfinite)

SETTINGS = (
    Setting("--config", None, "path", "estimate simulate sweep", "JSON config", rule=_NONEMPTY),
    Setting("--out", None, "path", "estimate simulate verify sweep", "output path", rule=_NONEMPTY),
    Setting("--seed", "seed", "integer", "estimate", "seed: any integer", 0,
            ("may be any integer", lambda v: True)),
    Setting("--seed", None, "integer", "simulate verify", "seed: any integer >= 0", 0, _COUNT),
    Setting("--format", None, "choice", "estimate", "report format", "table",
            ("must be json or table", ("json", "table"))),
    Setting("--input", "input", "path", "estimate", "CSV input path", rule=_NONEMPTY),
    Setting("--input", None, "path", "sweep", "CSV input path (empirical sweep)", rule=_NONEMPTY),
    Setting("--preset", None, "string", "simulate sweep", "built-in model name", None,
            (f"must be one of {', '.join(_PRESETS)}", _PRESETS)),
    Setting("--x-col", "schema.x", "string", "estimate sweep", "treatment column", "x", _NONEMPTY),
    Setting("--m-col", "schema.m", "string", "estimate sweep", "mediator column", "m", _NONEMPTY),
    Setting("--y-col", "schema.y", "string", "estimate sweep", "outcome column", "y", _NONEMPTY),
    Setting("--c-cols", "schema.c", "strings", "estimate sweep", "covariate columns", [],
            ("must name no empty column", all)),
    Setting("--families", "families", "strings", "estimate", "families to estimate", ["pns", "cd"],
            (f"needs a comma list from {','.join(_FAMILY_ORDER)}",
             lambda v: bool(v) and all(f in _FAMILY_ORDER for f in v))),
    Setting("--replicates", "bootstrap.replicates", "integer", "estimate", "bootstrap replicates",
            1000, ("must be 0 (no bootstrap) or at least 2", lambda v: v == 0 or v >= 2)),
    Setting("--level", "bootstrap.level", "number", "estimate", "confidence level", 0.95,
            ("must be inside (0, 1)", lambda v: 0.0 < v < 1.0)),
    Setting("--assume-mediator-monotone", "assume_mediator_monotone", "boolean", "estimate",
            "assert the mediator monotonicity condition for joint evidence", False),
    Setting("--x-base", "queries[].x_base", "number", "estimate", "base treatment level x'"),
    Setting("--x-alt", "queries[].x_alt", "number", "estimate", "alternative treatment level x"),
    Setting("--y", "queries[].y", "number", "estimate", "outcome threshold"),
    Setting("--m-fixed", "queries[].m_fixed", "number", "estimate", "mediator value for cd"),
    Setting("--stratum", "queries[].stratum", "numbers", "estimate", "covariate stratum values"),
    Setting("--evidence-x", "queries[].evidence.x_star", "number", "estimate", "factual x*"),
    Setting("--evidence-m", "queries[].evidence.m_star", "number", "estimate", "factual m*"),
    Setting("--y-interval", "queries[].evidence.y_interval", "numbers", "estimate",
            "factual outcome interval 'L,U'", None, _PAIR),
    Setting("--y-upper-closed", "queries[].evidence.y_upper_closed", "boolean", "estimate",
            "close the outcome interval", False),
    Setting("--m-interval", "queries[].evidence.m_interval", "numbers", "estimate",
            "factual mediator interval 'L,U'", None, _PAIR),
    Setting("--m-upper-closed", "queries[].evidence.m_upper_closed", "boolean", "estimate",
            "close the mediator interval", False),
    Setting("--x-base", None, "number", "sweep", "base treatment level x'", rule=_FINITE),
    Setting("--x-alt", None, "number", "sweep", "alternative treatment level x", rule=_FINITE),
    Setting("--y", None, "number", "sweep", "outcome threshold (non-y sweeps)", rule=_FINITE),
    Setting("--m-fixed", None, "number", "sweep", "mediator value for cd_pns", rule=_FINITE),
    Setting("--grid-over", None, "choice", "sweep", "what the grid varies", "y",
            ("must be y, covariate or mediator-intercept",
             ("y", "covariate", "mediator-intercept"))),
    Setting("--grid", None, "numbers", "sweep", "comma-separated grid values", None,
            ("must hold finite numbers", lambda v: all(map(math.isfinite, v)))),
    Setting("--svg", None, "path", "sweep", "write an SVG line chart here", rule=_NONEMPTY),
    Setting("--n", None, "integer", "simulate", "number of rows", None,
            ("must be at least 1", lambda v: v >= 1)),
    Setting("--quick", None, "boolean", "verify", "small fast suite", False),
    Setting("--replicates", None, "integer", "verify", "bootstrap replicates", (1000, 200),
            ("must be at least 2", lambda v: v >= 2)),
    Setting("--scms", None, "integer", "verify", "equivalence-suite models", (50, 10), _COUNT),
    Setting("--decomposition", None, "integer", "verify", "decomposition-suite models", (200, 50),
            _COUNT),
)

_COMMAND_ROWS = {command: [row for row in SETTINGS if command in row.commands.split()]
                 for command in ("estimate", "simulate", "verify", "sweep")}
#: the query rows by their path inside a query object
_QUERY_ROWS = {row.key.removeprefix("queries[]."): row for row in SETTINGS
               if (row.key or "").startswith("queries[].")}
#: the keys that each query object, and each evidence object, must have
_REQUIRED = ("x_base", "x_alt", "y", "evidence.x_star")

#: what a config value of each kind must be, and the type it must have; a
#: kind not listed, such as ``numbers``, is a list of such things
_KINDS = {
    "number": ("a number", (int, float)),
    "integer": ("an integer", int),
    "boolean": ("true or false", bool),
    "string": ("a string", str),
    "path": ("a string", str),
    "object": ("an object", dict),
    "list": ("a list", list),
}


def _typed(value, kind: str, where: str):
    """``value`` if it is of ``kind``, a number as a float and a list of
    numbers or strings checked entry by entry; otherwise a
    :class:`ConfigError` naming ``where``."""
    what, types = _KINDS.get(kind) or (f"a list of {kind}", list)
    if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
        raise ConfigError(f"{where} must be {what}, got {value!r}")
    if kind in ("numbers", "strings"):
        return [_typed(v, kind[:-1], where) for v in value]
    return float(value) if kind == "number" else value


def _field(body: dict, key: str, where: str, kind: str | None = None, name: str | None = None):
    """``body[key]``, checked to be of ``kind``, if given, under ``name``
    (by default ``where.key``)."""
    if key not in body:
        raise ConfigError(f"{where} has no {key!r} key")
    return body[key] if kind is None else _typed(body[key], kind, name or f"{where}.{key}")


def _checked(row: Setting, value, shown, where: str, error: type[PocError]):
    """``value`` if it passes ``row``'s rule; otherwise ``error`` naming
    ``where`` and ``shown``, the value as it was given."""
    text, ok = row.rule or ("", None)
    if ok is None or (ok(value) if callable(ok) else value in ok):
        return value
    raise error(f"{where} {text}, got {shown!r}")


def _floats(text: str, flag: str) -> list[float]:
    """The numbers of a comma-separated flag value."""
    values = []
    for part in text.split(","):
        try:
            values.append(float(part))
        except ValueError:
            raise PocError(f"{flag} takes comma-separated numbers, got {part!r}") from None
    return values


def _read(row: Setting, body: dict, path: str, prefix: str = ""):
    """``row``'s value at the dotted ``path`` of the config object ``body``,
    named ``prefix + path``: its default where the key is absent, or null
    with no default, unless the key is required."""
    *sections, leaf = path.split(".")
    for section in sections:
        body = _typed(body.get(section, {}), "object", prefix + section)
    absent = leaf not in body or (body[leaf] is None and row.default is None)
    if absent and path not in _REQUIRED:
        return row.default
    name = prefix + path
    value = _field(body, leaf, name.rpartition(".")[0], row.kind, name)
    return _checked(row, value, value, name, ConfigError)


def _resolve(args) -> tuple[argparse.Namespace, dict]:
    """Every setting of ``args.command``, in table order: its flag when
    given, else its config key (a query key is read per query), else its
    default; and the config document that ``--config`` names."""
    values, config = {}, {}
    for row in _COMMAND_ROWS[args.command]:
        flag = getattr(args, row.dest)
        if flag is not None and flag is not False:  # a switch not given is False
            value = flag
            if row.kind == "numbers":
                value = _floats(flag, row.flag)
            elif row.kind == "strings":
                value = flag.split(",") if flag else []
            value = _checked(row, value, flag, row.flag, PocError)
        elif row.key is not None and not row.key.startswith("queries[]."):
            value = _read(row, config, row.key)
        else:
            value = row.default[args.quick] if isinstance(row.default, tuple) else row.default
        values[row.dest] = value
        if row.dest == "config" and value is not None:
            config = _load_config(value)
    return argparse.Namespace(**values), config


def _write(flag: str, path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, the value of ``flag``, or to standard
    output when the flag is not given."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PocError(f"{flag}: cannot write {path!r}: {exc.strerror or exc}") from None


def _parse_node(spec, where: str):
    spec = _typed(spec, "object", where)
    if "logistic" in spec:
        where = f"{where}.logistic"
        body = _typed(spec["logistic"], "object", where)
        return LogisticNode(
            _field(body, "intercept", where, "number"),
            _typed(body.get("coefs", []), "numbers", f"{where}.coefs"),
        )
    if "table" in spec:
        where = f"{where}.table"
        cells = {}
        for cell in _typed(spec["table"], "cells", where):
            cell = _typed(cell, "object", f"{where} cell")
            key = tuple(_typed(cell.get("parents", []), "numbers", f"{where} cell parents"))
            if key in cells:
                raise ConfigError(f"{where} has two cells for parents {list(key)!r}")
            cells[key] = (
                _field(cell, "cuts", f"{where} cell", "numbers", f"{where} cell cuts"),
                _field(cell, "values", f"{where} cell", "numbers", f"{where} cell values"),
            )
        return TableNode(cells)
    raise ConfigError(f"unknown node spec {sorted(spec)!r}")


def _parse_scm(doc: dict) -> ScmSpec:
    body = _typed(doc["scm"], "object", "scm") if "scm" in doc else doc
    covariates = None
    if body.get("covariates"):
        covariates = []
        for entry in _typed(body["covariates"], "list", "scm.covariates"):
            entry = _typed(entry, "object", "scm.covariates entry")
            covariates.append((
                tuple(_field(entry, "values", "scm.covariates entry", "numbers",
                             "scm.covariates values")),
                _field(entry, "weight", "scm.covariates entry", "number", "scm.covariates weight"),
            ))
        covariates = tuple(covariates)
    return ScmSpec(
        treatment=_parse_node(_field(body, "treatment", "scm"), "scm.treatment"),
        mediator=_parse_node(_field(body, "mediator", "scm"), "scm.mediator"),
        outcome=_parse_node(_field(body, "outcome", "scm"), "scm.outcome"),
        covariates=covariates,
    )


def _load_config(path: str) -> dict:
    """The config document at ``path``, read as UTF-8 without one leading
    byte-order mark; a file that cannot be read raises
    :class:`ConfigError` naming the path and the reason, text that is not
    UTF-8 or not JSON one naming the byte, or the line and column, and so
    does JSON nested too deeply for the parser."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read the config document {path!r}: "
                          f"{exc.strerror or exc}") from None
    try:
        doc = json.loads(_decode(raw))
    except ParseError as exc:
        raise ConfigError(f"the config document: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"the config document: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ConfigError("the config document: nested too deeply to read") from None
    return _typed(doc, "object", "the config document")


def _resolve_scm(settings, config: dict) -> ScmSpec:
    if settings.preset is not None:
        return _PRESETS[settings.preset]()
    if "scm" in config or {"treatment", "mediator", "outcome"} <= set(config):
        return _parse_scm(config)
    raise PocError("no structural model given (use --preset or a config document)")


def _queries(settings, config: dict) -> list[tuple[str | None, dict]]:
    """The value of each query row, by its path, for each query object of
    the config document and then for the query that the flags give, each
    after the prefix of its keys (``queries[i].``), or None for the flags."""
    queries = []
    for i, spec in enumerate(_typed(config.get("queries", []), "objects", "queries")):
        spec = _typed(spec, "object", f"queries[{i}]")
        evidence = spec.get("evidence") is not None  # null evidence is no evidence
        queries.append((f"queries[{i}].", {path: _read(row, spec, path, f"queries[{i}].")
                        if evidence or not path.startswith("evidence.") else row.default
                        for path, row in _QUERY_ROWS.items()}))
    flags = {path: getattr(settings, row.dest) for path, row in _QUERY_ROWS.items()}
    given = [path for path, row in _QUERY_ROWS.items() if flags[path] != row.default]
    for path in given:
        if path.startswith("evidence.") and "evidence.x_star" not in given:
            raise PocError(f"{_QUERY_ROWS[path].flag} needs --evidence-x")
    if given:
        if not {"x_base", "x_alt", "y"} <= set(given):
            raise PocError("a query needs --x-base, --x-alt, and --y together")
        queries.append((None, flags))
    if not queries:
        raise PocError("no queries: pass --x-base/--x-alt/--y or a config document")
    return queries


def _interval(values: dict, axis: str, prefix: str | None) -> Interval | None:
    """The ``axis`` interval of a query's evidence, if given; its error, if
    :class:`Interval` refuses it, names the flag or the key after ``prefix``."""
    path = f"evidence.{axis}_interval"
    if values[path] is None:
        return None
    try:
        return Interval(*values[path], upper_closed=values[f"evidence.{axis}_upper_closed"])
    except InvalidEvidenceError as exc:
        name = _QUERY_ROWS[path].flag if prefix is None else prefix + path
        raise InvalidEvidenceError(f"{name}: {exc}") from None


def _query(prefix: str | None, values: dict) -> tuple[Query, Evidence | None, Evidence | None]:
    """One query, and its evidence for the natural family (x*, Y
    interval[, M interval]) and for the controlled-direct family, which
    also needs the exact mediator value m*."""
    stratum = values["stratum"]
    q = Query(x_base=values["x_base"], x_alt=values["x_alt"], y_threshold=values["y"],
              m_fixed=values["m_fixed"], c_stratum=tuple(stratum) if stratum else None)
    x_star = values["evidence.x_star"]
    if x_star is None:
        return q, None, None
    interval_y, interval_m = (_interval(values, axis, prefix) for axis in "ym")
    natural = Evidence(x_star=x_star, interval_y=interval_y or Interval.full(),
                       interval_m=interval_m)
    m_star = values["evidence.m_star"]
    cd = None if m_star is None else Evidence(x_star=x_star, interval_y=natural.interval_y,
                                              m_star=m_star)
    return q, natural, cd


def _families(settings, q: Query) -> list[str]:
    """The requested families that apply to ``q``: ``cd`` needs ``m_fixed``."""
    return [family for family in settings.families if family != "cd" or q.m_fixed is not None]


def _echo_query(values: dict) -> dict:
    """A query's settings as its report block states them."""
    echo = {"x_base": values["x_base"], "x_alt": values["x_alt"], "y_threshold": values["y"],
            "m_fixed": values["m_fixed"], "c_stratum": values["stratum"] or None, "evidence": None}
    if values["evidence.x_star"] is not None:
        y_interval, m_interval = values["evidence.y_interval"], values["evidence.m_interval"]
        echo["evidence"] = {
            "x_star": values["evidence.x_star"],
            "y_interval": y_interval or [-math.inf, math.inf],
            "y_upper_closed": y_interval is not None and values["evidence.y_upper_closed"],
            "m_star": values["evidence.m_star"],
            "m_interval": m_interval,
            "m_upper_closed": None if m_interval is None else values["evidence.m_upper_closed"],
        }
    return echo


def _estimate_block(settings, source, qi, values, q, natural_e, cd_e):
    """The report block of query ``qi``: bootstrapped from ``source``, the
    :class:`RowCounts` of the query's stratum, or without a bootstrap read
    from ``source``, the :class:`CdfModel` of that stratum."""
    boot_cfg = None
    if settings.replicates >= 2:
        boot_cfg = BootstrapConfig(replicates=settings.replicates, level=settings.level,
                                   seed=(settings.seed * 1_000_003 + qi * 97) % (2**63))
    block = {"query": _echo_query(values), "families": {}, "warnings": []}
    estimands = {"pns": ("natural", natural_e), "cd": ("cd", cd_e), "pn": ("pn", None),
                 "ps": ("ps", None)}
    targets = {
        family: estimator_target(kind, q, evidence=evidence,
                                 mediator_monotone=settings.assume_mediator_monotone)
        for family, (kind, evidence) in estimands.items()
        if family in _families(settings, q)
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", MediatorMonotonicityWarning)
        if boot_cfg is not None:
            results = bootstrap_ci(source, targets, boot_cfg)
        else:
            results = {family: target(source) for family, target in targets.items()}
    for w in caught:
        message = str(w.message)
        if message not in block["warnings"]:
            block["warnings"].append(message)
    for family, result in results.items():
        if boot_cfg is not None:
            quantities = {
                key: {
                    "point": ci.point,
                    "ci_lower": ci.lower,
                    "ci_upper": ci.upper,
                    "replicate_mean": ci.replicate_mean,
                    "degenerate_count": ci.degenerate_count,
                }
                for key, ci in result.items()
            }
        else:
            quantities = {
                key: {"point": value, "ci_lower": None, "ci_upper": None}
                for key, value in result.items()
                if value is not None
            }
        block["families"][family] = {"case_flag": result.case_flag, "quantities": quantities}
    return block


def cmd_estimate(args) -> int:
    s, config = _resolve(args)
    if s.input is None:
        raise PocError("no input table (use --input or the config document)")
    dataset = load_dataset(s.input, ColumnRoles(s.x_col, s.m_col, s.y_col, tuple(s.c_cols)))

    parsed = [(prefix, values, *_query(prefix, values)) for prefix, values in _queries(s, config)]
    # each stratum's rows are coded once: the count table holds its treatment
    # support, and the queries of that stratum share its RowCounts for the
    # bootstrap, or without one the CdfModel of its table
    counters, tables = {}, {}
    for prefix, _, q, _, _ in parsed:
        table = tables.get(q.c_stratum)
        if table is None:
            counters[q.c_stratum] = RowCounts(dataset, q.c_stratum)
            table = tables[q.c_stratum] = counters[q.c_stratum].table()
        for level, name in ((q.x_base, "x_base"), (q.x_alt, "x_alt")):
            if level not in table.x:
                raise PositivityError(
                    f"{name} level {level!r} not present in the treatment support"
                )
        if not _families(s, q):
            who, key = ("the query of the flags", "--m-fixed") if prefix is None else (
                prefix[:-1], "m_fixed")
            raise PocError(f"no requested family applies to {who}: cd needs {key}")

    report = new_report(str(s.input), dataset.n, s.seed)
    sources = counters if s.replicates else {c: CdfModel(table, c) for c, table in tables.items()}
    report["queries"] = [_estimate_block(s, sources[q.c_stratum], qi, values, q, *e)
                         for qi, (_, values, q, *e) in enumerate(parsed)]
    text = render_json(report) if s.out is not None or s.format == "json" else None
    if s.out is not None:
        _write("--out", s.out, text)
    sys.stdout.write(text if s.format == "json" else render_estimate_table(report))
    return EXIT_OK


def cmd_simulate(args) -> int:
    s, config = _resolve(args)
    scm = _resolve_scm(s, config)
    if s.n is None:
        raise PocError("simulate needs --n, the number of rows")
    _write("--out", s.out, sample_observational(scm, s.n, seed=s.seed).to_csv())
    return EXIT_OK


def cmd_verify(args) -> int:
    s, _ = _resolve(args)
    sizes = (100, 1000) if s.quick else (100, 1000, 10000)

    def beside():
        return (
            _fork.held(verification.estimation_rows, seed=s.seed, replicates=s.replicates,
                       sizes=sizes),
            _fork.held(verification.decomposition_suite, n_scms=s.decomposition, seed=s.seed),
        )

    # the parts are separately seeded, so running two at once changes no
    # figure; their warnings and errors are released in the serial order.
    # Once its part is done, the child checks the back half of the
    # equivalence models the parent has not reached, if any are left.
    with _fork.beside(beside, helps=True) as child:
        rows = verification.exact_truth_rows()
        equivalence = _fork.held(verification.equivalence_suite, n_scms=s.scms, seed=s.seed,
                                 _map=child.map)
        estimation, decomposition = child.join()
    rows.extend(_fork.release(estimation))
    eq = _fork.release(equivalence)
    rows.extend(verification.suite_rows(eq, _fork.release(decomposition)))
    rows.extend(verification.exclusion_notes())
    table = render_verify_table(rows, f"pocmed {__version__} verification (seed {s.seed})")
    sys.stdout.write(table)
    if s.out is not None:
        payload = {
            "version": __version__,
            "seed": s.seed,
            "rows": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in rows
            ],
        }
        _write("--out", s.out, render_json(payload))
    failed = [r for r in rows if r.passed is False]
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def _sweep_grid(grid, levels) -> list[float]:
    if grid is not None:
        return grid
    grid = sorted(set(levels))
    mids = [0.5 * (a + b) for a, b in zip(grid, grid[1:])]
    return sorted(grid[1:] + mids)


def _require_one_covariate(count: int) -> None:
    if count != 1:
        raise PocError(
            f"a covariate sweep needs exactly one covariate column, got {count}: "
            "each grid value names one stratum"
        )


def _sweep_surfaces(s, config: dict):
    """The grid of a sweep, and a function from a grid value to the CDF
    surface it is measured on: a :class:`CdfModel` of the ``--input``
    table or an :class:`AnalyticCdf` of the model, the one shared surface
    on a ``y`` sweep, else one per value."""
    if s.input is not None:
        roles = ColumnRoles(s.x_col, s.m_col, s.y_col, tuple(s.c_cols))
        dataset = load_dataset(s.input, roles)
        if s.grid_over == "y":
            model = CdfModel(dataset)
            return _sweep_grid(s.grid, np.unique(dataset.y).tolist()), lambda v: model
        if s.grid_over != "covariate":
            raise PocError("empirical sweeps support --grid-over y or covariate")
        if not roles.c:
            raise PocError("covariate sweep needs covariate columns (--c-cols)")
        _require_one_covariate(len(roles.c))
        grid = s.grid
        if grid is None:
            grid = sorted(np.unique(dataset.column(roles.c[0])).tolist())
        return grid, lambda v: CdfModel(dataset, (v,))
    scm = _resolve_scm(s, config)
    if s.grid_over == "y":
        model = AnalyticCdf(scm)
        return _sweep_grid(s.grid, model.outcome_levels()), lambda v: model
    if s.grid_over == "covariate":
        if scm.covariates is None:
            raise PocError("the model has no covariates to sweep over")
        if s.grid is not None:
            raise PocError("--grid does not apply to a model covariate sweep, "
                           "which runs every covariate stratum")
        strata = [c for c, _ in scm.covariate_support()]
        _require_one_covariate(len(strata[0]))
        return [c[0] for c in strata], lambda v: AnalyticCdf(scm, (v,))
    if not isinstance(scm.mediator, LogisticNode):
        raise PocError("mediator-intercept sweep needs a logistic mediator node")
    if s.grid is None:
        raise PocError("parameter sweep needs --grid with explicit values")
    return s.grid, lambda v: AnalyticCdf(
        dataclasses.replace(scm, mediator=LogisticNode(v, scm.mediator.coefs)))


def cmd_sweep(args) -> int:
    s, config = _resolve(args)
    if s.x_base is None or s.x_alt is None:
        raise PocError("sweep needs --x-base and --x-alt")
    if s.grid_over != "y" and s.y is None:
        raise PocError(f"a {s.grid_over} sweep needs --y")
    if s.grid_over == "y" and s.y is not None:
        raise PocError("--y does not apply to a y sweep, whose grid gives the outcome thresholds")
    grid, surface = _sweep_surfaces(s, config)
    lines, warned = ["grid,quantity,value,status"], []
    series: dict[str, list[float]] = {"t_pns": [], "nd_pns": [], "ni_pns": []}
    for value in grid:
        q = Query(x_base=s.x_base, x_alt=s.x_alt, m_fixed=s.m_fixed,
                  y_threshold=value if s.grid_over == "y" else s.y)
        try:
            model = surface(value)
            a, b, r, low, high = identify._margin_inputs(model, "natural", q)
            nd, ni, _, _ = identify._clipped(a, b, r, low, high)
            triple = identify._make_triple(nd, ni, identify.CASE_UNCONDITIONAL)
            quantities = {"t_pns": triple.t_pns, "nd_pns": triple.nd_pns,
                          "ni_pns": triple.ni_pns, "cdf_base": a, "cdf_alt": b,
                          "crossworld": r}
            if s.m_fixed is not None:
                quantities["cd_pns"] = identify.cd_pns(model, q)
        except PositivityError as exc:
            quantities = {}
            lines.append(f"{value!r},-,nan,positivity: {exc}")
            warned.append(f"warning: grid {value}: {exc}")
        lines.extend(f"{value!r},{key},{val!r},ok" for key, val in quantities.items())
        for key in series:
            series[key].append(quantities.get(key, float("nan")))

    for message in warned:
        print(message, file=sys.stderr)
    if s.svg is not None and not any(v == v for values in series.values() for v in values):
        raise PocError(f"--svg {s.svg}: no grid point has a value to plot")
    _write("--out", s.out, "\n".join(lines) + "\n")
    if s.svg is not None:
        _write("--svg", s.svg, render_line_chart(grid, series, x_label=s.grid_over))
    return EXIT_OK


_COMMANDS = {
    "estimate": (cmd_estimate, "estimate from a CSV table"),
    "simulate": (cmd_simulate, "sample an observational CSV from a model"),
    "verify": (cmd_verify, "check the stack against exact truths"),
    "sweep": (cmd_sweep, "evaluate measures over a grid"),
}
#: the argparse options of each kind; the others take the text as given
_ARGPARSE = {"integer": {"type": int}, "number": {"type": float},
             "boolean": {"action": "store_true"}}


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses text with a :class:`PocError`, not an
    exit; ``add_subparsers`` makes each command's parser one too."""

    def error(self, message):
        raise PocError(message)


def _out_given(argv) -> str | None:
    """The ``--out`` of a command line that the parser refused, read alone
    (None for ``--out`` with no value)."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--out", nargs="?")
    return probe.parse_known_args(argv)[0].out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pocmed",
        description="direct and indirect probabilities of causation with mediation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for row in _COMMAND_ROWS[command]:
            options = _ARGPARSE.get(row.kind, {})
            if row.kind == "choice":
                options = {"choices": row.rule[1], "default": row.default}
            p.add_argument(row.flag, help=row.help, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PocError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        out = _out_given(argv) if args is None else args.out
        if out:
            payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            try:
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(render_json(payload))
            except OSError as write_exc:
                print(f"error: the error block could not be written to {out!r}: "
                      f"{write_exc.strerror or write_exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
