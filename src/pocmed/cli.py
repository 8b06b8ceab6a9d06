"""Command-line front end.

Commands:

* ``estimate``: probabilities-of-causation families from a CSV table,
  with bootstrap confidence intervals.
* ``simulate``: draw an observational CSV from a structural model
  (built-in preset or config document).
* ``verify``: self-contained check of the estimator stack against exact
  model truths and recorded reference values; exit 1 on any failed row.
  Where ``os.fork`` exists, a child process computes the estimation rows
  and the decomposition suite while this one runs the equivalence suite.
* ``sweep``: evaluate the measures over a grid (outcome thresholds,
  covariate values, or a mediator threshold parameter) and emit
  plot-ready rows plus an optional SVG chart.

Exit codes: 0 success, 1 verification failure, 2 usage or data error.
A config document (JSON) may carry the same settings as the flags; flags
override the document.  Identical inputs and seed produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import signal
import sys
import warnings

import numpy as np

from . import __version__, identify
from .bootstrap import BootstrapConfig, bootstrap_ci, estimator_target
from .chart import render_line_chart
from .data import (
    ColumnRoles,
    Dataset,
    Evidence,
    Interval,
    Query,
    _decode,
    load_dataset,
    stratum_mask,
)
from .ecdf import CdfModel
from .errors import ConfigError, ParseError, PocError, PositivityError
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


def _parse_interval(text: str, upper_closed: bool) -> Interval:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise PocError(f"interval must be 'L,U', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise PocError(f"cannot parse interval endpoints {text!r}") from None
    return Interval(lo, hi, upper_closed=upper_closed)


def _floats(text: str, flag: str) -> list[float]:
    """The numbers of a comma-separated flag value."""
    values = []
    for part in text.split(","):
        try:
            values.append(float(part))
        except ValueError:
            raise PocError(f"{flag} takes comma-separated numbers, got {part!r}") from None
    return values


def _at_least(flag: str, value: int | None, least: int, default: int) -> int:
    """An integer flag's value, ``default`` when it is not given."""
    if value is None:
        return default
    if value < least:
        raise PocError(f"{flag} must be at least {least}, got {value}")
    return value


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def _field(body: dict, key: str, where: str):
    if key not in body:
        raise ConfigError(f"{where} has no {key!r} key")
    return body[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _numbers(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return [_number(v, where) for v in value]


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _strings(value, where: str) -> list[str]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of strings, got {value!r}")
    return [_string(v, where) for v in value]


def _parse_node(spec, where: str):
    spec = _mapping(spec, where)
    if "logistic" in spec:
        where = f"{where}.logistic"
        body = _mapping(spec["logistic"], where)
        return LogisticNode(
            _number(_field(body, "intercept", where), f"{where}.intercept"),
            _numbers(body.get("coefs", []), f"{where}.coefs"),
        )
    if "table" in spec:
        where = f"{where}.table"
        if not isinstance(spec["table"], list):
            raise ConfigError(f"{where} must be a list of cells, got {spec['table']!r}")
        cells = {}
        for cell in spec["table"]:
            cell = _mapping(cell, f"{where} cell")
            key = tuple(_numbers(cell.get("parents", []), f"{where} cell parents"))
            if key in cells:
                raise ConfigError(f"{where} has two cells for parents {list(key)!r}")
            cells[key] = (
                _numbers(_field(cell, "cuts", f"{where} cell"), f"{where} cell cuts"),
                _numbers(_field(cell, "values", f"{where} cell"), f"{where} cell values"),
            )
        return TableNode(cells)
    raise ConfigError(f"unknown node spec {sorted(spec)!r}")


def _parse_scm(doc: dict) -> ScmSpec:
    body = _mapping(doc["scm"], "scm") if "scm" in doc else doc
    covariates = None
    if body.get("covariates"):
        entries = body["covariates"]
        if not isinstance(entries, list):
            raise ConfigError(f"scm.covariates must be a list, got {entries!r}")
        covariates = []
        for entry in entries:
            entry = _mapping(entry, "scm.covariates entry")
            covariates.append((
                tuple(_numbers(_field(entry, "values", "scm.covariates entry"),
                               "scm.covariates values")),
                _number(_field(entry, "weight", "scm.covariates entry"),
                        "scm.covariates weight"),
            ))
        covariates = tuple(covariates)
    return ScmSpec(
        treatment=_parse_node(_field(body, "treatment", "scm"), "scm.treatment"),
        mediator=_parse_node(_field(body, "mediator", "scm"), "scm.mediator"),
        outcome=_parse_node(_field(body, "outcome", "scm"), "scm.outcome"),
        covariates=covariates,
    )


def _load_config(path: str | None) -> dict:
    """The config document at ``path``, read as UTF-8 without one leading
    byte-order mark; a file that cannot be read raises
    :class:`ConfigError` naming the path and the reason, text that is not
    UTF-8 or not JSON one naming the byte, or the line and column, and so
    does JSON nested too deeply for the parser."""
    if not path:
        return {}
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
    return _mapping(doc, "the config document")


def _resolve_scm(args, config: dict) -> ScmSpec:
    if getattr(args, "preset", None):
        if args.preset not in _PRESETS:
            raise PocError(
                f"unknown preset {args.preset!r}; available: {sorted(_PRESETS)}"
            )
        return _PRESETS[args.preset]()
    if "scm" in config or {"treatment", "mediator", "outcome"} <= set(config):
        return _parse_scm(config)
    raise PocError("no structural model given (use --preset or a config document)")


def _roles_from(args, config: dict) -> ColumnRoles:
    schema = _mapping(config.get("schema", {}), "schema")
    x = args.x_col or _string(schema.get("x", "x"), "schema.x")
    m = args.m_col or _string(schema.get("m", "m"), "schema.m")
    y = args.y_col or _string(schema.get("y", "y"), "schema.y")
    if args.c_cols is not None:
        c = tuple(s for s in args.c_cols.split(",") if s)
    else:
        c = tuple(_strings(schema.get("c", []), "schema.c"))
    return ColumnRoles(x, m, y, c)


def _interval_from(spec: dict, axis: str, where: str) -> Interval | None:
    """``spec["<axis>_interval"]``, a list of two numbers, closed above when
    ``spec["<axis>_upper_closed"]`` is true; None when absent."""
    bounds = spec.get(f"{axis}_interval")
    if bounds is None:
        return None
    bounds = _numbers(bounds, f"{where}.{axis}_interval")
    if len(bounds) != 2:
        raise ConfigError(
            f"{where}.{axis}_interval must be a list of two numbers, got {bounds!r}"
        )
    closed = _boolean(spec.get(f"{axis}_upper_closed", False), f"{where}.{axis}_upper_closed")
    return Interval(bounds[0], bounds[1], upper_closed=closed)


def _evidence_from_spec(spec, where: str):
    """Split one evidence description into the per-family evidence records:
    the natural family conditions on (x*, Y interval[, M interval]); the
    controlled-direct family additionally needs the exact mediator value."""
    if spec is None:
        return None, None
    spec = _mapping(spec, where)
    x_star = _number(_field(spec, "x_star", where), f"{where}.x_star")
    interval_y = _interval_from(spec, "y", where) or Interval.full()
    interval_m = _interval_from(spec, "m", where)
    natural = Evidence(x_star=x_star, interval_y=interval_y, interval_m=interval_m)
    cd = None
    if spec.get("m_star") is not None:
        m_star = _number(spec["m_star"], f"{where}.m_star")
        cd = Evidence(x_star=x_star, interval_y=interval_y, m_star=m_star)
    return natural, cd


def _queries_from(args, config: dict) -> list[dict]:
    queries = config.get("queries", [])
    if not isinstance(queries, list):
        raise ConfigError(f"queries must be a list of objects, got {queries!r}")
    queries = [_mapping(spec, f"queries[{i}]") for i, spec in enumerate(queries)]
    if args.evidence_x is None:
        for flag, value in (("--evidence-m", args.evidence_m), ("--y-interval", args.y_interval),
                            ("--m-interval", args.m_interval)):
            if value is not None:
                raise PocError(f"{flag} needs --evidence-x")
    flag_query = {}
    per_query = (args.x_base, args.x_alt, args.y, args.m_fixed, args.stratum, args.evidence_x)
    if any(value is not None for value in per_query):
        if args.x_base is None or args.x_alt is None or args.y is None:
            raise PocError("a query needs --x-base, --x-alt, and --y together")
        flag_query = {
            "x_base": args.x_base,
            "x_alt": args.x_alt,
            "y": args.y,
        }
        if args.m_fixed is not None:
            flag_query["m_fixed"] = args.m_fixed
        if args.stratum is not None:
            flag_query["stratum"] = _floats(args.stratum, "--stratum")
        evidence = {}
        if args.evidence_x is not None:
            evidence["x_star"] = args.evidence_x
            if args.y_interval:
                iv = _parse_interval(args.y_interval, args.y_upper_closed)
                evidence["y_interval"] = [iv.lower, iv.upper]
                evidence["y_upper_closed"] = iv.upper_closed
            if args.evidence_m is not None:
                evidence["m_star"] = args.evidence_m
            if args.m_interval:
                iv = _parse_interval(args.m_interval, args.m_upper_closed)
                evidence["m_interval"] = [iv.lower, iv.upper]
                evidence["m_upper_closed"] = iv.upper_closed
        if evidence:
            flag_query["evidence"] = evidence
        queries.append(flag_query)
    if not queries:
        raise PocError("no queries: pass --x-base/--x-alt/--y or a config document")
    return queries


def _query_from_spec(
    spec: dict, where: str
) -> tuple[Query, Evidence | None, Evidence | None]:
    natural_e, cd_e = _evidence_from_spec(spec.get("evidence"), f"{where}.evidence")
    m_fixed = spec.get("m_fixed")
    stratum = spec.get("stratum")
    stratum = () if stratum is None else tuple(_numbers(stratum, f"{where}.stratum"))
    q = Query(
        x_base=_number(_field(spec, "x_base", where), f"{where}.x_base"),
        x_alt=_number(_field(spec, "x_alt", where), f"{where}.x_alt"),
        y_threshold=_number(_field(spec, "y", where), f"{where}.y"),
        m_fixed=None if m_fixed is None else _number(m_fixed, f"{where}.m_fixed"),
        c_stratum=stratum or None,
    )
    return q, natural_e, cd_e


def _validate_query(dataset: Dataset, q: Query) -> None:
    mask = stratum_mask(dataset, q.c_stratum)
    support = set(np.unique(dataset.x if mask is None else dataset.x[mask]))
    for level, name in ((q.x_base, "x_base"), (q.x_alt, "x_alt")):
        if level not in support:
            raise PositivityError(
                f"{name} level {level!r} not present in the treatment support"
            )


def _echo_query(q: Query, natural_e, cd_e) -> dict:
    echo = {
        "x_base": q.x_base,
        "x_alt": q.x_alt,
        "y_threshold": q.y_threshold,
        "m_fixed": q.m_fixed,
        "c_stratum": list(q.c_stratum) if q.c_stratum else None,
        "evidence": None,
    }
    if natural_e is not None:
        echo["evidence"] = {
            "x_star": natural_e.x_star,
            "y_interval": [natural_e.interval_y.lower, natural_e.interval_y.upper],
            "y_upper_closed": natural_e.interval_y.upper_closed,
            "m_star": cd_e.m_star if cd_e is not None else None,
            "m_interval": (
                [natural_e.interval_m.lower, natural_e.interval_m.upper]
                if natural_e.interval_m is not None
                else None
            ),
            "m_upper_closed": (
                natural_e.interval_m.upper_closed
                if natural_e.interval_m is not None
                else None
            ),
        }
    return echo


def _estimate_block(dataset, q, natural_e, cd_e, families, boot_cfg, mediator_monotone,
                    models):
    """One query's report block.  Without a bootstrap the query reads the
    :class:`CdfModel` of its stratum from ``models``, built on first use
    and shared by the later queries of the same stratum."""
    block = {"query": _echo_query(q, natural_e, cd_e), "families": {}, "warnings": []}
    estimands = {"pns": ("natural", natural_e), "cd": ("cd", cd_e), "pn": ("pn", None),
                 "ps": ("ps", None)}
    targets = {
        family: estimator_target(kind, q, evidence=evidence, mediator_monotone=mediator_monotone)
        for family, (kind, evidence) in estimands.items()
        if family in families and (family != "cd" or q.m_fixed is not None)
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", MediatorMonotonicityWarning)
        if boot_cfg is not None:
            results = bootstrap_ci(dataset, targets, boot_cfg)
        else:
            model = models.get(q.c_stratum)
            if model is None:
                model = models[q.c_stratum] = CdfModel(dataset, q.c_stratum)
            results = {family: target(model) for family, target in targets.items()}
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


def _bootstrap_setting(args, boot: dict, key: str, default, parse):
    """A bootstrap setting from its flag, else from the config document's
    ``bootstrap`` object, with the name and error type to report it by."""
    value = getattr(args, key)
    if value is not None:
        return value, f"--{key}", PocError
    where = f"bootstrap.{key}"
    return parse(boot.get(key, default), where), where, ConfigError


def cmd_estimate(args) -> int:
    config = _load_config(args.config)
    input_path = args.input or config.get("input")
    if not input_path:
        raise PocError("no input table (use --input or the config document)")
    roles = _roles_from(args, config)

    families = args.families
    if families is None:
        families = ",".join(_strings(config.get("families", ["pns", "cd"]), "families"))
    elif not families:
        raise PocError(f"--families needs a comma list from {','.join(_FAMILY_ORDER)}, got ''")
    families = tuple(families.split(","))
    for family in families:
        if family not in _FAMILY_ORDER:
            raise PocError(f"unknown family {family!r}; choose from {_FAMILY_ORDER}")
    seed = args.seed if args.seed is not None else _integer(config.get("seed", 0), "seed")
    boot = _mapping(config.get("bootstrap", {}), "bootstrap")
    replicates, where, error = _bootstrap_setting(args, boot, "replicates", 1000, _integer)
    if replicates < 0 or replicates == 1:
        raise error(f"{where} must be 0 (no bootstrap) or at least 2, got {replicates}")
    # checked with or without a bootstrap, so that a bad level never passes
    level, where, error = _bootstrap_setting(args, boot, "level", 0.95, _number)
    if not 0.0 < level < 1.0:
        raise error(f"{where} must be inside (0, 1), got {level!r}")
    mediator_monotone = args.assume_mediator_monotone or _boolean(
        config.get("assume_mediator_monotone", False), "assume_mediator_monotone"
    )
    dataset = load_dataset(input_path, roles)

    specs = _queries_from(args, config)
    parsed = [_query_from_spec(spec, f"queries[{i}]") for i, spec in enumerate(specs)]
    for q, _, _ in parsed:
        _validate_query(dataset, q)

    report = new_report(str(input_path), dataset.n, seed)
    models = {}
    for qi, (q, natural_e, cd_e) in enumerate(parsed):
        boot_cfg = None
        if replicates >= 2:
            block_seed = (seed * 1_000_003 + qi * 97) % (2**63)
            boot_cfg = BootstrapConfig(replicates=replicates, level=level, seed=block_seed)
        block = _estimate_block(
            dataset, q, natural_e, cd_e, families, boot_cfg, mediator_monotone, models
        )
        report["queries"].append(block)

    text = render_json(report) if args.out or args.format == "json" else None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text if args.format == "json" else render_estimate_table(report))
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    scm = _resolve_scm(args, config)
    if args.n is None or args.n < 1:
        raise PocError("--n must be a positive row count")
    dataset = sample_observational(scm, args.n, seed=_at_least("--seed", args.seed, 0, 0))
    text = dataset.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


#: ``verify`` defaults, full and ``--quick``: estimation sample sizes,
#: replicates, equivalence and decomposition model counts
_VERIFY_DEFAULTS = {False: ((100, 1000, 10000), 1000, 50, 200), True: ((100, 1000), 200, 10, 50)}


def _held(fn, **kwargs):
    """``fn(**kwargs)`` with the warnings it shows held back: ``(shown,
    result, error)``, where ``error`` is the exception it raised, if any."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            result, error = fn(**kwargs), None
        except Exception as exc:  # raised again by _release, in serial order
            result, error = None, exc
    shown = [(w.message, w.category, w.filename, w.lineno, w.line) for w in caught]
    return shown, result, error


def _release(held):
    """Show the warnings of a :func:`_held` outcome, then raise its error
    or return its result."""
    shown, result, error = held
    for message, category, filename, lineno, line in shown:
        warnings.showwarning(message, category, filename, lineno, line=line)
    if error is not None:
        raise error
    return result


def _child(read_fd: int, write_fd: int, part) -> None:
    """The forked child: send ``(True, part())``, or ``(False, exc)`` for
    what it raised, down ``write_fd``, then leave through ``os._exit``, so
    that no buffer or atexit hook of the parent runs twice."""
    status = 1
    try:
        os.close(read_fd)
        try:
            outcome = True, part()
        except BaseException as exc:  # sent to the parent, which raises it
            outcome = False, exc
        data = pickle.dumps(outcome)  # if this raises, the parent reads no result
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def _beside(part):
    """Run ``part()`` in a forked child while the ``with`` block runs, and
    yield ``join``: it waits for the child and returns what ``part``
    returned, or raises what it raised.  Leaving the block reaps the
    child, and kills it first unless it was joined.  Where ``os.fork``
    does not exist, ``join`` runs ``part`` in-process."""
    if not hasattr(os, "fork"):
        yield part
        return
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _child(read_fd, write_fd, part)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    joined = False

    def join():
        nonlocal joined
        data = pipe.read()
        joined = True
        if not data:
            raise ChildProcessError("the child process ended without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield join
    finally:
        try:
            if not joined:
                os.kill(pid, signal.SIGKILL)
            pipe.close()
        finally:
            os.waitpid(pid, 0)


def cmd_verify(args) -> int:
    sizes, replicates, n_eq, n_dec = _VERIFY_DEFAULTS[args.quick]
    replicates = _at_least("--replicates", args.replicates, 2, replicates)
    n_eq = _at_least("--scms", args.scms, 0, n_eq)
    n_dec = _at_least("--decomposition", args.decomposition, 0, n_dec)
    seed = _at_least("--seed", args.seed, 0, 0)

    def beside():
        return (
            _held(verification.estimation_rows, seed=seed, replicates=replicates, sizes=sizes),
            _held(verification.decomposition_suite, n_scms=n_dec, seed=seed),
        )

    # the parts are separately seeded, so running two at once changes no
    # figure; their warnings and errors are released in the serial order
    with _beside(beside) as join:
        rows = verification.exact_truth_rows()
        equivalence = _held(verification.equivalence_suite, n_scms=n_eq, seed=seed)
        estimation, decomposition = join()
    rows.extend(_release(estimation))
    eq = _release(equivalence)
    rows.extend(verification.suite_rows(eq, _release(decomposition)))
    rows.extend(verification.exclusion_notes())
    table = render_verify_table(rows, f"pocmed {__version__} verification (seed {seed})")
    sys.stdout.write(table)
    if args.out:
        payload = {
            "version": __version__,
            "seed": seed,
            "rows": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in rows
            ],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(render_json(payload))
    failed = [r for r in rows if r.passed is False]
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def _sweep_grid(args, levels) -> list[float]:
    if args.grid is not None:
        return _floats(args.grid, "--grid")
    grid = sorted(set(levels))
    mids = [0.5 * (a + b) for a, b in zip(grid, grid[1:])]
    return sorted(grid[1:] + mids)


def _require_one_covariate(count: int) -> None:
    if count != 1:
        raise PocError(
            f"a covariate sweep needs exactly one covariate column, got {count}: "
            "each grid value names one stratum"
        )


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    if args.x_base is None or args.x_alt is None:
        raise PocError("sweep needs --x-base and --x-alt")
    rows = []
    warnings_list = []

    def measure(model, y_value):
        q = Query(x_base=args.x_base, x_alt=args.x_alt, y_threshold=y_value, m_fixed=args.m_fixed)
        a, b, r, low, high = identify._margin_inputs(model, "natural", q)
        nd, ni, _, _ = identify._clipped(a, b, r, low, high)
        triple = identify._make_triple(nd, ni, identify.CASE_UNCONDITIONAL)
        out = {
            "t_pns": triple.t_pns,
            "nd_pns": triple.nd_pns,
            "ni_pns": triple.ni_pns,
            "cdf_base": a,
            "cdf_alt": b,
            "crossworld": r,
        }
        if args.m_fixed is not None:
            out["cd_pns"] = identify.cd_pns(model, q)
        return out

    if args.input:
        roles = _roles_from(args, config)
        dataset = load_dataset(args.input, roles)
        if args.grid_over == "y":
            grid = _sweep_grid(args, np.unique(dataset.y).tolist())
            model = CdfModel(dataset)
            points = [(v, lambda v=v: measure(model, v)) for v in grid]
        elif args.grid_over == "covariate":
            if not roles.c:
                raise PocError("covariate sweep needs covariate columns (--c-cols)")
            _require_one_covariate(len(roles.c))
            if args.y is None:
                raise PocError("covariate sweep needs --y")
            grid = (
                _floats(args.grid, "--grid")
                if args.grid is not None
                else sorted(np.unique(dataset.column(roles.c[0])).tolist())
            )
            points = [
                (v, lambda v=v: measure(CdfModel(dataset, (v,)), args.y))
                for v in grid
            ]
        else:
            raise PocError("empirical sweeps support --grid-over y or covariate")
    else:
        scm = _resolve_scm(args, config)
        if args.grid_over == "y":
            model = AnalyticCdf(scm)
            grid = _sweep_grid(args, model.outcome_levels())
            points = [(v, lambda v=v: measure(model, v)) for v in grid]
        elif args.grid_over == "covariate":
            if scm.covariates is None:
                raise PocError("the model has no covariates to sweep over")
            if args.y is None:
                raise PocError("covariate sweep needs --y")
            if args.grid is not None:
                raise PocError("--grid does not apply to a model covariate sweep, "
                               "which runs every covariate stratum")
            strata = [c for c, _ in scm.covariate_support()]
            _require_one_covariate(len(strata[0]))
            points = [
                (c[0], lambda c=c: measure(AnalyticCdf(scm, c), args.y))
                for c in strata
            ]
        elif args.grid_over == "mediator-intercept":
            if args.y is None:
                raise PocError("parameter sweep needs --y")
            if not isinstance(scm.mediator, LogisticNode):
                raise PocError("mediator-intercept sweep needs a logistic mediator node")
            if args.grid is None:
                raise PocError("parameter sweep needs --grid with explicit values")
            grid = _floats(args.grid, "--grid")

            def model_at(v):
                shifted = ScmSpec(
                    treatment=scm.treatment,
                    mediator=LogisticNode(v, scm.mediator.coefs),
                    outcome=scm.outcome,
                    covariates=scm.covariates,
                )
                return AnalyticCdf(shifted)

            points = [(v, lambda v=v: measure(model_at(v), args.y)) for v in grid]
        else:
            raise PocError(f"unknown --grid-over {args.grid_over!r}")

    series: dict[str, list[float]] = {"t_pns": [], "nd_pns": [], "ni_pns": []}
    xs = []
    for value, compute in points:
        xs.append(value)
        try:
            quantities = compute()
            status = "ok"
        except PositivityError as exc:
            quantities = {}
            status = f"positivity: {exc}"
            warnings_list.append(f"grid {value}: {exc}")
        for key in series:
            series[key].append(quantities.get(key, float("nan")))
        if quantities:
            for key, val in quantities.items():
                rows.append((value, key, val, "ok"))
        else:
            rows.append((value, "-", float("nan"), status))

    for message in warnings_list:
        print(f"warning: {message}", file=sys.stderr)
    if args.svg and not any(v == v for values in series.values() for v in values):
        raise PocError(f"--svg {args.svg}: no grid point has a value to plot")
    lines = ["grid,quantity,value,status"]
    for value, key, val, status in rows:
        lines.append(f"{value!r},{key},{val!r},{status}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.svg:
        svg = render_line_chart(xs, series, x_label=args.grid_over)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return EXIT_OK


_COMMON = {
    "--config": {"help": "JSON config document"},
    "--out": {"help": "output path"},
    "--seed": {"type": int, "default": None, "help": "64-bit seed"},
    "--format": {"choices": ("json", "table"), "default": "table"},
}


def _add_common(p, *flags):
    """Declare the shared flags that the command reads."""
    for flag in flags:
        p.add_argument(flag, **_COMMON[flag])


def _add_schema(p):
    p.add_argument("--x-col", help="treatment column name (default x)")
    p.add_argument("--m-col", help="mediator column name (default m)")
    p.add_argument("--y-col", help="outcome column name (default y)")
    p.add_argument("--c-cols", help="comma-separated covariate column names")


def _add_query(p):
    p.add_argument("--x-base", type=float, help="base treatment level x'")
    p.add_argument("--x-alt", type=float, help="alternative treatment level x")
    p.add_argument("--y", type=float, help="outcome threshold")
    p.add_argument("--m-fixed", type=float, help="mediator value for cd quantities")
    p.add_argument("--stratum", help="comma-separated covariate stratum values")
    p.add_argument("--evidence-x", type=float, help="factual treatment level x*")
    p.add_argument("--evidence-m", type=float, help="factual mediator value m*")
    p.add_argument("--y-interval", help="factual outcome interval 'L,U'")
    p.add_argument(
        "--y-upper-closed", action="store_true", help="close the outcome interval"
    )
    p.add_argument("--m-interval", help="factual mediator interval 'L,U'")
    p.add_argument(
        "--m-upper-closed", action="store_true", help="close the mediator interval"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pocmed",
        description="direct and indirect probabilities of causation with mediation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate from a CSV table")
    _add_common(p_est, "--config", "--out", "--seed", "--format")
    _add_schema(p_est)
    _add_query(p_est)
    p_est.add_argument("--input", help="CSV input path")
    p_est.add_argument(
        "--families", help="comma list from pns,cd,pn,ps (default pns[,cd])"
    )
    p_est.add_argument("--replicates", type=int, help="bootstrap replicates (0 disables)")
    p_est.add_argument("--level", type=float, help="confidence level (default 0.95)")
    p_est.add_argument(
        "--assume-mediator-monotone",
        action="store_true",
        help="assert the mediator monotonicity condition for joint evidence",
    )
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="sample an observational CSV from a model")
    _add_common(p_sim, "--config", "--out", "--seed")
    p_sim.add_argument("--preset", help="built-in model name (logistic-bernoulli)")
    p_sim.add_argument("--n", type=int, help="number of rows")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="check the stack against exact truths")
    _add_common(p_ver, "--out", "--seed")
    p_ver.add_argument("--replicates", type=int, help="bootstrap replicates")
    p_ver.add_argument("--scms", type=int, help="equivalence-suite model count")
    p_ver.add_argument("--decomposition", type=int, help="decomposition-suite model count")
    p_ver.add_argument("--quick", action="store_true", help="small fast suite")
    p_ver.set_defaults(func=cmd_verify)

    p_sw = sub.add_parser("sweep", help="evaluate measures over a grid")
    _add_common(p_sw, "--config", "--out")
    _add_schema(p_sw)
    p_sw.add_argument("--input", help="CSV input path (empirical sweep)")
    p_sw.add_argument("--preset", help="built-in model name (analytic sweep)")
    p_sw.add_argument("--x-base", type=float)
    p_sw.add_argument("--x-alt", type=float)
    p_sw.add_argument("--y", type=float, help="outcome threshold (non-y sweeps)")
    p_sw.add_argument("--m-fixed", type=float)
    p_sw.add_argument(
        "--grid-over",
        choices=("y", "covariate", "mediator-intercept"),
        default="y",
    )
    p_sw.add_argument("--grid", help="comma-separated grid values")
    p_sw.add_argument("--svg", help="write an SVG line chart here")
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PocError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if getattr(args, "out", None):
            payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(render_json(payload))
            except OSError as write_exc:
                print(f"error: the error block could not be written to {args.out!r}: "
                      f"{write_exc.strerror or write_exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
