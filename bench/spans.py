"""Per-layer spans for pocmed, recorded from outside the package.

:class:`Tracer` rebinds public functions and methods of pocmed's modules
to wrappers that record one span per call: name, start, end, parent span
and the CLI command it ran under.  Module-level functions are rebound on
their home module *and* in every other ``pocmed`` module that imported
them by name (``pocmed.cli.bootstrap_ci``, ``pocmed.verification.
truth_pns``, ...); methods are patched on their class, which covers every
caller.  Nothing under ``src/`` changes, and :meth:`Tracer.uninstall`
restores the originals, so untraced runs pay nothing.

A target that a later version of pocmed no longer has is listed in
``Tracer.absent`` and its metrics read 0; it is never an error.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from statistics import median


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "command", "error")

    def __init__(self, sid, parent, name, start, end=0.0, command=0, error=None):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.command = command
        self.error = error


# -- counters taken at the layer boundaries ------------------------------------


def _rows_loaded(counters, args, kwargs, result):
    counters["data.load_dataset.rows"] += result.n


def _csv_bytes(counters, args, kwargs, result):
    counters["data.Dataset.to_csv.bytes"] += len(result)


def _rows_taken(counters, args, kwargs, result):
    counters["data.Dataset.take.rows"] += result.n


def _cells_built(counters, args, kwargs, result):
    model = args[0]
    counters["ecdf.cells"] += sum(len(model.mediator_support(x)) for x in model.x_levels())


def _replicates_drawn(counters, args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    counters["bootstrap.replicates"] += cfg.replicates


def _equivalence_counts(counters, args, kwargs, result):
    counters["verification.checks"] += result["n_checks"]
    counters["verification.accepted"] += result["accepted"]
    counters["verification.rejected"] += result["rejected"]


def _decomposition_counts(counters, args, kwargs, result):
    counters["verification.checks"] += result["n_triples"]


def _rendered_bytes(counters, args, kwargs, result):
    counters["report.bytes"] += len(result)


_ECDF_QUERIES = (
    "cdf_y_given_x",
    "cdf_y_given_xm",
    "mediator_pmf",
    "joint_cdf_ym_given_x",
    "crossworld_cdf",
)
_IDENTIFY_OPS = (
    "natural_pns",
    "cd_pns",
    "natural_pns_with_evidence",
    "natural_pns_with_mediator_evidence",
    "cd_pns_with_evidence",
    "pn_family",
    "ps_family",
)

#: (span name, module, attribute path, counter hook); several attributes
#: may share one span name, which then aggregates them.  The
#: ``estimator_target`` entry traces the callables that factory returns.
TARGETS = (
    ("data.load_dataset", "pocmed.data", "load_dataset", _rows_loaded),
    ("data.Dataset.to_csv", "pocmed.data", "Dataset.to_csv", _csv_bytes),
    ("data.Dataset.take", "pocmed.data", "Dataset.take", _rows_taken),
    ("data.stratify", "pocmed.data", "stratify", None),
    ("ecdf.CdfModel", "pocmed.ecdf", "CdfModel.__init__", _cells_built),
    *(("ecdf.query", "pocmed.ecdf", f"CdfModel.{q}", None) for q in _ECDF_QUERIES),
    *(("identify", "pocmed.identify", op, None) for op in _IDENTIFY_OPS),
    ("bootstrap.bootstrap_ci", "pocmed.bootstrap", "bootstrap_ci", _replicates_drawn),
    ("bootstrap.target", "pocmed.bootstrap", "estimator_target", None),
    ("oracle.sample_observational", "pocmed.oracle", "sample_observational", None),
    ("oracle.truth", "pocmed.oracle", "truth_pns", None),
    ("oracle.truth", "pocmed.oracle", "truth_with_evidence", None),
    ("oracle.truth", "pocmed.oracle", "truth_effects", None),
    ("oracle.check_monotonicity", "pocmed.oracle", "check_monotonicity", None),
    *(("oracle.AnalyticCdf.query", "pocmed.oracle", f"AnalyticCdf.{q}", None)
      for q in _ECDF_QUERIES),
    ("verification.equivalence_suite", "pocmed.verification", "equivalence_suite",
     _equivalence_counts),
    ("verification.decomposition_suite", "pocmed.verification", "decomposition_suite",
     _decomposition_counts),
    ("verification.estimation_rows", "pocmed.verification", "estimation_rows", None),
    ("report.render", "pocmed.report", "render_json", _rendered_bytes),
    ("report.render", "pocmed.report", "render_estimate_table", _rendered_bytes),
    ("report.render", "pocmed.report", "render_verify_table", _rendered_bytes),
    ("chart.render_line_chart", "pocmed.chart", "render_line_chart", None),
)

#: Spans whose self time is reported, as ``<name>.self_s``.
SELF_TIME_SPANS = (
    "data.load_dataset",
    "data.Dataset.to_csv",
    "data.Dataset.take",
    "ecdf.CdfModel",
    "ecdf.query",
    "identify",
    "bootstrap.bootstrap_ci",
    "oracle.sample_observational",
    "oracle.truth",
    "oracle.check_monotonicity",
    "oracle.AnalyticCdf.query",
    "verification.equivalence_suite",
    "verification.decomposition_suite",
    "verification.estimation_rows",
    "report.render",
    "chart.render_line_chart",
    "cli",
)

#: Spans whose entries are counted, as ``<name>.calls``.
CALL_SPANS = (
    "data.Dataset.take",
    "data.stratify",
    "ecdf.CdfModel",
    "ecdf.query",
    "identify",
    "bootstrap.target",
    "oracle.truth",
    "oracle.check_monotonicity",
)

COUNTERS = (
    "data.load_dataset.rows",
    "data.Dataset.to_csv.bytes",
    "data.Dataset.take.rows",
    "ecdf.cells",
    "bootstrap.replicates",
    "verification.checks",
    "report.bytes",
)

#: The root span opened around each CLI command; its self time is the
#: command time that no layer span covers.
ROOT = "cli"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._next_sid = 0
        self._next_command = 0
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        self._next_sid += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(
            self._next_sid,
            parent.sid if parent else None,
            name,
            time.perf_counter(),
            command=self._next_command,
        )
        self._stack.append(span)
        return span

    def _close(self, span: Span, error=None) -> None:
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span, type(exc).__name__)
                raise
            tracer._close(span)
            if hook is not None:
                try:
                    hook(tracer.counters, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    if hook.__name__ not in tracer.absent:
                        tracer.absent.append(hook.__name__)
            return result

        return traced

    def command(self, fn, *args):
        """Run one CLI command under a fresh root span and command id."""
        self._next_command += 1
        return self.wrap(ROOT, fn)(*args)

    # -- installing the wrappers ---------------------------------------------

    def _trace_targets(self, factory):
        """Wrap ``estimator_target`` so that the callable it builds, which the
        bootstrap runs once per replicate, records ``bootstrap.target``."""
        wrap = self.wrap

        @functools.wraps(factory)
        def estimator_target(*args, **kwargs):
            return wrap("bootstrap.target", factory(*args, **kwargs))

        return estimator_target

    def install(self) -> None:
        packages = {
            name: mod for name, mod in sys.modules.items()
            if name == "pocmed" or name.startswith("pocmed.")
        }
        for name, module_name, path, hook in TARGETS:
            owner = packages.get(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}:{path}")
                continue
            if name == "bootstrap.target":
                wrapper = self._trace_targets(original)
            else:
                wrapper = self.wrap(name, original, hook)
            if isinstance(owner, type):
                self._restore.append((owner, attr, owner.__dict__.get(attr)))
                setattr(owner, attr, wrapper)
                continue
            for mod in packages.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        """Start a new pass: drop the spans and counters recorded so far."""
        self.spans = []
        self.counters = defaultdict(int)

    @staticmethod
    def dump(path, passes) -> None:
        """Write the spans of every traced pass as gzipped JSON lines: a
        header line naming the fields, then one array per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["pass", *Span.__slots__]}) + "\n")
            for index, spans in enumerate(passes):
                for span in spans:
                    row = [index, *(getattr(span, k) for k in Span.__slots__)]
                    fh.write(json.dumps(row) + "\n")


# -- aggregation -----------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus the union of the
    intervals its children cover, clipped to the span."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        run_start = run_end = None
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if run_end is None or start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = start, end
            else:
                run_end = max(run_end, end)
        if run_end is not None:
            covered += run_end - run_start
        out[span.sid] = (span.end - span.start) - covered
    return out


def pass_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``<name>.calls`` counts entries into a span name from outside it: a
    call made from inside a span of the same name (``pn_family`` calling
    ``natural_pns_with_evidence``) is part of the outer call.
    """
    by_sid = {span.sid: span for span in spans}
    own = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    degenerate = 0
    for span in spans:
        self_s[span.name] += own[span.sid]
        parent = by_sid.get(span.parent)
        if parent is None or parent.name != span.name:
            calls[span.name] += 1
        if (
            span.name == "bootstrap.target"
            and span.error == "PositivityError"
            and parent is not None
            and parent.name == "bootstrap.bootstrap_ci"
        ):
            degenerate += 1
    out: dict[str, float] = {}
    for name in SELF_TIME_SPANS:
        out[f"{name}.self_s"] = self_s[name]
    for name in CALL_SPANS:
        out[f"{name}.calls"] = calls[name]
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    replicates = out["bootstrap.replicates"]
    out["bootstrap.degenerate"] = degenerate
    out["bootstrap.useful_ratio"] = (
        (replicates - degenerate) / replicates if replicates else 0.0
    )
    out["ecdf.builds_per_replicate"] = (
        out["ecdf.CdfModel.calls"] / replicates if replicates else 0.0
    )
    tried = counters.get("verification.accepted", 0) + counters.get("verification.rejected", 0)
    out["verification.accept_ratio"] = (
        counters.get("verification.accepted", 0) / tried if tried else 0.0
    )
    return out


def merge_passes(per_pass: list[dict]) -> dict[str, float]:
    """Times are medians over the traced passes; counts and ratios come from
    the first pass, since every pass runs the same inputs."""
    first = per_pass[0]
    return {
        name: median(p[name] for p in per_pass) if name.endswith("_s") else first[name]
        for name in first
    }
