"""pocmed benchmark: one workload, closed loop, one client.

Usage (from the repository root)::

    python3 bench/run.py --workload boot-binary-10k --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0          # every workload in turn

One pass runs the workload's CLI commands one after another through
``pocmed.cli.main(argv)`` in this process; the next command starts only
when the previous one has returned.  A first pass warms up and has its
outputs checked in full; timed passes follow until ``--seconds`` have
elapsed, each checked for exit code 0 and byte-identical outputs.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics: it spends half the time on untraced passes and half on passes
with :class:`spans.Tracer` installed, and writes the spans to
``.bench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

#: Set-up is repeated this many times per untraced run, spread over the
#: measuring window so that one slow phase of the machine cannot own it,
#: and reported as the median.
SETUP_ROUNDS = 9

#: Seconds ``calibrate()`` takes on the 2-core machine the benchmark was
#: tuned on, in its usual state; ``norm_wall_s`` is scaled to it.
CALIB_REF_S = 0.06

E2E_UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
COMMAND_METRICS = ("simulate_s", "estimate_s", "sweep_s", "verify_s")


class BenchError(Exception):
    """The benchmark cannot run here (for example: no pocmed sources)."""


def import_pocmed():
    """Import pocmed from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "pocmed" / "__init__.py").is_file():
        raise BenchError(f"no pocmed sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pocmed
    import pocmed.cli

    if Path(pocmed.__file__).resolve().parent != (SRC / "pocmed").resolve():
        raise BenchError(f"imported pocmed from {pocmed.__file__}, not from {SRC}")
    return pocmed


def run_cli(argv, wrap=None) -> int:
    """Run one CLI command in-process with its console output captured.
    Returns its exit code; an escaped exception counts as exit code 3."""
    import pocmed.cli

    call = pocmed.cli.main if wrap is None else (lambda a: wrap(pocmed.cli.main, a))
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return call(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return 3


def time_import() -> float:
    """Seconds for a fresh interpreter to import pocmed, as a CLI user pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", "import pocmed.cli"], env=env)
    if done.returncode != 0:
        raise BenchError(f"importing pocmed in a fresh interpreter exited {done.returncode}")
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds for a fixed mix of numpy and Python work, written here and
    not using pocmed: resample, lexsort and searchsorted over 20k rows,
    Fraction sums, float formatting and parsing, as pocmed's layers do.
    Taken between passes, it tells how fast the machine runs at that moment;
    a change to pocmed does not move it."""
    import numpy as np

    rng = np.random.default_rng(20241219)
    n = 20_000
    cols = rng.integers(0, 4, (3, n)).astype(np.float64)
    start = time.perf_counter()
    acc = Fraction(0)
    for _ in range(12):
        idx = rng.integers(0, n, n)
        x, m, y = cols[0][idx], cols[1][idx], cols[2][idx]
        order = np.lexsort((y, m, x))
        xs, ms, ys = x[order], m[order], y[order]
        cells = {(float(xs[k]), float(ms[k])): ys[k:k + 500] for k in range(0, n, 500)}
        for cell in cells.values():
            acc += Fraction(int(np.searchsorted(cell, 2.0)), len(cell) + 1)
        text = "\n".join(",".join(repr(float(v)) for v in row) for row in cols[:, :400].T)
        acc += Fraction(sum(float(c) for line in text.splitlines() for c in line.split(",")))
    return time.perf_counter() - start


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload, seed, sizes, work: Path, digests: dict):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[Path, str] = {}

    def setup_round(self, where: Path) -> float:
        """One set-up: a fresh interpreter imports pocmed, then the inputs are
        generated into ``where``.  Returns its seconds scaled to the reference
        machine speed, like ``normalized_walls``."""
        shutil.rmtree(where, ignore_errors=True)
        where.mkdir(parents=True)
        before = calibrate()
        start = time.perf_counter()
        time_import()
        self.workload.setup(where, self.seed, self.sizes, self._setup_cli)
        seconds = time.perf_counter() - start
        return seconds * CALIB_REF_S / ((before + calibrate()) / 2)

    def _setup_cli(self, argv):
        code = run_cli(argv)
        if code != 0:
            raise BenchError(f"set-up command {argv[0]} exited {code}")

    def _record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"{name}: {detail}")

    def one_pass(self, tracer=None) -> dict[str, float]:
        """Run every command of the workload once; return seconds per label."""
        times = {}
        wrap = tracer.command if tracer is not None else None
        for label, argv in self.workload.steps(self.work, self.seed, self.sizes):
            start = time.perf_counter()
            code = run_cli(argv, wrap)
            times[label] = time.perf_counter() - start
            self._record(f"{label} exit code", code == 0, f"exited {code}")
        return times

    def check_first(self) -> None:
        try:
            checks = self.workload.check(self.work, self.seed, self.sizes, self.digests)
        except Exception as exc:  # a malformed output must not abort the run
            traceback.print_exc()
            checks = [workloads.Check("output checks ran", False, repr(exc))]
        for c in checks:
            self._record(c.name, c.ok, c.detail)
        for path in self.workload.outputs(self.work):
            self.reference[path] = workloads.file_digest(path) if path.exists() else ""

    def check_repeat(self) -> None:
        for path, want in self.reference.items():
            got = workloads.file_digest(path) if path.exists() else ""
            self._record(f"{path.name} identical across passes", got == want)

    def input_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.workload.inputs(self.work) if p.exists())


def timed_passes(run: Run, seconds: float, tracer=None, setups=None) -> list[dict]:
    """Closed loop: run passes until ``seconds`` have elapsed (at least one).

    ``calibrate()`` runs before the first pass and after each one; a pass's
    ``_calib`` is the mean of the two around it.  With ``setups`` given, the
    set-up is repeated between passes, spread over the window, until it
    holds ``SETUP_ROUNDS`` times."""
    passes = []
    start = time.perf_counter()
    calib = calibrate()
    while not passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.reset()
        times = run.one_pass(tracer)
        after = calibrate()
        times["_calib"], calib = (calib + after) / 2, after
        if tracer is not None:
            times["_spans"] = tracer.spans
            times["_counters"] = dict(tracer.counters)
        run.check_repeat()
        passes.append(times)
        elapsed = time.perf_counter() - start
        due = len(setups or ()) * seconds / SETUP_ROUNDS
        if setups is not None and len(setups) < SETUP_ROUNDS and elapsed >= due:
            setups.append(run.setup_round(run.work.parent / "setup"))
    while setups is not None and len(setups) < SETUP_ROUNDS:
        setups.append(run.setup_round(run.work.parent / "setup"))
    return passes


def speed(p: dict) -> float:
    """Factor that scales a pass's seconds to the reference machine speed."""
    return CALIB_REF_S / p["_calib"]


def pass_walls(passes) -> list[float]:
    return [sum(v for k, v in p.items() if not k.startswith("_")) for p in passes]


def normalized_walls(passes) -> list[float]:
    """Pass times scaled to the reference machine speed: seconds x
    ``CALIB_REF_S`` / the calibration time measured around that pass."""
    return [w * speed(p) for w, p in zip(pass_walls(passes), passes)]


def command_medians(passes) -> dict[str, float]:
    """Normalized median seconds of each CLI command; 0 for a command the
    workload does not run."""
    out = {}
    for metric in COMMAND_METRICS:
        label = metric[: -len("_s")]
        values = [p[label] * speed(p) for p in passes if label in p]
        out[metric] = median(values) if values else 0.0
    return out


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(pocmed, workload_bytes: dict) -> dict:
    import numpy

    lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "pocmed").glob("*.py"))
    )
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pocmed": pocmed.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "src_pocmed_lines": lines,
        "input_bytes": workload_bytes,
    }


def run_workload(name, seed, seconds, trace, sizes=workloads.FULL, digests=None,
                 work_root: Path = ROOT / ".bench_work", out_dir: Path = ROOT / ".bench_out") -> dict:
    """Run one workload and return its result object, plus ``passes``,
    ``problems``, ``input_bytes`` and, when traced, ``absent`` and
    ``counts_repeat``; untraced, also the raw median ``wall_s``."""
    workload = workloads.WORKLOADS[name]
    if digests is None:
        digests = load_digests() if seed == workloads.DEFAULT_SEED and sizes == workloads.FULL else {}
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        run = Run(workload, seed, sizes, work / "run", digests)
        setups = [run.setup_round(run.work)]
        run.one_pass()
        run.check_first()
        extra = {}
        if not trace:
            passes = timed_passes(run, seconds, setups=setups)
            metrics = {
                "norm_wall_s": median(normalized_walls(passes)),
                "setup_s": median(setups),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = E2E_UNITS
            extra["passes"] = len(passes)
            extra["wall_s"] = median(pass_walls(passes))
        else:
            plain = timed_passes(run, seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = timed_passes(run, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            per_pass = [
                {k: v * speed(p) if k.endswith("_s") else v
                 for k, v in spans.pass_metrics(p["_spans"], p["_counters"]).items()}
                for p in traced
            ]
            metrics = spans.merge_passes(per_pass)
            metrics["trace.overhead_s"] = (
                median(normalized_walls(traced)) - median(normalized_walls(plain))
            )
            metrics.update(command_medians(plain))
            units = per_layer_units()
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.dump(out_dir / f"trace-{name}-seed{seed}.jsonl.gz", [p["_spans"] for p in traced])
            extra["passes"] = len(plain) + len(traced)
            extra["absent"] = tracer.absent
            extra["counts_repeat"] = all(
                {k: v for k, v in p.items() if not k.endswith("_s")}
                == {k: v for k, v in per_pass[0].items() if not k.endswith("_s")}
                for p in per_pass
            )
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        result.update(extra)
        result["problems"] = run.problems
        result["input_bytes"] = run.input_bytes()
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_digests() -> dict:
    path = HERE / "digests.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def per_layer_units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pocmed = import_pocmed()
        seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
        names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(n, args.seed, seconds, args.trace) for n in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for name, result in results.items():
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
        if "wall_s" in result:
            print(f"  {'wall_s (not normalized)':<40} {result['wall_s']:>14.6g} s")
        print(f"  {'passes':<40} {result['passes']:>14d}")
        print(f"  {'error_rate':<40} {result['failed'] / result['attempted']:>14.6g} ratio")
        for problem in result["problems"]:
            print(f"  FAILED {problem}")
        for absent in result.get("absent", ()):
            print(f"  absent {absent}")
        if "counts_repeat" in result:
            print(f"  counts repeat in every traced pass: {result['counts_repeat']}")
    env = environment(pocmed, {n: r["input_bytes"] for n, r in results.items()})
    print(json.dumps({"environment": env}, sort_keys=True))
    for result in results.values():
        line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
