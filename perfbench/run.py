"""dpp-lab benchmark: named workloads of in-process CLI runs, timed end to end.

    python3 perfbench/run.py --workload draws --seed 1 --seconds 28 --trace 0

An op is one `dpplab.cli.main(["run", <ini>, "--seed", S, "--out", DIR])`
call made in this process after a single `import dpplab`, on an INI file
generated from `docs/examples/<experiment>.ini`.  The one exception is the
`batch-io` op of `draws`, which calls the samplers directly.  Ops run as a
closed loop, one at a time, at `--threads 1`, in whole cycles over the
workload's ops until `--seconds` have passed.  Cycle c runs every op at
seed `1000 * seed + c`; a traced run repeats the seeds of cycle 0 so that
its counts are per cycle and exact.  See perfbench/README.md for the
workloads, the output checks and every metric.

`--trace 0` reports the end-to-end metrics; `--trace 1` runs every op
untraced and then traced (order alternating by cycle) and reports the
per-layer metrics of `perfbench/tracer.py`.  The last line of standard
output is one JSON object with the metrics that BENCHMARK.json lists;
the lines before it name every metric with its unit, the machine facts,
and each failed op with the command that reproduces it.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "docs" / "examples"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# fresh interpreters timed for `setup_s`; the median is reported
SETUP_SAMPLES = 3
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import dpplab; print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Op:
    """An experiment run from `docs/examples/<name>.ini` with [params] overrides.

    `batch-io` is not an experiment: its params configure the spectral
    batch it draws, saves and loads.
    """

    name: str
    params: dict = field(default_factory=dict)


# The kernel and window of `batch-io` are those of the spectral half of
# docs/examples/sampler-validation.ini.
BATCH_IO = Op("batch-io", {"rho": 0.25, "a": 1.0, "window": 6.0, "nodes": 96, "samples": 6000})

# Why each workload exists is in perfbench/README.md.  draws and ratios
# run at example scale; spectra raises ops that would finish in well
# under a second through their documented [params] keys.
WORKLOADS = {
    "draws": (Op("domination"), Op("percolation-curve"), Op("sampler-validation"), BATCH_IO),
    "ratios": (Op("cpi-monotonicity"), Op("cpi-limit"), Op("cluster-formula")),
    "spectra": (
        Op("janossy-normalization"),
        Op("vacuum-correlation", {"pairs": 400, "mc_samples": 0}),
        Op(
            "matrix-ineq-suite",
            {"trials": 60000, "projection_trials": 12000, "monotonicity_trials": 12000},
        ),
        Op("renewal-equivalence", {"ks_samples": 100000, "configurations": 8000}),
    ),
}

# run untimed before the loop and again after it, at the same seed
DETERMINISM_OP = {"draws": "sampler-validation", "ratios": "cluster-formula", "spectra": "renewal-equivalence"}


def op_seed(seed: int, cycle: int) -> int:
    return 1000 * seed + cycle


# ---------------------------------------------------------------------------
# running ops


@dataclass
class Outcome:
    op: str
    seed: int
    seconds: float
    rc: int | None  # None when the op raised instead of returning an exit code
    message: str  # first failing check, error, or output-check failure
    fingerprint: tuple  # output bytes that must repeat at the same seed
    bad_output: bool = False  # the benchmark's own output check failed

    @property
    def passed(self) -> bool:
        return self.rc == 0 and not self.bad_output


def _raised(op: str, seed: int, start: float, exc: Exception) -> Outcome:
    seconds = time.perf_counter() - start
    return Outcome(op, seed, seconds, None, f"{type(exc).__name__}: {exc}", ("raised", str(exc)))


def write_ini(op: Op, dest: Path) -> Path:
    cfg = configparser.ConfigParser()
    with open(EXAMPLES / f"{op.name}.ini", encoding="utf-8") as fh:
        cfg.read_file(fh)
    if op.params:
        if not cfg.has_section("params"):
            cfg.add_section("params")
        for key, value in op.params.items():
            cfg["params"][key] = str(value)
    path = dest / f"{op.name}.ini"
    with open(path, "w", encoding="utf-8") as fh:
        cfg.write(fh)
    return path


def write_inis(ops, dest: Path) -> dict[str, Path]:
    dest.mkdir(parents=True, exist_ok=True)
    return {op.name: write_ini(op, dest) for op in ops if op.name != BATCH_IO.name}


def _check_cli_outputs(out: Path, rc: int) -> tuple[str, bool]:
    """(message, bad_output) for an op that returned 0 or 1."""
    try:
        summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        table = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return f"missing output: {exc}", True
    if not (out / "plot.svg").is_file():
        return "missing output: plot.svg", True
    verdict = "result: PASS" if rc == 0 else "result: FAIL"
    if not summary or summary[-1] != verdict:
        return f"summary.txt does not end with {verdict!r} for exit code {rc}", True
    width = len(table[0].split(",")) if table else 0
    if len(table) < 2 or any(len(row.split(",")) != width for row in table[1:]):
        return "results.csv is empty or not rectangular", True
    if rc == 0:
        return "", False
    return next(line for line in summary if line.startswith("FAIL ")), False


def run_cli_op(cli, ini: Path, seed: int, out: Path) -> Outcome:
    shutil.rmtree(out, ignore_errors=True)
    argv = ["run", str(ini), "--seed", str(seed), "--out", str(out), "--threads", "1"]
    log = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = cli.main(argv)
    except Exception as exc:  # a crashing op is a failed op, not a failed benchmark
        return _raised(ini.stem, seed, start, exc)
    seconds = time.perf_counter() - start
    if rc in (0, 1):
        message, bad = _check_cli_outputs(out, rc)
        files = tuple((out / name).read_bytes() if (out / name).is_file() else None
                      for name in ("results.csv", "summary.txt"))
        return Outcome(ini.stem, seed, seconds, rc, message, (rc, *files), bad)
    lines = log.getvalue().strip().splitlines()
    message = lines[-1] if lines else f"exit code {rc}"
    return Outcome(ini.stem, seed, seconds, rc, message, (rc, message))


def run_batch_io(dpplab, op: Op, seed: int, out: Path) -> Outcome:
    """Spectral batch -> save_batch -> load_batch; coordinates must round-trip exactly."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    p = op.params
    kernel = dpplab.RenewalExponential(p["rho"], p["a"])
    window = dpplab.Window.interval(0.0, p["window"])
    samplers = dpplab.samplers
    start = time.perf_counter()
    try:
        batch = samplers.sample_dpp_spectral(kernel, window, p["nodes"], p["samples"], seed)
        paths = samplers.save_batch(batch, out / "batch")
        back = samplers.load_batch(out / "batch")
    except Exception as exc:  # a crashing op is a failed op, not a failed benchmark
        return _raised(op.name, seed, start, exc)
    seconds = time.perf_counter() - start
    files = tuple(Path(path).read_bytes() for path in paths)
    exact = len(back.configurations) == len(batch.configurations) and all(
        a.coords.shape == b.coords.shape and (a.coords == b.coords).all()
        for a, b in zip(batch.configurations, back.configurations)
    )
    if not exact:
        return Outcome(op.name, seed, seconds, 0, "batch coordinates did not round-trip exactly", (0, *files), True)
    return Outcome(op.name, seed, seconds, 0, "", (0, *files))


def reproduce_hint(op: Op, seed: int) -> str:
    if op.name == BATCH_IO.name:
        p = op.params
        return (
            f"samplers.sample_dpp_spectral(RenewalExponential({p['rho']}, {p['a']}), "
            f"Window.interval(0, {p['window']}), {p['nodes']}, {p['samples']}, {seed}) "
            "then save_batch/load_batch"
        )
    # the benchmark holds BLAS to one thread, and some results depend on it
    hint = f"OPENBLAS_NUM_THREADS=1 dpp-lab run docs/examples/{op.name}.ini --seed {seed}"
    if op.params:
        hint += " with [params] " + ", ".join(f"{k} = {v}" for k, v in op.params.items())
    return hint


# ---------------------------------------------------------------------------
# machine facts


def _blas_libraries() -> list[dict]:
    """OpenBLAS builds bundled with numpy and scipy, with configuration and thread count."""
    import numpy
    import scipy

    found = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            found.append(_openblas_info(str(path)))
    return found


def _openblas_info(path: str) -> dict:
    lib = ctypes.CDLL(path)  # the already loaded library when numpy or scipy use it
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"library": Path(path).name, "config": config().decode(), "threads": threads()}
    return {"library": Path(path).name}


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_loaded": _blas_libraries(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# measurement


def load_dpplab():
    sys.path.insert(0, str(SRC))
    import dpplab
    import dpplab.cli

    if Path(dpplab.__file__).resolve().parent != (SRC / "dpplab").resolve():
        raise RuntimeError(f"imported dpplab from {dpplab.__file__}, not from {SRC}")
    return dpplab


def setup_seconds(ops, workdir: Path) -> list[float]:
    """`import dpplab` in a fresh interpreter plus INI generation, per sample."""
    samples = []
    for i in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        start = time.perf_counter()
        write_inis(ops, workdir / f"setup-{i}")
        samples.append(float(proc.stdout.split()[-1]) + time.perf_counter() - start)
    return samples


@dataclass
class Run:
    """Everything one benchmark run measured."""

    outcomes: list[Outcome] = field(default_factory=list)  # timed loop, untraced
    traced: list[Outcome] = field(default_factory=list)
    checks: list[Outcome] = field(default_factory=list)  # untimed runs of the determinism op
    mismatches: list[str] = field(default_factory=list)
    tracers: list[Tracer] = field(default_factory=list)  # one per cycle
    setup: list[float] = field(default_factory=list)
    cycles: int = 0

    @property
    def attempted(self) -> list[Outcome]:
        return self.outcomes + self.traced + self.checks

    @property
    def failed(self) -> list[Outcome]:
        return [o for o in self.attempted if not o.passed]

    @property
    def correct(self) -> bool:
        return not self.mismatches and not any(o.bad_output for o in self.attempted)


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, ops=None,
            log=print) -> Run:
    """Run `ops` (default: the workload's) in whole cycles for `seconds`."""
    ops = ops or WORKLOADS[workload]
    run = Run()
    run.setup = setup_seconds(ops, workdir)
    dpplab = load_dpplab()
    inis = write_inis(ops, workdir / "ini")

    def execute(op: Op, at_seed: int) -> Outcome:
        out = workdir / "out" / op.name
        if op.name == BATCH_IO.name:
            outcome = run_batch_io(dpplab, op, at_seed, out)
        else:
            outcome = run_cli_op(dpplab.cli, inis[op.name], at_seed, out)
        if not outcome.passed:
            code = "raised" if outcome.rc is None else outcome.rc
            log(f"FAILED workload={workload} op={op.name} seed={at_seed} exit={code}: "
                f"{outcome.message} | reproduce: {reproduce_hint(op, at_seed)}", flush=True)
        return outcome

    def compare(first: Outcome, second: Outcome, what: str) -> None:
        if first.fingerprint != second.fingerprint:
            second.bad_output = True
            run.mismatches.append(f"{first.op} seed={first.seed}: {what}")
            log(f"FAILED workload={workload} op={first.op} seed={first.seed}: outputs differ "
                f"({what}) | reproduce: {reproduce_hint(_op(ops, first.op), first.seed)}", flush=True)

    # The determinism op runs once untimed before the loop: it takes the
    # first-op slowness of a fresh process out of the timed runs and keeps
    # the reference outputs that later runs at its seed must repeat.
    check_op = _op(ops, DETERMINISM_OP[workload])
    reference = execute(check_op, op_seed(seed, 0))
    run.checks.append(reference)

    def record(outcome: Outcome) -> Outcome:
        if outcome.op == reference.op and outcome.seed == reference.seed:
            compare(reference, outcome, "loop run vs first run at the same seed")
        return outcome

    start = time.perf_counter()
    while run.cycles == 0 or time.perf_counter() - start < seconds:
        cycle_seed = op_seed(seed, 0 if trace else run.cycles)
        if not trace:
            run.outcomes += [record(execute(op, cycle_seed)) for op in ops]
            run.cycles += 1
            continue
        tracer = Tracer()
        for op in ops:
            if run.cycles % 2:
                with tracer:
                    traced = execute(op, cycle_seed)
                plain = execute(op, cycle_seed)
            else:
                plain = execute(op, cycle_seed)
                with tracer:
                    traced = execute(op, cycle_seed)
            run.outcomes.append(record(plain))
            run.traced.append(traced)
            compare(plain, traced, "traced run vs untraced run")
        run.tracers.append(tracer)
        if tracer.counts != run.tracers[0].counts:
            run.mismatches.append(f"cycle {run.cycles}: layer counts differ from cycle 0")
            log(f"FAILED workload={workload}: layer counts of cycle {run.cycles} differ "
                f"from cycle 0 at seed {cycle_seed}", flush=True)
        run.cycles += 1

    repeat = execute(check_op, reference.seed)
    run.checks.append(repeat)
    compare(reference, repeat, "repeat after the loop at the same seed")
    return run


def _op(ops, name: str) -> Op:
    return next(op for op in ops if op.name == name)


# ---------------------------------------------------------------------------
# metrics: name -> (value, unit, note)


def end_to_end_metrics(run: Run, ops) -> dict:
    op_time = sum(o.seconds for o in run.outcomes)
    passed = sum(o.passed for o in run.outcomes)
    metrics = {
        "setup_s": (statistics.median(run.setup), "s", f"median of {len(run.setup)}"),
        "ops_per_s": (passed / op_time, "1/s", f"{passed} passed of {len(run.outcomes)} in {op_time:.3f} s"),
        "fail_frac": (len(run.failed) / len(run.attempted), "ratio",
                      f"{len(run.failed)} failed of {len(run.attempted)} attempted"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
    }
    # run_s.geomean stands in for an op without a passed run with all its
    # runs, so that it is defined on every run
    medians, fallbacks = [], []
    for op in ops:
        runs = [o for o in run.outcomes if o.op == op.name]
        good = [o.seconds for o in runs if o.passed]
        value = statistics.median(good) if good else None
        metrics[f"run_s.{op.name}"] = (value, "s", f"median of {len(good)} passed of {len(runs)}")
        if not good:
            fallbacks.append(op.name)
        medians.append(value or statistics.median(o.seconds for o in runs))
    note = f"geometric mean of the {len(medians)} run_s.<op>"
    if fallbacks:
        note += f"; all runs of {', '.join(fallbacks)}, which never passed"
    metrics["run_s.geomean"] = (math.exp(statistics.fmean(math.log(m) for m in medians)), "s", note)
    return metrics


PER_UNIT = (
    # derived metric, self-time span, count
    ("operators.interaction_values.self_us_per_point", "operators.interaction_values", "points"),
    ("densities.compound_intensity.self_us_per_call", "densities.compound_intensity", "calls"),
    ("samplers.sample_dpp_spectral.self_us_per_draw", "samplers.sample_dpp_spectral", "draws"),
)


def per_layer_metrics(run: Run) -> dict:
    """Self seconds and counts per cycle; counts are identical in every cycle."""
    from tracer import TARGETS

    cycles = len(run.tracers)
    metrics = {}
    for target in TARGETS:
        span = target.span
        self_s = sum(t.self_s.get(span, 0.0) for t in run.tracers) / cycles
        metrics[f"{span}.self_s"] = (self_s, "s", "per cycle")
        for count in ("calls", *target.counts):
            unit = "B" if count == "bytes" else "count"
            metrics[f"{span}.{count}"] = (run.tracers[0].counts.get(f"{span}.{count}", 0), unit, "per cycle")
    for name, span, count in PER_UNIT:
        n = metrics.get(f"{span}.{count}", (0,))[0]
        value = metrics[f"{span}.self_s"][0] / n * 1e6 if n else 0.0
        metrics[name] = (value, "us", f"per {count}")
    plain = sum(o.seconds for o in run.outcomes)
    traced = sum(o.seconds for o in run.traced)
    covered = sum(t.covered_s for t in run.tracers)
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "ratio", "traced / untraced op time - 1")
    metrics["trace.coverage_frac"] = (covered / traced, "ratio", "op time inside non-glue layer spans")
    return metrics


def report(metrics: dict, names: list[str], log=print) -> dict:
    """Print every metric; return the JSON metrics for `names`."""
    for name, (value, unit, note) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}" if isinstance(value, float) else value
        log(f"  {name:<52} {shown} {unit}" + (f"  ({note})" if note else ""))
    return {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads: ops run one at a time on a
    # shared 2-core machine, where a second BLAS thread doubled the
    # run-to-run spread.  Thread scaling needs a workload of its own.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    needed = [SRC / "dpplab" / "__init__.py", EXAMPLES, BENCHMARK_JSON]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        print(f"perfbench: not a dpp-lab checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"machine {json.dumps(machine_facts(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {run.cycles} cycle(s), "
          f"{len(run.attempted)} ops attempted, {len(run.failed)} failed")
    if args.trace and run.tracers[0].missing:
        print(f"trace: not found, reported as 0: {', '.join(run.tracers[0].missing)}")
    ops = WORKLOADS[args.workload]
    metrics = per_layer_metrics(run) if args.trace else end_to_end_metrics(run, ops)
    selected = report(metrics, names)
    print(json.dumps({
        "correct": run.correct,
        "attempted": len(run.attempted),
        "failed": len(run.failed),
        "metrics": selected,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
