#!/usr/bin/env python3
"""bsplda benchmark: one seeded workload, measured for a fixed time, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, their reasons and their checks are defined in workloads.py. With
--trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run (see README.md). Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Each fit and each CLI
command is one attempted operation; it fails when it raises, exits non-zero
or fails a check.
"""

import os

# One BLAS thread for this process and, through the environment, its children,
# so timings do not depend on how many cores are free; this must happen before
# numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "bsplda" / "__init__.py").is_file():
    sys.exit(f"perfbench: no bsplda sources under {SRC}")
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402
from bsplda import cli  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"   # inputs and outputs of one run; removed at exit
SPANS_DIR = ROOT / ".perfbench_out"    # span records of traced runs; kept
REFERENCE = HERE / "reference.json"
CHILD_TIMEOUT_S = 150
SETUP_MIN, SETUP_SECONDS, SETUP_MAX = 3, 2.0, 15
MIN_REPEATS = 3

class Ledger:
    """Attempted operations and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def attempt(self, label, fn, check):
        """Run one operation; an exception is a failure of that operation, not of the run."""
        try:
            result = fn()
            problems = check(result)
        except Exception as exc:  # noqa: BLE001 - every error of the program counts as a failure
            traceback.print_exc(file=sys.stderr)
            self.record(label, [f"{type(exc).__name__}: {exc}"])
            return None
        self.record(label, problems)
        return result


def repeat_for(seconds, fn):
    """Call fn until the next call would overrun `seconds` (at least MIN_REPEATS calls)."""
    results = []
    start = time.perf_counter()
    while True:
        gc.collect()  # so no collection of the previous repeat's garbage lands in this one
        results.append(fn(len(results)))
        elapsed = time.perf_counter() - start
        if len(results) >= MIN_REPEATS and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def timed_setups(workload, seed, work):
    """Set up at least SETUP_MIN times and for SETUP_SECONDS; the corpus and the median time."""
    times = []
    while len(times) < SETUP_MIN or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX):
        t0 = time.perf_counter()
        corpus = workload.setup(seed, work)
        times.append(time.perf_counter() - t0)
    return corpus, statistics.median(times)


def run_measured(command, work):
    """Run a command under measure.py: (exit status, wall seconds, peak RSS in MB, stdout, stderr)."""
    record = work / "measure.json"
    record.unlink(missing_ok=True)
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        try:
            subprocess.run(
                [sys.executable, str(HERE / "measure.py"), str(record), str(CHILD_TIMEOUT_S), *command],
                stdout=out, stderr=err, timeout=CHILD_TIMEOUT_S + 15, check=True,
            )
        except (subprocess.SubprocessError, OSError) as exc:
            code, wall, peak_mb = f"launcher failed ({exc})", float("nan"), float("nan")
        else:
            measured = json.loads(record.read_text())
            code, wall, peak_mb = measured["exit"], measured["wall_s"], measured["peak_kb"] / 1024.0
    read = lambda path: path.read_text(encoding="utf-8", errors="replace")  # noqa: E731
    return code, wall, peak_mb, read(out_path), read(err_path)


def median_of(values):
    return statistics.median(values) if values else float("nan")


# ---------------------------------------------------------------------------
# Library workloads


def train_fits(wl, corpus, reference, ledger, seconds, tracer_for=None):
    """Timed fits; with tracer_for, alternate untraced and traced fits.

    Returns (untraced runs, traced (run, tracer) pairs).
    """
    prior = wl.prior()
    dataset, partition = corpus.inputs()
    first = []

    def check(run):
        problems = workloads.check_fit(run, corpus.truth, reference)
        first.append(run.report.elbo_trace[-1])
        if first[-1] != first[0]:
            problems.append(f"final bound {first[-1]!r} differs from the first repeat's {first[0]!r}")
        return problems

    def fit(label):
        return ledger.attempt(label, lambda: workloads.fit_once(wl, dataset, partition, prior), check)

    plain, traced = [], []

    def one(k):
        run = fit(f"fit {k}")
        if run is not None:
            plain.append(run)
        if tracer_for is not None:
            tracer = tracer_for(k)
            with tracer.patched():
                run = fit(f"traced fit {k}")
            if run is not None:
                traced.append((run, tracer))

    repeat_for(seconds, one)
    return plain, traced


def peak_child(wl, corpus, reference, ledger, expected_final, work):
    """Peak RSS (MB) of a fresh process running the job once; the run is checked too."""

    def child():
        return run_measured([sys.executable, str(HERE / "fit_child.py"), wl.name,
                             str(corpus.work), str(corpus.speakers)], work)

    def check(result):
        code, _, _, out, err = result
        if code != 0:
            return [f"exit {code}: {err.strip()[-300:]}"]
        out = json.loads(out.strip().splitlines()[-1])
        problems = workloads.check_totals([out["final"]], [], reference)
        if expected_final is not None and out["final"] != expected_final:
            problems.append(f"final bound {out['final']!r} differs from in-process {expected_final!r}")
        if out["iterations"] != wl.sweeps:
            problems.append(f"ran {out['iterations']} of {wl.sweeps} sweeps")
        return problems

    result = ledger.attempt("fresh-process fit", child, check)
    return result[2] if result else float("nan")


def train_end_to_end(wl, seed, seconds, work, reference, ledger):
    corpus, setup_s = timed_setups(wl, seed, work)
    runs, _ = train_fits(wl, corpus, reference, ledger, seconds)
    final = runs[0].report.elbo_trace[-1] if runs else None
    peak_mb = peak_child(wl, corpus, reference, ledger, final, work)
    iterations = [r.report.iterations for r in runs]
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_s": (median_of([r.train_s for r in runs]), "s"),
        "iter_ms": (median_of([1e3 * r.fit_s / r.report.iterations for r in runs]), "ms"),
        "peak_mem_mb": (peak_mb, "MB"),
        "iterations": (max(iterations, default=0), "count"),
    }
    info = [f"inputs: {corpus.counts}", f"repeats: {len(runs)} fits of {wl.sweeps} sweeps"]
    return metrics, info


# ---------------------------------------------------------------------------
# CLI workload


def cli_pass(wl, work, ledger, label, run_command, reference, digests):
    """One train -> adapt -> elbo pass: (summed wall time, sweeps run or 0 on failure, largest peak RSS).

    `run_command(argv)` returns (exit status, wall seconds, peak RSS in MB, stdout, stderr).
    """
    problems = {}
    wall_total, peak_mb, elbo_out = 0.0, 0.0, None
    for name, argv in wl.commands(work):
        code, wall, peak, out, err = run_command(argv)
        problems[name] = []
        wall_total += wall
        peak_mb = max(peak_mb, peak)
        if code != 0:
            problems[name].append(f"exit {code}: {err.strip()[-300:]}")
            break
        elbo_out = out
    sweeps = 0
    if not any(problems.values()):
        for name, problem in workloads.check_cli_outputs(wl, work, elbo_out, reference):
            problems[name].append(problem)
        for name, digest in workloads.cli_output_digests(work, elbo_out).items():
            if digests.setdefault(name, digest) != digest:
                problems[name].append("outputs differ from the first repeat's")
        sweeps = sum(len(workloads.read_trace_totals(work / f)[1]) for f in ("ood.csv", "ind.csv"))
    for name in problems:  # the commands that ran
        ledger.record(f"{label} {name}", problems[name])
    return wall_total, sweeps, peak_mb


def cli_end_to_end(wl, seed, seconds, work, reference, ledger):
    counts, setup_s = timed_setups(wl, seed, work)
    digests = {}

    def run_command(argv):
        return run_measured([sys.executable, "-m", "bsplda.cli", *argv], work)

    passes = repeat_for(
        seconds, lambda k: cli_pass(wl, work, ledger, f"pass {k}", run_command, reference, digests)
    )
    ok = [p for p in passes if p[1]]
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_s": (median_of([wall for wall, _, _ in ok]), "s"),
        "iter_ms": (median_of([1e3 * wall / sweeps for wall, sweeps, _ in ok]), "ms"),
        "peak_mem_mb": (median_of([peak for _, _, peak in ok]), "MB"),
        "iterations": (max((sweeps for _, sweeps, _ in ok), default=0), "count"),
    }
    info = [f"inputs: {counts}", f"repeats: {len(passes)} passes of train -> adapt -> elbo"]
    return metrics, info


# ---------------------------------------------------------------------------
# Traced run (per-layer metrics)


class ByteCounts:
    """Computed bytes of the objects that cross the traced boundaries (largest seen)."""

    def __init__(self):
        self.values = {"data.stats_bytes": 0, "posterior.qy_bytes": 0, "posterior.qv_bytes": 0}

    def __call__(self, name, result):
        if name == "data.accumulate":
            self._max("data.stats_bytes", workloads.held_bytes(result))
        elif name == "engine.fit_stats":
            state = result[0]
            self._max("posterior.qy_bytes", workloads.held_bytes(state.qy))
            self._max("posterior.qv_bytes", workloads.held_bytes(state.qv))

    def _max(self, key, value):
        self.values[key] = max(self.values[key], value)


def in_process_cli(wl, work, ledger, seconds, tracer_for, reference):
    """Alternate untraced and traced in-process passes; cli.main is called directly."""
    digests = {}
    plain, traced = [], []

    def run_command(main):
        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code
            return code, time.perf_counter() - t0, float("nan"), out.getvalue(), err.getvalue()
        return run

    def one(k):
        wall, sweeps, _ = cli_pass(wl, work, ledger, f"pass {k}", run_command(cli.main),
                                   reference, digests)
        if sweeps:
            plain.append(wall)
        tracer = tracer_for(k)
        with tracer.patched():
            wall, sweeps, _ = cli_pass(wl, work, ledger, f"traced pass {k}",
                                       run_command(tracer.span(tracing.CLI_MAIN, cli.main)),
                                       reference, digests)
        if sweeps:
            traced.append((wall, tracer))

    repeat_for(seconds, one)
    return plain, traced


def cli_import_s():
    """Median wall time of `import bsplda.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import bsplda.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def per_layer(wl, seed, seconds, work, reference, ledger):
    run_id = uuid.uuid4().hex[:12]
    counts = ByteCounts()

    def tracer_for(k):
        return tracing.Tracer(f"{run_id}/{k}", on_return=counts)

    if isinstance(wl, workloads.CliWorkload):
        inputs = wl.setup(seed, work)
        plain, traced = in_process_cli(wl, work, ledger, seconds, tracer_for, reference)
    else:
        corpus = wl.setup(seed, work)
        inputs = corpus.counts
        runs, traced_runs = train_fits(wl, corpus, reference, ledger, seconds, tracer_for)
        plain = [r.train_s for r in runs]
        traced = [(r.train_s, tracer) for r, tracer in traced_runs]
    if not traced:
        return {}, ["no traced repeat succeeded"]
    traced.sort(key=lambda pair: pair[0])
    job_s, tracer = traced[len(traced) // 2]  # the median traced repeat
    totals = tracing.self_times(tracer.spans)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        if name in tracing.EVERY_WORKLOAD:
            metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.share"] = (self_s / job_s, "fraction")
    metrics["trace.job_s"] = (job_s, "s")
    metrics["trace.coverage"] = (sum(s for _, s in totals.values()) / job_s, "fraction")
    metrics["trace.overhead_s"] = (median_of([t for t, _ in traced]) - median_of(plain), "s")
    metrics["cli.import_s"] = (cli_import_s(), "s")
    for key, value in {**counts.values, **inputs}.items():
        metrics[key] = (value, "bytes" if key.endswith("_bytes") else "count")
    large = workloads.project_large()
    metrics["projection.large.stats_bytes"] = (large["stats_bytes"], "bytes")
    metrics["projection.large.qy_bytes"] = (large["qy_bytes"], "bytes")
    metrics["projection.large.fits"] = (int(large["fits"]), "bool")

    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as f:
        for _, t in traced:
            for s in t.spans:
                f.write(json.dumps(s.__dict__) + "\n")
    info = [
        f"repeats: {len(plain)} untraced and {len(traced)} traced; per-layer rows are the "
        f"median traced repeat (job {job_s:.4f} s); shares are of that traced job time",
        f"spans: {spans_path.relative_to(ROOT)} (run id {run_id})",
        tracing.LAZY_CACHE_NOTE,
    ]
    if tracer.missing:
        info.append(f"not traced (attribute missing): {', '.join(tracer.missing)}")
    return metrics, info


# ---------------------------------------------------------------------------


def environment_line():
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return (
        f"host={platform.node()} machine={platform.machine()} cpus={os.cpu_count()} "
        f"mem={workloads.physical_memory_bytes() / 2**30:.1f}GiB python={platform.python_version()} "
        f"numpy={numpy.__version__} (OpenBLAS {blas_version(numpy)}) "
        f"scipy={scipy.__version__} (OpenBLAS {blas_version(scipy)}) blas_threads={BLAS_THREADS}"
    )


ALIASES = {
    ("job_s", True): "train_s: data.accumulate + engine.fit_stats",
    ("job_s", False): "cli_s: summed wall time of the bsplda processes",
    ("iter_ms", True): "engine.fit_stats time per sweep",
    ("iter_ms", False): "cli_s per sweep run (train + adapt)",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # child processes (bsplda commands, the fresh-process fit) import the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    recorded = json.loads(REFERENCE.read_text())["final_bound"].get(wl.name, {})
    reference = recorded.get(str(args.seed))
    ledger = Ledger()
    work = WORK_ROOT / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, info = per_layer(wl, args.seed, args.seconds, work, reference, ledger)
        elif isinstance(wl, workloads.CliWorkload):
            metrics, info = cli_end_to_end(wl, args.seed, args.seconds, work, reference, ledger)
        else:
            metrics, info = train_end_to_end(wl, args.seed, args.seconds, work, reference, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    library = not isinstance(wl, workloads.CliWorkload)
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(environment_line())
    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        alias = ALIASES.get((name, library))
        print(f"  {name} = {value:.6g} {unit}" + (f"   [{alias}]" if alias else ""))
    fail_rate = len(ledger.failures) / ledger.attempted if ledger.attempted else 1.0
    print(f"checks: attempted={ledger.attempted} failed={len(ledger.failures)} "
          f"fail_rate={fail_rate:g} reference={'none' if reference is None else 'seed ' + str(args.seed)}")
    for failure in ledger.failures:
        print(f"  FAILED {failure}")
    if not metrics or any(math.isnan(value) for value, _ in metrics.values()):
        print("perfbench: no successful operation to measure; no result", file=sys.stderr)
        return 1
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
