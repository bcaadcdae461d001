"""Record the per-seed reference bounds and the measurements behind the check tolerances.

Usage (from the repository root; takes several minutes):

    python3 perfbench/record_reference.py [--first 0] [--last 63] [--workers 2]

For every workload and seed it runs the workload's job once at its sweep
budget and writes the final bound (for cli-train-adapt: the train and the
adapt bound) to perfbench/reference.json. Seeds outside the recorded range
run every other check but skip the reference comparison. It also records,
over all seeds:

- `bound_rounding_rel`: the largest relative change of the final bound when a
  library workload's statistics are accumulated from its rows in reverse
  order, i.e. the rounding level of the bound;
- `min_ascent_rel`: the smallest relative bound increase between event-free
  sweeps at kappa = 1;
- `max_angle_deg` and `max_w_mean_rel_err`: the worst generator recovery.

Run it again, and say so, whenever a change is meant to alter the numbers.
"""

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads and puts the sources on the import path

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402
from bsplda import cli, data, elbo, engine  # noqa: E402

import workloads  # noqa: E402


def _min_ascent(totals, comparable):
    rises = [(totals[i + 1] - totals[i]) / abs(totals[i]) for i, ok in enumerate(comparable) if ok]
    return min(rises) if rises else float("inf")


def record_train(wl, seed, work):
    corpus = wl.setup(seed, work)
    dataset, partition = corpus.inputs()
    stats = data.accumulate(dataset, partition)
    state, params, report = engine.fit_stats(stats, wl.prior(), wl.config(), wl.n_y)
    reversed_rows = slice(None, None, -1)
    stats_rev = data.accumulate(
        data.Dataset(vectors=corpus.vectors[reversed_rows], ids=dataset.ids),
        data.SpeakerPartition(assignment=corpus.assignment[reversed_rows],
                              n_speakers=corpus.speakers),
    )
    bound = [elbo.elbo_total(s, state.qy, state.qv, state.qw, state.qalpha, report.final_prior).total
             for s in (stats, stats_rev)]
    totals = list(report.elbo_trace)
    return {
        "final": totals[-1],
        "bound_rounding_rel": abs(bound[0] - bound[1]) / abs(bound[0]),
        "min_ascent_rel": _min_ascent(totals, [True] * (len(totals) - 1)),
        "max_angle_deg": float(np.degrees(scipy.linalg.subspace_angles(corpus.truth.V, params.V).max())),
        "max_w_mean_rel_err": abs(float(np.mean(np.diag(params.W))) - workloads.W_TRUE) / workloads.W_TRUE,
    }


def record_cli(wl, seed, work):
    wl.setup(seed, work)
    for _, argv in wl.commands(work):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}")
    _, train = workloads.read_trace_totals(work / "ood.csv")
    _, adapt = workloads.read_trace_totals(work / "ind.csv")
    return {
        "final": [train[-1], adapt[-1]],
        "min_ascent_rel": min(_min_ascent(train, wl.train_comparable()),
                              _min_ascent(adapt, [True] * (len(adapt) - 1))),
    }


def record(job):
    name, seed = job
    wl = workloads.WORKLOADS[name]
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        work = Path(tmp)
        if isinstance(wl, workloads.CliWorkload):
            return name, seed, record_cli(wl, seed, work)
        return name, seed, record_train(wl, seed, work)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=63)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)
    os.environ["PYTHONPATH"] = str(run.SRC)
    jobs = [(name, seed) for seed in range(args.first, args.last + 1) for name in workloads.WORKLOADS]
    final = {name: {} for name in workloads.WORKLOADS}
    measured = {}
    with multiprocessing.get_context("spawn").Pool(args.workers) as pool:
        for name, seed, rec in pool.imap_unordered(record, jobs):
            final[name][str(seed)] = rec.pop("final")
            for key, value in rec.items():
                worst = min if key == "min_ascent_rel" else max
                measured.setdefault(name, {})[key] = worst(measured.get(name, {}).get(key, value), value)
            print(f"{name} seed {seed}: {rec}", file=sys.stderr, flush=True)
    with contextlib.suppress(OSError):
        run.WORK_ROOT.rmdir()
    out = {
        "about": "Final bounds at the sweep budget per workload and seed, recorded by "
                 "record_reference.py; measured = worst case over the recorded seeds.",
        "seeds": [args.first, args.last],
        "measured": measured,
        "final_bound": {name: dict(sorted(v.items(), key=lambda kv: int(kv[0])))
                        for name, v in final.items()},
    }
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
