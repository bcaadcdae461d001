"""Fresh-process run of a library workload's job, for its peak resident set size.

Usage: python3 perfbench/fit_child.py <workload> <corpus directory> <speakers>

Loads the corpus the parent wrote (vectors.npy, assignment.npy), runs
data.accumulate + engine.fit_stats once, and prints one JSON line with the
final bound and the sweeps run. The parent reads the peak RSS from the operating system when it reaps the process.
BLAS threads and the import path come from the parent's environment.
"""

import json
import sys
from pathlib import Path

import numpy as np

import workloads


def main(argv):
    name, corpus_dir, speakers = argv
    workload = workloads.WORKLOADS[name]
    vectors = np.load(Path(corpus_dir) / "vectors.npy")
    assignment = np.load(Path(corpus_dir) / "assignment.npy")
    inputs = workloads.library_inputs(vectors, assignment, int(speakers))
    run = workloads.fit_once(workload, *inputs, workload.prior())
    print(json.dumps({"final": run.report.elbo_trace[-1], "iterations": run.report.iterations}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
