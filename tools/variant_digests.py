"""Print a SHA-256 digest of every output the seven prior variants write through the CLI.

The script simulates two corpora at d = 5, trains V1-Wishart-informative,
V1-Wishart-noninformative, V2-Gamma-diagonal and V2-Gamma-isotropic (the V2
pair once more with `whiten = true`) with annealing, hyperparameter refresh,
minimum divergence and a trace, adapts every trained model to the second
corpus (V3-GaussV-Wishart, V4-GaussV-Gamma-diagonal, V4-GaussV-Gamma-isotropic)
and runs `elbo` on each model. It then does the same for V1-Wishart-informative,
V2-Gamma-diagonal and V2-Gamma-isotropic on two corpora at d = 40: there q(W)
inverts matrices through several levels of the triangular inverse's block
recursion, and the Gamma arms' pooled sums run over enough entries for numpy's
pairwise summation.
Then it trains and adapts V1-Wishart-informative at d = 37, an odd order, so
the triangular inverse splits its blocks unequally and pads the leading one.
Last it trains V1-Wishart-informative and V2-Gamma-diagonal on the first d = 5
corpus with `--iters 0`, adapts each with `--iters 0` and runs `elbo` on each
of these models, which no sweep has touched.
It prints each command's exit code, one line per model file, trace CSV and
`elbo` output, one `elbo == trace` line per model whose fit ran a sweep and
one `elbo == stored` line per model: `elbo` on the corpus a model was fitted
to must print the last total of that fit's trace and the `elbo` the model's
header stores, exactly. A change that must keep behaviour prints the same
lines before and after:

    python3 tools/variant_digests.py > before.txt   # on the old commit
    python3 tools/variant_digests.py > after.txt
    diff before.txt after.txt

Everything is written to a temporary directory that is removed on exit, or,
with `--keep DIR`, to DIR, which is kept; `tools/variant_drift.py` compares
two kept directories number by number.

Every command is expected to exit 0 and every `elbo == trace` and
`elbo == stored` line to read `==`; the script exits with status 1 if any
fails, after printing every line.
"""

import os

# One BLAS thread, so that reductions run in one order on every host; set
# before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bsplda.cli import main  # noqa: E402
from bsplda.io import read_model_file  # noqa: E402

SPEC = "ny = 2\nmu = 0.5\nv_scale = 1.5\nw_scale = 2.0\n"
# Every key an arm or the loading prior reads, away from its default; nu_d follows.
TRAIN_CONFIG = (
    "a_alpha = 0.01\nb_alpha = 0.02\nmu0 = 0.1\nbeta = 2\n"
    "a_w = 0.01\nb_w = 0.03\npsi0_scale = 0.5\n"
)
TRAIN_FLAGS = ["--ny", "3", "--iters", "30", "--tol", "1e-12", "--seed", "1",
               "--anneal", "0.5:4,0.8:4,1:22", "--hyperopt-every", "5", "--mindiv-every", "7"]
ADAPT_FLAGS = ["--iters", "20", "--tol", "1e-12", "--seed", "2",
               "--anneal", "0.7:3,1:17", "--hyperopt-every", "5", "--mindiv-every", "6"]
# (run name, variant, whiten)
TRAIN_RUNS = (
    ("v1-informative", "V1-Wishart-informative", False),
    ("v1-noninformative", "V1-Wishart-noninformative", False),
    ("v2-diagonal", "V2-Gamma-diagonal", False),
    ("v2-isotropic", "V2-Gamma-isotropic", False),
    ("v2-diagonal-whitened", "V2-Gamma-diagonal", True),
    ("v2-isotropic-whitened", "V2-Gamma-isotropic", True),
)
HIGH_DIM_RUNS = (
    ("v1-informative-d40", "V1-Wishart-informative", False),
    ("v2-diagonal-d40", "V2-Gamma-diagonal", False),
    ("v2-isotropic-d40", "V2-Gamma-isotropic", False),
)
ODD_DIM_RUNS = (("v1-informative-d37", "V1-Wishart-informative", False),)
MULTI_BLOCK_RUNS = (("v2-diagonal-blocks", "V2-Gamma-diagonal", False),)
# (suffix, d, nu_d, train speakers, adapt speakers, runs); train speakers have
# 4 rows and adapt speakers 3
CORPORA = (("", 5, 9, 40, 10, TRAIN_RUNS), ("-d40", 40, 45, 60, 20, HIGH_DIM_RUNS),
           ("-d37", 37, 42, 60, 20, ODD_DIM_RUNS), ("-blocks", 5, 9, 1600, 2100, MULTI_BLOCK_RUNS))
# trained and adapted with `--iters 0` on the first corpus, after every other run
ZERO_SWEEP_RUNS = (("v1-informative-0-sweeps", "V1-Wishart-informative", False),
                   ("v2-diagonal-0-sweeps", "V2-Gamma-diagonal", False))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run(label, argv, failed):
    """Run one CLI command; print its exit code, add `label` to `failed` unless
    it is 0, and return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(f"exit {code}  {label}")
    if code != 0:
        failed.append(label)
    return out.getvalue()


def digest_files(*paths):
    for path in paths:
        text = sha256(path.read_bytes()) if path.exists() else "missing"
        print(f"{text}  {path.name}")


def elbo(work, name, corpus, failed, swept):
    """Run `elbo` on a model; keep its output as NAME.elbo and print the digest.

    Then print whether the printed total equals, digit for digit, the last total
    of the trace CSV that the model's own fit wrote on the same corpus, when
    that fit `swept`, and the `elbo` in the model's header; a mismatch is added
    to `failed`.
    """
    path, model = work / f"{name}.elbo", work / f"{name}.model"
    printed = run(f"elbo {name}", ["elbo", "--model", str(model), *corpus], failed)
    path.write_text(printed)
    digest_files(path)
    total = dict(line.split("=", 1) for line in printed.splitlines()).get("total")
    expected = {}
    if swept:
        trace = work / f"{name}.csv"
        expected["trace"] = (trace.read_text().splitlines()[-1].split(",")[1]
                             if trace.exists() else None)
    expected["stored"] = f"{read_model_file(model).elbo:.17g}" if model.exists() else None
    for source, value in expected.items():
        equal = total is not None and total == value
        print(f"elbo {'==' if equal else '!='} {source}  {name}")
        if not equal:
            failed.append(f"elbo != {source} {name}")


def main_digests(work):
    """Print every line; return the labels of the commands that exited non-zero
    and of the models whose `elbo` missed their trace or their header."""
    failed = []
    corpora = {}
    for suffix, d, nu_d, train_speakers, adapt_speakers, runs in CORPORA:
        spec = work / f"sim{suffix}.cfg"
        spec.write_text(f"d = {d}\n" + SPEC)
        corpus = {}
        for name, speakers, per, seed in (("train", train_speakers, 4, 7),
                                          ("adapt", adapt_speakers, 3, 8)):
            out = work / f"{name}{suffix}"
            run(f"simulate {name}{suffix}", ["simulate", "--spec", str(spec),
                                             "--speakers", str(speakers), "--per-speaker", str(per),
                                             "--seed", str(seed), "--out", str(out)], failed)
            corpus[name] = ["--data", f"{out}.data", "--labels", f"{out}.labels"]
        corpora[suffix] = nu_d, corpus
        for name, variant, whiten in runs:
            train_and_adapt(work, name, variant, whiten, nu_d, corpus, failed)
    for name, variant, whiten in ZERO_SWEEP_RUNS:
        train_and_adapt(work, name, variant, whiten, *corpora[""], failed, swept=False)
    return failed


def train_and_adapt(work, name, variant, whiten, nu_d, corpus, failed, swept=True):
    """Train and adapt with the flags above; unless `swept`, with `--iters 0`."""
    budget = [] if swept else ["--iters", "0"]  # the later flag wins
    config = work / f"{name}.cfg"
    config.write_text(TRAIN_CONFIG + f"nu_d = {nu_d}\n" + ("whiten = true\n" if whiten else ""))
    model, trace = work / f"{name}.model", work / f"{name}.csv"
    run(f"train {name}", ["train", *corpus["train"], "--config", str(config),
                          "--variant", variant, "--out", str(model), "--trace", str(trace),
                          *TRAIN_FLAGS, *budget], failed)
    digest_files(model, trace)
    elbo(work, name, corpus["train"], failed, swept)

    adapted, adapted_trace = work / f"{name}-adapted.model", work / f"{name}-adapted.csv"
    run(f"adapt {name}", ["adapt", "--prior", str(model), *corpus["adapt"], "--out", str(adapted),
                          "--trace", str(adapted_trace), *ADAPT_FLAGS, *budget], failed)
    digest_files(adapted, adapted_trace)
    elbo(work, f"{name}-adapted", corpus["adapt"], failed, swept)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", type=Path,
                        help="write the outputs to DIR and keep them")
    args = parser.parse_args()
    if args.keep:
        args.keep.mkdir(parents=True, exist_ok=True)
        failed = main_digests(args.keep)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            failed = main_digests(Path(tmp))
    sys.exit(1 if failed else 0)
