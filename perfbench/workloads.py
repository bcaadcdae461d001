"""The benchmark's workloads: seeded corpora, the job each one runs, and the checks on its outputs.

Every corpus is drawn from the workload seed with bsplda's counter RNG
(`synth.CounterRng`) and sampler (`synth.sample`), so one seed names the same
input bit for bit on any machine. The program under test receives only the
generated arrays (library workloads) or files (CLI workload).
"""

import hashlib
import math
import os
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from bsplda import data, engine, io as mio, model as mdl, synth

# Fits run a fixed sweep budget instead of "to tolerance": sweeps to tolerance
# swing from 60 to 340 between seeds and some fits never converge within 500,
# so time to tolerance would measure the solver path, not the code. A positive
# tolerance that no non-zero bound change meets keeps the budget fixed; the
# bound at the budget is checked against reference.json instead.
FIXED_BUDGET_TOL = 1e-300
W_TRUE = 4.0  # every corpus is drawn with W = 4 I

# Check tolerances. The measurements behind them are recorded in
# reference.json by record_reference.py and summarised in README.md.
ASCENT_RTOL = 1e-12       # allowed relative bound drop between event-free sweeps at kappa = 1
REFERENCE_RTOL = 1e-9     # final bound against the recorded per-seed reference
MAX_ANGLE_DEG = 1.0       # largest principal angle between true and fitted V
W_MEAN_RTOL = 0.05        # mean of diag(E[W]) against the true 4.0


def _stream(seed, k):
    """Seed of the k-th independent counter stream of a workload seed (k < 16)."""
    return int(seed) * 16 + k


def _draw_truth(rng, dim, rank):
    v = rng.gaussians(dim * rank).reshape(dim, rank)
    mu = rng.gaussians(dim)
    return mdl.ModelParams(mu=mu, V=v, W=W_TRUE * np.eye(dim))


def _draw_corpus(seed, params, speakers, count_range):
    """(vectors, speaker index per row, counts): N_i uniform in [lo, hi), rows shuffled.

    Uses the counter streams `seed` and `seed + 1`. Rows are shuffled so no
    speaker's vectors are contiguous, as in a real list.
    """
    rng = synth.CounterRng(seed)
    lo, hi = count_range
    counts = lo + np.floor(rng.uniforms(speakers) * (hi - lo)).astype(int)
    dataset, partition, _ = synth.sample(
        synth.GenSpec(params=params, counts=counts, seed=seed + 1)
    )
    order = np.argsort(rng.uniforms(dataset.n), kind="stable")
    return dataset.vectors[order], partition.assignment[order], counts


def input_counts(counts_list):
    counts = np.concatenate(counts_list)
    return {
        "input.vectors": int(counts.sum()),
        "input.speakers": int(counts.size),
        "input.distinct_counts": int(np.unique(counts).size),
    }


def held_bytes(obj):
    """Bytes of the arrays an object holds, including filled lazy caches."""
    total = 0
    for value in vars(obj).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                total += item.nbytes
    return total


# ---------------------------------------------------------------------------
# Library workloads: data.accumulate + engine.fit_stats on in-memory arrays.


@dataclass(frozen=True)
class TrainWorkload:
    name: str
    why: str
    variant: str
    dim: int
    rank: int          # rank of the generating loading
    n_y: int           # fitted latent rank
    speakers: int
    count_range: tuple  # N_i uniform in [lo, hi)
    sweeps: int = 40

    def prior(self):
        common = dict(variant=self.variant, a_alpha=1e-3, b_alpha=1e-3, mu0=0.0, beta=1.0)
        if self.variant == mdl.V1_WISHART_INFORMATIVE:
            common.update(psi0=np.eye(self.dim), nu_d=float(self.dim + 2))
        return mdl.PriorConfig(**common)

    def config(self):
        return engine.FitConfig(max_iterations=self.sweeps, elbo_rel_tol=FIXED_BUDGET_TOL)

    def setup(self, seed, work):
        """Draw the corpus and write the .npy files the fresh-process run loads."""
        truth = _draw_truth(synth.CounterRng(_stream(seed, 0)), self.dim, self.rank)
        vectors, assignment, counts = _draw_corpus(
            _stream(seed, 1), truth, self.speakers, self.count_range
        )
        np.save(work / "vectors.npy", vectors)
        np.save(work / "assignment.npy", assignment)
        return TrainCorpus(vectors, assignment, self.speakers, truth, input_counts([counts]), work)


@dataclass
class TrainCorpus:
    vectors: np.ndarray
    assignment: np.ndarray
    speakers: int
    truth: mdl.ModelParams
    counts: dict
    work: object  # directory holding vectors.npy and assignment.npy

    def inputs(self):
        return library_inputs(self.vectors, self.assignment, self.speakers)


def library_inputs(vectors, assignment, speakers):
    """The Dataset and SpeakerPartition a library job receives."""
    ids = tuple(f"r{i}" for i in range(vectors.shape[0]))
    return (
        data.Dataset(vectors=vectors, ids=ids),
        data.SpeakerPartition(assignment=assignment, n_speakers=speakers),
    )


@dataclass
class FitRun:
    train_s: float   # data.accumulate + engine.fit_stats
    fit_s: float     # engine.fit_stats alone
    report: object
    params: object


def fit_once(workload, dataset, partition, prior):
    """One timed accumulate + fit at the sweep budget (module attributes, so spans can wrap them)."""
    t0 = time.perf_counter()
    stats = data.accumulate(dataset, partition)
    t1 = time.perf_counter()
    _, params, report = engine.fit_stats(stats, prior, workload.config(), workload.n_y)
    t2 = time.perf_counter()
    return FitRun(train_s=t2 - t0, fit_s=t2 - t1, report=report, params=params)


def check_totals(totals, comparable, reference):
    """Failures of the bound trace: finite terms, ascent, final value against the reference.

    `totals` holds one bound per sweep; `comparable[i]` says whether sweeps i and
    i + 1 share an objective (kappa = 1 on both, no event between them).
    """
    problems = []
    if not all(math.isfinite(t) for t in totals):
        problems.append("non-finite bound")
        return problems
    for i, ok in enumerate(comparable):
        drop = totals[i] - totals[i + 1]
        if ok and drop > ASCENT_RTOL * abs(totals[i]):
            problems.append(f"bound dropped {drop:.3e} after sweep {i + 1}")
    if reference is not None and totals:
        if abs(totals[-1] - reference) > REFERENCE_RTOL * abs(reference):
            problems.append(f"final bound {totals[-1]!r} differs from reference {reference!r}")
    return problems


def check_fit(run, truth, reference):
    report = run.report
    problems = []
    for bd in report.breakdown_trace:
        bad = [k for k, v in bd.as_dict().items() if not math.isfinite(v)]
        if bad:
            problems.append(f"non-finite bound terms {bad}")
            break
    kappas = report.kappa_log
    comparable = [kappas[i] == 1.0 and kappas[i + 1] == 1.0 for i in range(len(kappas) - 1)]
    problems += check_totals(list(report.elbo_trace), comparable, reference)
    angle = float(np.degrees(scipy.linalg.subspace_angles(truth.V, run.params.V).max()))
    if not angle < MAX_ANGLE_DEG:
        problems.append(f"principal angle {angle:.3f} deg exceeds {MAX_ANGLE_DEG}")
    w_mean = float(np.mean(np.diag(run.params.W)))
    if not abs(w_mean - W_TRUE) <= W_MEAN_RTOL * W_TRUE:
        problems.append(f"mean diag(E[W]) {w_mean:.4f} is not within {W_MEAN_RTOL:.0%} of {W_TRUE}")
    return problems


# ---------------------------------------------------------------------------
# CLI workload: bsplda train -> adapt -> elbo on files.


@dataclass(frozen=True)
class CliWorkload:
    name: str
    why: str
    dim: int
    rank: int
    n_y: int
    train_speakers: int
    adapt_speakers: int
    count_range: tuple
    anneal: tuple        # ((kappa, sweeps), ...)
    event_every: int     # hyperopt and minimum-divergence period
    adapt_sweeps: int

    @property
    def train_sweeps(self):
        return sum(span for _, span in self.anneal)

    def setup(self, seed, work):
        """Write the out-of-domain and in-domain corpora as data containers and label files.

        The in-domain corpus comes from a loading and mean shifted away from the
        out-of-domain ones, which is what adaptation is for.
        """
        rng = synth.CounterRng(_stream(seed, 0))
        ood = _draw_truth(rng, self.dim, self.rank)
        shift = 0.5 * rng.gaussians(self.dim * (self.rank + 1)).reshape(self.dim, self.rank + 1)
        ind = mdl.ModelParams(mu=ood.mu + shift[:, -1], V=ood.V + shift[:, :-1], W=ood.W)
        all_counts = []
        for tag, params, speakers, stream in (
            ("ood", ood, self.train_speakers, 1),
            ("ind", ind, self.adapt_speakers, 3),
        ):
            vectors, assignment, counts = _draw_corpus(
                _stream(seed, stream), params, speakers, self.count_range
            )
            mio.write_data_file(work / f"{tag}.data", vectors)
            mio.write_labels_file(
                work / f"{tag}.labels",
                [f"{tag}{row:06d}" for row in range(vectors.shape[0])],
                [f"spk{s:05d}" for s in assignment],
            )
            all_counts.append(counts)
        return input_counts(all_counts)

    def commands(self, work):
        """(label, argv) of the three bsplda commands, in order."""
        w = str(work)
        anneal = ",".join(f"{k:g}:{n}" for k, n in self.anneal)
        budget = ["--tol", f"{FIXED_BUDGET_TOL:g}"]
        return [
            ("train", ["train", "--data", f"{w}/ood.data", "--labels", f"{w}/ood.labels",
                       "--out", f"{w}/ood.model", "--trace", f"{w}/ood.csv",
                       "--variant", mdl.V2_GAMMA_DIAGONAL, "--ny", str(self.n_y),
                       "--iters", str(self.train_sweeps), *budget, "--anneal", anneal,
                       "--hyperopt-every", str(self.event_every),
                       "--mindiv-every", str(self.event_every)]),
            ("adapt", ["adapt", "--prior", f"{w}/ood.model", "--data", f"{w}/ind.data",
                       "--labels", f"{w}/ind.labels", "--out", f"{w}/ind.model",
                       "--trace", f"{w}/ind.csv", "--iters", str(self.adapt_sweeps), *budget]),
            ("elbo", ["elbo", "--model", f"{w}/ind.model", "--data", f"{w}/ind.data",
                      "--labels", f"{w}/ind.labels"]),
        ]

    def train_comparable(self):
        """Sweep pairs of the train trace that share an objective."""
        kappas = [k for k, span in self.anneal for _ in range(span)]
        return [
            kappas[i] == 1.0 and kappas[i + 1] == 1.0 and (i + 1) % self.event_every != 0
            for i in range(len(kappas) - 1)
        ]


def read_trace_totals(path):
    """The 'total' column of a trace CSV, as printed (strings) and as floats."""
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("total")
    text = [line.split(",")[col] for line in lines[1:]]
    return text, [float(t) for t in text]


def cli_output_digests(work, elbo_stdout):
    """Command -> SHA-256 of what it wrote: model and trace files, or printed bound."""
    def digest(*parts):
        h = hashlib.sha256()
        for part in parts:
            h.update(part)
        return h.hexdigest()

    return {
        "train": digest((work / "ood.model").read_bytes(), (work / "ood.csv").read_bytes()),
        "adapt": digest((work / "ind.model").read_bytes(), (work / "ind.csv").read_bytes()),
        "elbo": digest(elbo_stdout.encode()),
    }


def check_cli_outputs(workload, work, elbo_stdout, reference):
    """(command, problem) pairs for one train -> adapt -> elbo pass in which every command exited 0."""
    problems = []
    _, train_totals = read_trace_totals(work / "ood.csv")
    adapt_text, adapt_totals = read_trace_totals(work / "ind.csv")
    ref_train, ref_adapt = reference if reference is not None else (None, None)
    for name, totals, comparable, ref, budget in (
        ("train", train_totals, workload.train_comparable(), ref_train, workload.train_sweeps),
        ("adapt", adapt_totals, [True] * (len(adapt_totals) - 1), ref_adapt, workload.adapt_sweeps),
    ):
        problems += [(name, p) for p in check_totals(totals, comparable, ref)]
        if len(totals) != budget:
            problems.append((name, f"ran {len(totals)} of {budget} sweeps"))
    printed = [line.split("=", 1)[1] for line in elbo_stdout.splitlines()
               if line.startswith("total=")]
    if printed != adapt_text[-1:]:
        problems.append(("elbo", f"total {printed} differs from the adapt trace's last total"))
    return problems


def project_large():
    """Bytes the ROADMAP `large` shape (d=400, n_y=50, M=20000, N_i in [2,30]) would hold.

    Running that shape needs about 25.6 GB today, so it is projected instead:
    the statistics and the fitted q(Y) are built for 29 and for 58 speakers
    (every count in [2, 30] once, then twice) and their bytes extrapolated
    linearly in the number of speakers. Both small cases hold every distinct
    count, so a layout that grows with distinct counts extrapolates correctly.
    """
    d, n_y, speakers = 400, 50, 20000
    truth = _draw_truth(synth.CounterRng(1), d, 10)
    prior = mdl.PriorConfig(variant=mdl.V1_WISHART_NONINFORMATIVE, a_alpha=1e-3, b_alpha=1e-3,
                            mu0=0.0, beta=1.0)
    config = engine.FitConfig(max_iterations=1, elbo_rel_tol=FIXED_BUDGET_TOL)
    sizes = []
    for reps in (1, 2):
        counts = np.tile(np.arange(2, 31), reps)
        dataset, partition, _ = synth.sample(synth.GenSpec(params=truth, counts=counts, seed=2))
        stats = data.accumulate(dataset, partition)
        state, _, _ = engine.fit_stats(stats, prior, config, n_y)
        sizes.append((counts.size, held_bytes(stats), held_bytes(state.qy)))
        del stats, state
    (m1, s1, q1), (m2, s2, q2) = sizes
    stats_bytes = s1 + (speakers - m1) * (s2 - s1) // (m2 - m1)
    qy_bytes = q1 + (speakers - m1) * (q2 - q1) // (m2 - m1)
    return {"stats_bytes": stats_bytes, "qy_bytes": qy_bytes,
            "fits": stats_bytes + qy_bytes <= physical_memory_bytes()}


def physical_memory_bytes():
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# ---------------------------------------------------------------------------
# The workloads. The reasons are part of the definition: each workload loads a
# different set of layers, so an optimisation of one layer shows on one
# workload and is predicted to leave another unchanged.

WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="train-many-speakers",
            why="many speakers sharing 12 counts: the q(Y) path and accumulate dominate, "
                "(M,d,d) scatters set peak memory; the case grouped q(Y) exploits",
            variant=mdl.V1_WISHART_NONINFORMATIVE,
            dim=100, rank=5, n_y=10, speakers=4000, count_range=(4, 16),
        ),
        TrainWorkload(
            name="train-high-dim",
            why="d=300 with ~210 distinct counts over 300 speakers: the Gauss-Seidel row "
                "sweep, q(W) and Wishart bound terms dominate; q(Y) is small and unshared",
            variant=mdl.V1_WISHART_INFORMATIVE,
            dim=300, rank=10, n_y=15, speakers=300, count_range=(2, 400),
        ),
        CliWorkload(
            name="cli-train-adapt",
            why="the only workload through io, process start-up, annealing, hyperopt, "
                "minimum divergence and the decoupled diagonal-W and V4 row-prior arms",
            dim=60, rank=5, n_y=10, train_speakers=2000, adapt_speakers=100,
            count_range=(4, 12), anneal=((0.5, 5), (0.8, 5), (1.0, 50)),
            event_every=10, adapt_sweeps=40,
        ),
    )
}
