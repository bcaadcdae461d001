"""Datasets, speaker partitions, and zero/first/second-order sufficient statistics."""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Dataset",
    "SpeakerPartition",
    "SuffStats",
    "CenteredStats",
    "accumulate",
    "merge",
    "center",
]


@dataclass(frozen=True)
class Dataset:
    """N observation vectors of dimension d, one per row, with record ids."""

    vectors: np.ndarray
    ids: tuple

    def __post_init__(self):
        vectors = np.ascontiguousarray(self.vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[0] < 1 or vectors.shape[1] < 1:
            raise ValueError(f"vectors must be a non-empty N x d matrix, got shape {vectors.shape}")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("vectors contain non-finite entries")
        ids = tuple(self.ids)
        if len(ids) != vectors.shape[0]:
            raise ValueError(f"{len(ids)} ids for {vectors.shape[0]} rows")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "ids", ids)

    @property
    def n(self):
        return self.vectors.shape[0]

    @property
    def dim(self):
        return self.vectors.shape[1]


@dataclass(frozen=True)
class SpeakerPartition:
    """Assignment of each dataset row to one of M speakers."""

    assignment: np.ndarray
    n_speakers: int

    def __post_init__(self):
        assignment = np.asarray(self.assignment, dtype=int)
        if assignment.ndim != 1:
            raise ValueError("assignment must be one-dimensional")
        if self.n_speakers < 1:
            raise ValueError("need at least one speaker")
        if assignment.size and (assignment.min() < 0 or assignment.max() >= self.n_speakers):
            raise ValueError("speaker indices must lie in [0, n_speakers)")
        counts = np.bincount(assignment, minlength=self.n_speakers)
        if np.any(counts == 0):
            missing = int(np.flatnonzero(counts == 0)[0])
            raise ValueError(f"speaker {missing} has no vectors")
        object.__setattr__(self, "assignment", assignment)

    def check_compatible(self, dataset):
        if self.assignment.size != dataset.n:
            raise ValueError(
                f"partition covers {self.assignment.size} rows, dataset has {dataset.n}"
            )


@dataclass(frozen=True)
class SuffStats:
    """Per-speaker and global statistics: counts N_i, sums F_i, scatters S_i."""

    counts: np.ndarray      # (M,) observation counts
    spk_sums: np.ndarray    # (M, d) first-order sums
    spk_scatters: np.ndarray  # (M, d, d) second-order sums
    n_total: int = field(init=False)
    sum_total: np.ndarray = field(init=False)
    scatter_total: np.ndarray = field(init=False)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        spk_sums = np.asarray(self.spk_sums, dtype=float)
        spk_scatters = np.asarray(self.spk_scatters, dtype=float)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "spk_sums", spk_sums)
        object.__setattr__(self, "spk_scatters", spk_scatters)
        # Globals reduce over speakers in ascending index order (bit-reproducible).
        object.__setattr__(self, "n_total", float(counts.sum()))
        if spk_sums.size:
            object.__setattr__(self, "sum_total", spk_sums.sum(axis=0))
            object.__setattr__(self, "scatter_total", spk_scatters.sum(axis=0))
        else:
            d = spk_sums.shape[1]
            object.__setattr__(self, "sum_total", np.zeros(d))
            object.__setattr__(self, "scatter_total", np.zeros((d, d)))

    @property
    def n_speakers(self):
        return self.counts.shape[0]

    @property
    def dim(self):
        return self.spk_sums.shape[1]

    @staticmethod
    def empty(dim):
        """Statistics of an empty dataset (no speakers, no vectors)."""
        return SuffStats(
            counts=np.zeros(0),
            spk_sums=np.zeros((0, dim)),
            spk_scatters=np.zeros((0, dim, dim)),
        )


@dataclass(frozen=True)
class CenteredStats:
    """First-order sums centered per speaker and the global centered scatter."""

    mu: np.ndarray
    spk_sums: np.ndarray      # (M, d): F_i - N_i mu
    scatter_total: np.ndarray  # (d, d): S - mu F^T - F mu^T + N mu mu^T


def accumulate(dataset, partition):
    """Sufficient statistics of a dataset under a speaker partition.

    One pass over the data; within each speaker rows are reduced in ascending
    row order, and globals in ascending speaker order.
    """
    partition.check_compatible(dataset)
    x = dataset.vectors
    m, d = partition.n_speakers, dataset.dim
    counts = np.zeros(m)
    sums = np.zeros((m, d))
    scatters = np.zeros((m, d, d))
    for i in range(m):
        rows = np.flatnonzero(partition.assignment == i)
        xi = x[rows]
        counts[i] = rows.size
        sums[i] = xi.sum(axis=0)
        scatters[i] = xi.T @ xi
    return SuffStats(counts=counts, spk_sums=sums, spk_scatters=scatters)


def merge(chunks):
    """Concatenate per-speaker statistics of disjoint speaker chunks.

    Chunks must partition the speakers (speaker granularity); globals are
    re-reduced in ascending speaker order, so the result is bit-identical to a
    single-pass accumulation.
    """
    chunks = list(chunks)
    if not chunks:
        raise ValueError("nothing to merge")
    return SuffStats(
        counts=np.concatenate([c.counts for c in chunks]),
        spk_sums=np.concatenate([c.spk_sums for c in chunks]),
        spk_scatters=np.concatenate([c.spk_scatters for c in chunks]),
    )


def center(stats, mu):
    """Centered statistics for a given mean: F_i - N_i mu and the global centered scatter."""
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (stats.dim,):
        raise ValueError(f"mu has shape {mu.shape}, expected ({stats.dim},)")
    spk_sums = stats.spk_sums - stats.counts[:, None] * mu[None, :]
    f = stats.sum_total
    scatter = (
        stats.scatter_total
        - np.outer(mu, f)
        - np.outer(f, mu)
        + stats.n_total * np.outer(mu, mu)
    )
    return CenteredStats(mu=mu, spk_sums=spk_sums, scatter_total=scatter)
