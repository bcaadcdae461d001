"""Datasets, speaker partitions, and zero/first/second-order sufficient statistics."""

import contextlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import workers
from .linalg import sym

__all__ = [
    "BLOCK_ROWS",
    "Dataset",
    "SpeakerPartition",
    "SuffStats",
    "accumulate",
    "accumulate_blocks",
    "rotate",
]


# Rows per piece of the statistics and per block of a container: the scatter
# is the sum, in order, of X_b^T X_b over pieces of this many rows. Pieces of
# 1024 rows or more add their scatters as fast as one X^T X; the README gives
# the measured table.
BLOCK_ROWS = 2048

# A piece's product X_b^T X_b of at least this many multiply-adds (rows d^2,
# a full piece at d = 128), and a block's sum task when its first piece's
# product is, run on a worker while the calling thread goes on. The README
# gives the measurements behind the value: the statistics alone gained from
# d = 80, a whole training job at d = 300 but not at d = 100.
POOL_MIN_BLOCK_WORK = 1 << 25

# Dataset checks finiteness over row blocks of about this many entries, so no
# N x d mask is built.
FINITE_CHECK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Dataset:
    """N observation vectors of dimension d, one per row, with record ids."""

    vectors: np.ndarray
    ids: tuple

    def __post_init__(self):
        vectors = np.ascontiguousarray(self.vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[0] < 1 or vectors.shape[1] < 1:
            raise ValueError(f"vectors must be a non-empty N x d matrix, got shape {vectors.shape}")
        step = max(1, FINITE_CHECK_ENTRIES // vectors.shape[1])
        if not all(np.isfinite(vectors[i:i + step]).all() for i in range(0, vectors.shape[0], step)):
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


@dataclass(frozen=True)
class SuffStats:
    """Per-speaker counts N_i and sums F_i, and the scatter S of all vectors.

    Nothing of size M*d*d is held: the fit reads the second-order statistics
    only through the dataset-wide scatter. The speakers are grouped by count
    once, here: q(Y) has one precision per distinct count.

    When the G distinct counts have G*d <= M, each count g also holds the mean
    fbar_g of its speakers' sums and their centered scatter
    sum_{i in g} (F_i - fbar_g)(F_i - fbar_g)^T, so a q(Y) step can read G
    d x d scatters in place of the M x d sums (`engine.qy_step`); then the
    scatters hold G*d*d <= M*d numbers, no more than the sums. Otherwise both
    are None.
    """

    counts: np.ndarray         # (M,) observation counts
    spk_sums: np.ndarray       # (M, d) first-order sums
    scatter_total: np.ndarray  # (d, d) sum of x x^T over every vector
    n_total: float = field(init=False)
    sum_total: np.ndarray = field(init=False)
    count_values: np.ndarray = field(init=False)  # (G,) the distinct counts, ascending
    count_group: np.ndarray = field(init=False)   # (M,) index of each speaker's count
    count_means: np.ndarray = field(init=False)     # (G, d) fbar_g, or None
    count_scatters: np.ndarray = field(init=False)  # (G, d, d) centered scatters, or None

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float)
        spk_sums = np.asarray(self.spk_sums, dtype=float)
        scatter = np.asarray(self.scatter_total, dtype=float)
        d = spk_sums.shape[1]
        if counts.shape != spk_sums.shape[:1] or scatter.shape != (d, d):
            raise ValueError(
                f"inconsistent shapes counts {counts.shape}, spk_sums {spk_sums.shape}, "
                f"scatter_total {scatter.shape}"
            )
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "spk_sums", spk_sums)
        object.__setattr__(self, "scatter_total", scatter)
        # Globals reduce over speakers in ascending index order (bit-reproducible).
        object.__setattr__(self, "n_total", float(counts.sum()))
        object.__setattr__(self, "sum_total", spk_sums.sum(axis=0))
        values, group = np.unique(counts, return_inverse=True)
        object.__setattr__(self, "count_values", values)
        object.__setattr__(self, "count_group", group)
        # sums that overflowed, which `accumulate` refuses, have no moments
        grouped = values.size * d <= counts.size and np.isfinite(self.sum_total).all()
        means, scatters = _count_moments(spk_sums, group, values.size) if grouped else (None, None)
        object.__setattr__(self, "count_means", means)
        object.__setattr__(self, "count_scatters", scatters)

    @property
    def n_speakers(self):
        return self.counts.shape[0]

    @property
    def dim(self):
        return self.spk_sums.shape[1]


def _count_moments(spk_sums, group, n_groups):
    """((G, d) means, (G, d, d) centered scatters) of the speaker sums of each
    count group. Each group's sums are gathered BLOCK_ROWS speakers at a time,
    in ascending speaker order, once for the mean and once for the scatter, so
    no copy of the M x d sums is made."""
    d = spk_sums.shape[1]
    order = np.argsort(group, kind="stable")
    bounds = np.r_[0, np.cumsum(np.bincount(group, minlength=n_groups))]
    means, scatters = np.empty((n_groups, d)), np.zeros((n_groups, d, d))
    for g in range(n_groups):
        speakers = order[bounds[g]:bounds[g + 1]]
        blocks = [speakers[i:i + BLOCK_ROWS] for i in range(0, speakers.size, BLOCK_ROWS)]
        means[g] = sum(spk_sums[block].sum(axis=0) for block in blocks) / speakers.size
        for block in blocks:
            rows = spk_sums[block]
            rows -= means[g]
            scatters[g] += rows.T @ rows
    return means, scatters


def accumulate(dataset, partition):
    """Sufficient statistics of a dataset under a speaker partition: those of
    `accumulate_blocks` on its rows as one block."""
    return accumulate_blocks((dataset.vectors,), partition)


def accumulate_blocks(blocks, partition):
    """Sufficient statistics of consecutive row blocks that together hold the
    partition's rows in order.

    Each block adds its rows to the speaker sums as one task, and the products
    X_b^T X_b of its BLOCK_ROWS-row pieces to the scatter, in order. Each
    speaker's sum adds its rows one at a time in ascending row order, across
    blocks too, bit for bit a sequential loop. The scatter's bits are fixed by
    the pieces: blocks of a multiple of BLOCK_ROWS rows, the last excepted,
    give those of `accumulate`; no bit depends on the thread that runs a task.

    A block's sum task starts before its products and finishes before the next
    block's starts. A product is added before the piece after next is reached,
    and no block is held once the next is asked for, so memory is the M x d
    sums, the d x d scatter, two products and the block being read, with what
    a pool task still reads of the last one. Every task has finished when
    this returns or raises.
    """
    assignment = partition.assignment
    sums = lambda: None  # the speaker sums so far, once the last block's task has run
    scatter = product = None  # the products added so far; the last one started
    stop = 0
    try:
        for x in blocks:
            start, stop = stop, stop + x.shape[0]
            if stop > assignment.size:
                raise ValueError(f"blocks hold more than the partition's {assignment.size} rows")
            task = partial(_add_rows, sums(), x, assignment[start:stop], partition.n_speakers)
            sums = _start(task, x[:BLOCK_ROWS])
            for piece in (x[i:i + BLOCK_ROWS] for i in range(0, x.shape[0], BLOCK_ROWS)):
                started = _start(partial(np.matmul, piece.T, piece), piece)
                if product is not None:
                    scatter = _added(scatter, product())
                product = started
            x = task = piece = None  # a block is freed before the next is read
        if stop != assignment.size:
            raise ValueError(f"blocks hold {stop} rows, the partition covers {assignment.size}")
        scatter, spk_sums = _added(scatter, product()), sums()
    except BaseException:
        for task in (product, sums):  # no worker reads a block after the error leaves
            if task is not None:
                with contextlib.suppress(Exception):
                    task()
        raise
    counts = np.bincount(assignment, minlength=partition.n_speakers)
    return _finite(SuffStats(counts=counts, spk_sums=spk_sums, scatter_total=scatter))


def _finite(stats):
    """`stats`, unless finite data overflowed its scatter or its sums: a ValueError.

    A non-finite speaker sum makes its column of the total non-finite, so the
    (d,) total stands for the (M, d) sums."""
    for name, value in (("scatter", stats.scatter_total), ("sum", stats.sum_total)):
        if not np.isfinite(value).all():
            raise ValueError(f"the sufficient statistics overflow: the data's {name} has "
                             f"non-finite entries")
    return stats


def _start(task, block):
    """A function returning the result of `task`, which is started on a worker
    when the product X_b^T X_b of `block` is worth one (POOL_MIN_BLOCK_WORK
    multiply-adds), else run now."""
    if block.shape[0] * block.shape[1] ** 2 >= POOL_MIN_BLOCK_WORK:
        return workers.start(task)
    result = task()
    return lambda: result


def _added(scatter, product):
    """scatter + product, in place; a scatter of None is zeros."""
    if scatter is None:
        return product
    scatter += product
    return scatter


def _add_rows(sums, x, assignment, n_speakers):
    """Add each row of x to sums[assignment[row]], each speaker's rows in row
    order; sums of None are zeros. Returns the sums.

    A stable sort lists each speaker's rows together, and the block's speakers
    are ranked by decreasing count. Their running sums are gathered once, step
    j adds the j-th row of every speaker that has one to a leading slice of
    the ranked sums, and the sums are scattered back. The ranked speakers are
    taken BLOCK_ROWS at a time, each chunk in as many vectorized steps as its
    first speaker has rows, so no temporary beyond the M x d sums exceeds
    BLOCK_ROWS rows.
    """
    order = np.argsort(assignment, kind="stable")
    ordered = assignment[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, ordered.size])
    rank = np.argsort(-counts, kind="stable")
    speakers = ordered[starts[rank]]
    first = starts[rank]  # where each ranked speaker's rows start in order
    active = counts.size - np.cumsum(np.bincount(counts))[:-1]  # active[j]: speakers with more than j rows
    if sums is None:
        sums = np.zeros((n_speakers, x.shape[1]))
    for lo in range(0, speakers.size, BLOCK_ROWS):
        chunk = speakers[lo:lo + BLOCK_ROWS]
        ranked = sums[chunk]
        for j in range(active.size):
            n = min(active[j], lo + chunk.size) - lo
            if n <= 0:
                break
            ranked[:n] += x[order[first[lo:lo + n] + j]]
        sums[chunk] = ranked
    return sums


def rotate(stats, rotation):
    """Statistics of the rotated vectors x^T R: the sums F_i R and the scatter R^T S R.

    Every command rotates statistics, never vectors, so a whitened model sees
    the same numbers in train, adapt and elbo.
    """
    return SuffStats(
        counts=stats.counts,
        spk_sums=stats.spk_sums @ rotation,
        scatter_total=sym(rotation.T @ stats.scatter_total @ rotation),
    )
