import tracemalloc

import numpy as np
import pytest

from bsplda import data
from bsplda.data import Dataset, SpeakerPartition, SuffStats, accumulate, rotate


def make_dataset(vectors):
    vectors = np.asarray(vectors, dtype=float)
    ids = tuple(f"r{i}" for i in range(vectors.shape[0]))
    return Dataset(vectors=vectors, ids=ids)


def brute_force_stats(vectors, assignment, m):
    d = vectors.shape[1]
    counts = np.zeros(m)
    sums = np.zeros((m, d))
    scatter = np.zeros((d, d))
    for x, spk in zip(vectors, assignment):
        counts[spk] += 1
        sums[spk] += x
        scatter += np.outer(x, x)
    return counts, sums, scatter


def test_accumulate_identity_outer_products():
    ds = make_dataset([[1.0, 0.0], [0.0, 1.0]])
    part = SpeakerPartition(assignment=[0, 0], n_speakers=1)
    stats = accumulate(ds, part)
    assert stats.counts[0] == 2
    np.testing.assert_allclose(stats.spk_sums[0], [1.0, 1.0])
    np.testing.assert_allclose(stats.scatter_total, np.eye(2))


def test_accumulate_two_singleton_speakers():
    v = np.array([0.3, -1.2, 2.0])
    ds = make_dataset([v, v])
    part = SpeakerPartition(assignment=[0, 1], n_speakers=2)
    stats = accumulate(ds, part)
    assert stats.n_total == 2
    np.testing.assert_allclose(stats.sum_total, 2 * v)
    np.testing.assert_allclose(stats.scatter_total, 2 * np.outer(v, v))


def test_accumulate_matches_naive_summation():
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(5, 3))
    assignment = np.array([0, 1, 0, 1, 1])
    ds = make_dataset(vectors)
    stats = accumulate(ds, SpeakerPartition(assignment=assignment, n_speakers=2))
    counts, sums, scatter = brute_force_stats(vectors, assignment, 2)
    np.testing.assert_allclose(stats.counts, counts)
    np.testing.assert_allclose(stats.spk_sums, sums, rtol=1e-12)
    np.testing.assert_allclose(stats.scatter_total, scatter, rtol=1e-12)


def test_within_speaker_permutation_invariance():
    rng = np.random.default_rng(17)
    vectors = rng.normal(size=(12, 4))
    assignment = np.array([0] * 5 + [1] * 7)
    ds = make_dataset(vectors)
    base = accumulate(ds, SpeakerPartition(assignment=assignment, n_speakers=2))
    order = np.concatenate([rng.permutation(5), 5 + rng.permutation(7)])
    shuffled = make_dataset(vectors[order])
    other = accumulate(shuffled, SpeakerPartition(assignment=assignment[order], n_speakers=2))
    np.testing.assert_allclose(base.spk_sums, other.spk_sums, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(base.scatter_total, other.scatter_total, rtol=1e-12, atol=1e-12)


def sequential_sums(vectors, assignment, m):
    sums = np.zeros((m, vectors.shape[1]))
    for x, spk in zip(vectors, assignment):
        sums[spk] += x
    return sums


@pytest.mark.parametrize(
    "counts",
    [np.arange(200) % 23, np.zeros(9, dtype=int), np.repeat(np.arange(6), 4),
     np.concatenate([np.zeros(1000, dtype=int), [1, 2], np.full(3, 3)]),
     np.repeat(np.arange(data.BLOCK_ROWS + 700), np.arange(data.BLOCK_ROWS + 700) % 40 + 1)],
    ids=["shuffled", "one-speaker", "tied-counts", "counts-1-and-1000", "over-speaker-chunks"],
)
def test_accumulate_sums_rows_in_row_order(counts):
    # bit for bit the sequential loop, whatever the row order and the counts
    rng = np.random.default_rng(29)
    assignment = rng.permutation(counts)
    m = int(assignment.max()) + 1
    vectors = rng.normal(size=(assignment.size, 4)) * 10.0 ** rng.integers(-8, 9, size=(1, 4))
    stats = accumulate(make_dataset(vectors), SpeakerPartition(assignment=assignment, n_speakers=m))
    assert np.array_equal(stats.spk_sums, sequential_sums(vectors, assignment, m))
    assert np.array_equal(stats.counts, np.bincount(assignment, minlength=m))


def test_accumulate_peaks_near_the_speaker_sums():
    # one block holding every speaker: the M x d sums, and chunks of the ranked
    # speakers of at most BLOCK_ROWS rows, not a second M x d copy
    rng = np.random.default_rng(31)
    m, d = 20_000, 100
    assignment = rng.permutation(np.repeat(np.arange(m), rng.integers(2, 6, size=m)))
    ds = make_dataset(rng.normal(size=(assignment.size, d)))
    part = SpeakerPartition(assignment=assignment, n_speakers=m)
    tracemalloc.start()
    try:
        accumulate(ds, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * m * d


@pytest.mark.parametrize("m, grouped", [(12, True), (11, False)])
def test_statistics_hold_per_count_moments_exactly_when_counts_times_dim_fit_the_speakers(m, grouped):
    # G = 4 distinct counts at d = 3: G d = 12, the boundary of G d <= M
    rng = np.random.default_rng(m)
    counts = np.tile([1.0, 2.0, 3.0, 4.0], 3)[:m]
    stats = SuffStats(counts=counts, spk_sums=rng.normal(size=(m, 3)) + 1e3, scatter_total=np.eye(3))
    assert stats.count_values.size * stats.dim == 12
    if not grouped:
        assert stats.count_means is None and stats.count_scatters is None
        return
    for g, value in enumerate(stats.count_values):
        sums = stats.spk_sums[stats.counts == value]
        mean = sums.mean(axis=0)
        np.testing.assert_allclose(stats.count_means[g], mean, rtol=1e-15)
        centered = sum(np.outer(f - mean, f - mean) for f in sums)
        np.testing.assert_allclose(stats.count_scatters[g], centered, rtol=1e-12, atol=1e-12)
        assert np.array_equal(stats.count_scatters[g], stats.count_scatters[g].T)
    assert stats.count_scatters.size <= stats.spk_sums.size


def test_per_count_moments_gather_speakers_in_blocks(monkeypatch):
    # a count shared by more speakers than one block gathers them block by block
    rng = np.random.default_rng(5)
    monkeypatch.setattr(data, "BLOCK_ROWS", 7)
    counts = np.repeat([2.0, 5.0], [30, 4])
    sums = rng.normal(size=(34, 2)) + 50.0
    stats = SuffStats(counts=counts, spk_sums=sums, scatter_total=np.eye(2))
    for g, rows in enumerate((sums[:30], sums[30:])):
        mean = rows.mean(axis=0)
        np.testing.assert_allclose(stats.count_means[g], mean, rtol=1e-14)
        np.testing.assert_allclose(stats.count_scatters[g], (rows - mean).T @ (rows - mean), rtol=1e-12)


def test_rotate_matches_rotated_vectors():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n, d, m = 14, 4, 3
        vectors = rng.normal(size=(n, d))
        assignment = rng.integers(0, m, size=n)
        while len(np.unique(assignment)) < m:
            assignment = rng.integers(0, m, size=n)
        rotation = np.linalg.qr(rng.normal(size=(d, d)))[0]
        part = SpeakerPartition(assignment=assignment, n_speakers=m)
        rotated = rotate(accumulate(make_dataset(vectors), part), rotation)
        oracle = accumulate(make_dataset(vectors @ rotation), part)
        assert np.array_equal(rotated.counts, oracle.counts)
        np.testing.assert_allclose(rotated.spk_sums, oracle.spk_sums, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rotated.scatter_total, oracle.scatter_total, rtol=0, atol=1e-12)
        assert np.array_equal(rotated.scatter_total, rotated.scatter_total.T)


def test_validation_errors():
    with pytest.raises(ValueError):
        Dataset(vectors=np.array([[np.nan, 1.0]]), ids=("a",))
    with pytest.raises(ValueError):
        Dataset(vectors=np.empty((0, 2)), ids=())
    with pytest.raises(ValueError):
        SpeakerPartition(assignment=[0, 0], n_speakers=2)  # speaker 1 empty
    ds = make_dataset([[1.0], [2.0]])
    with pytest.raises(ValueError):
        accumulate(ds, SpeakerPartition(assignment=[0], n_speakers=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_in_the_last_row_block_is_rejected(bad):
    # finiteness is checked block by block: the last block is a partial one
    d = 3
    step = data.FINITE_CHECK_ENTRIES // d
    vectors = np.ones((2 * step + 5, d))
    Dataset(vectors=vectors, ids=range(vectors.shape[0]))
    vectors[-1, -1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(vectors=vectors, ids=range(vectors.shape[0]))
