import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bsplda import synth, workers
from bsplda.model import ModelParams
from bsplda.synth import BLOCK_COUNTERS, CounterRng, GenSpec, sample
from tests.test_posterior import random_spd


class OneShotRng:
    """The counter generator drawing every call in one piece: the reference for
    the blocked generator."""

    def __init__(self, seed):
        self._seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def _words(self, n):
        counters = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        z = self._seed + (counters + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def uniforms(self, n):
        return ((self._words(n) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def gaussians(self, n):
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]


def one_shot_sample(spec):
    """The sampler drawing the whole noise matrix at once and multiplying it by
    L^-1: the reference for the blocked sampler."""
    params = spec.params
    d, ny = params.dim, params.rank
    m = len(spec.counts)
    n = sum(spec.counts)
    rng = OneShotRng(spec.seed)
    y = rng.gaussians(m * ny).reshape(m, ny)
    g = rng.gaussians(n * d).reshape(n, d)
    eps = g @ np.linalg.inv(np.linalg.cholesky(params.W))
    assignment = np.repeat(np.arange(m), spec.counts)
    vectors = params.mu[None, :] + y[assignment] @ params.V.T + eps
    ids = tuple(
        f"spk{i:05d}-utt{j:05d}" for i, c in enumerate(spec.counts) for j in range(c)
    )
    return vectors, ids, assignment, y


def test_counter_rng_determinism_and_range():
    a = CounterRng(123).uniforms(1000)
    b = CounterRng(123).uniforms(1000)
    np.testing.assert_array_equal(a, b)
    assert np.all((a > 0.0) & (a < 1.0))
    c = CounterRng(124).uniforms(1000)
    assert not np.array_equal(a, c)


def test_counter_rng_gaussian_moments():
    g = CounterRng(7).gaussians(200_000)
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01
    # chunked draws reproduce the one-shot stream
    rng = CounterRng(7)
    chunks = np.concatenate([rng.gaussians(2), rng.gaussians(4)])
    np.testing.assert_array_equal(chunks, CounterRng(7).gaussians(6))


def test_blocked_streams_match_one_shot_draws():
    b = BLOCK_COUNTERS
    calls = [("gaussians", n) for n in (3, b - 1, b + 2, 2 * b + 1, 1)]
    calls += [("uniforms", n) for n in (b + 1, 2, 2 * b - 3)]
    calls += [("gaussians", n) for n in (b + 3, 4, 0, 5)]
    calls += [("uniforms", 1), ("gaussians", 2 * b)]
    blocked, one_shot = CounterRng(2**63 + 9), OneShotRng(2**63 + 9)
    for kind, n in calls:
        got = getattr(blocked, kind)(n)
        assert got.shape == (n,)
        assert np.array_equal(got, getattr(one_shot, kind)(n)), (kind, n)


def _oracle_spec(d, w, counts, seed=3):
    rng = np.random.default_rng(d)
    params = ModelParams(mu=rng.normal(size=d), V=rng.normal(size=(d, 2)), W=w)
    return GenSpec(params=params, counts=counts, seed=seed)


@pytest.mark.parametrize(
    "spec",
    [
        _oracle_spec(5, np.diag([0.5, 1.0, 2.0, 4.0, 3.0]), (3, 2, 4)),
        _oracle_spec(6, 4.0 * np.eye(6), (1, 6, 3, 2)),
        _oracle_spec(4, random_spd(np.random.default_rng(8), 4, 0.5), (3, 2, 4)),
        _oracle_spec(7, random_spd(np.random.default_rng(9), 7, 0.5), (9,) * 2001),
        _oracle_spec(5, np.diag(np.arange(1.0, 6.0)), (9,) * 4501 + (2,)),
        _oracle_spec(3, 2.0 * np.eye(3), (1,)),
    ],
    ids=["diagonal-odd-d", "diagonal-even-d", "full", "full-several-blocks",
         "diagonal-several-blocks", "one-row-odd-d"],
)
def test_sample_matches_one_shot_sample(spec):
    vectors, ids, assignment, y = one_shot_sample(spec)
    ds, part, got_y = sample(spec)
    assert np.array_equal(ds.vectors, vectors)
    assert np.array_equal(got_y, y)
    assert ds.ids == ids
    assert np.array_equal(part.assignment, assignment)


@pytest.fixture(params=[1, 2], ids=["one-worker", "two-workers"])
def forced_workers(request, monkeypatch):
    """Force the worker count; returns it and the names of the threads that
    draw Box-Muller blocks."""
    monkeypatch.setattr(workers, "count", lambda: request.param)
    draw, threads = synth._gaussians_into, []

    def recorded(*args):
        threads.append(threading.current_thread().name)
        draw(*args)

    monkeypatch.setattr(synth, "_gaussians_into", recorded)
    return request.param, threads


def drew_on_workers(threads):
    # a call of one block draws on the calling thread whatever the count
    return any(name.startswith("bsplda-worker") for name in threads)


def test_streams_do_not_depend_on_the_worker_count(forced_workers):
    count, threads = forced_workers
    b = BLOCK_COUNTERS
    calls = [("gaussians", 3 * b + 3), ("uniforms", 2 * b + 1), ("gaussians", 7),
             ("uniforms", b + 2), ("gaussians", 2 * b)]
    blocked, one_shot = CounterRng(2**63 + 11), OneShotRng(2**63 + 11)
    for kind, n in calls:
        assert np.array_equal(getattr(blocked, kind)(n), getattr(one_shot, kind)(n)), (kind, n)
    assert drew_on_workers(threads) == (count > 1)


def test_gaussian_filler_fills_ranges_in_any_order():
    # ranges from even starts, one across two blocks and an odd-sized last one,
    # filled out of order; the stream moves past all n normals at once
    n = 2 * BLOCK_COUNTERS + 5
    rng, one_shot = CounterRng(4), OneShotRng(4)
    fill = rng.gaussian_filler(n)
    after = rng.gaussians(3)
    out = np.empty(n)
    for start, stop in ((n - 7, n), (2, n - 7), (0, 2)):
        fill(start, out[start:stop])
    assert np.array_equal(out, one_shot.gaussians(n))
    assert np.array_equal(after, one_shot.gaussians(3))


def test_draws_on_more_workers_than_cores_match_one_shot_draws(monkeypatch):
    # eight workers switching every microsecond: a block drawn twice, lost or
    # written with another block's scratch changes the draw
    monkeypatch.setattr(workers, "count", lambda: 8)
    monkeypatch.setattr(workers, "MAX_WORKERS", 8)
    monkeypatch.setattr(workers, "_pool", None)
    n = 24 * BLOCK_COUNTERS + 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = CounterRng(5).gaussians(n)
    finally:
        sys.setswitchinterval(interval)
        workers._pool.shutdown()
    assert np.array_equal(got, OneShotRng(5).gaussians(n))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_draws_on_a_pool_of_its_own():
    # the child inherits the parent's pool object but not its threads
    import bsplda

    code = (
        "import os; from bsplda import synth, workers; workers.count = lambda: 2; "
        "n = 5 * synth.BLOCK_COUNTERS; first = synth.CounterRng(3).gaussians(n); pid = os.fork()\n"
        "if pid == 0:\n"
        "    os._exit(0 if (synth.CounterRng(3).gaussians(n) == first).all() else 1)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bsplda.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "0"


def _latent_rich_spec():
    # m n_y = 66 700 latents span two blocks; N = 10 005 rows at odd d = 7 give
    # noise blocks of 9362 rows and a last one of 643 rows, an odd number of entries
    rng = np.random.default_rng(12)
    params = ModelParams(mu=rng.normal(size=7), V=rng.normal(size=(7, 20)),
                         W=np.diag(rng.uniform(0.5, 4.0, size=7)))
    return GenSpec(params=params, counts=(3,) * 3335, seed=2**64 - 5)


@pytest.mark.parametrize(
    "spec",
    [
        _latent_rich_spec(),
        _oracle_spec(5, np.diag(np.arange(1.0, 6.0)), (9,) * 4501 + (2,)),
        _oracle_spec(7, random_spd(np.random.default_rng(9), 7, 0.5), (9,) * 2001),
    ],
    ids=["diagonal-odd-last-block", "diagonal-several-blocks", "full-several-blocks"],
)
def test_sample_does_not_depend_on_the_worker_count(forced_workers, spec):
    count, threads = forced_workers
    vectors, ids, assignment, y = one_shot_sample(spec)
    ds, part, got_y = sample(spec)
    assert np.array_equal(ds.vectors, vectors)
    assert np.array_equal(got_y, y)
    assert ds.ids == ids
    assert np.array_equal(part.assignment, assignment)
    assert drew_on_workers(threads) == (count > 1)


def test_sample_holds_about_one_corpus():
    # N d = 2^21: the output and the ids, plus blocks and validation temporaries
    d = 64
    rng = np.random.default_rng(6)
    params = ModelParams(mu=rng.normal(size=d), V=rng.normal(size=(d, 4)), W=2.0 * np.eye(d))
    spec = GenSpec(params=params, counts=(8,) * 4096, seed=1)
    tracemalloc.start()
    try:
        ds, _, _ = sample(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.vectors.size == 1 << 21
    held = ds.vectors.nbytes + sys.getsizeof(ds.ids) + sum(sys.getsizeof(i) for i in ds.ids)
    assert peak < 1.25 * held, f"sampling peaked at {peak / held:.2f} x the output and ids"


@pytest.mark.parametrize("cpus", [4, 8])
def test_sample_scratch_does_not_grow_with_the_cpus(monkeypatch, cpus):
    # a process that may run on more CPUs starts a pool of the same size, so
    # the bound above holds for it too
    monkeypatch.setattr(workers, "count", lambda: cpus)
    monkeypatch.setattr(workers, "_pool", None)
    try:
        test_sample_holds_about_one_corpus()
    finally:
        if workers._pool is not None:
            workers._pool.shutdown()


def test_sample_deterministic_bit_for_bit():
    params = ModelParams(mu=np.array([1.0, -2.0]), V=np.array([[0.5], [1.5]]), W=np.eye(2))
    spec = GenSpec(params=params, counts=(3, 2, 4), seed=42)
    ds1, part1, y1 = sample(spec)
    ds2, part2, y2 = sample(spec)
    assert np.array_equal(ds1.vectors, ds2.vectors)
    assert np.array_equal(y1, y2)
    assert ds1.ids == ds2.ids
    assert np.array_equal(part1.assignment, part2.assignment)


def test_sample_law_of_large_numbers():
    # V = 0, W = I: sample mean -> mu and sample covariance -> I
    d = 3
    mu = np.array([2.0, -1.0, 0.5])
    params = ModelParams(mu=mu, V=np.zeros((d, 1)), W=np.eye(d))
    n = 100_000
    ds, _, _ = sample(GenSpec(params=params, counts=(1,) * n, seed=5))
    tol = 5.0 / np.sqrt(n)
    assert np.abs(ds.vectors.mean(axis=0) - mu).max() < tol
    cov = np.cov(ds.vectors.T)
    assert np.abs(cov - np.eye(d)).max() < 5 * tol


def test_sample_total_covariance_matches_model():
    # singleton speakers: total covariance -> V V^T + W^{-1}
    rng = np.random.default_rng(3)
    d, ny = 3, 2
    v = rng.normal(size=(d, ny))
    w = random_spd(rng, d, 0.5)
    params = ModelParams(mu=np.zeros(d), V=v, W=w)
    n = 100_000
    ds, _, _ = sample(GenSpec(params=params, counts=(1,) * n, seed=11))
    target = v @ v.T + np.linalg.inv(w)
    cov = np.cov(ds.vectors.T)
    # 3-standard-error bands on each entry of a sample covariance
    se = 3.0 * np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
    assert np.all(np.abs(cov - target) < 5 * se + 1e-3)


def test_sample_latents_have_model_structure():
    rng = np.random.default_rng(4)
    d, ny = 2, 1
    params = ModelParams(mu=rng.normal(size=d), V=rng.normal(size=(d, ny)), W=100.0 * np.eye(d))
    ds, part, y = sample(GenSpec(params=params, counts=(5, 5), seed=9))
    # tiny channel noise: rows cluster tightly around mu + V y_i
    for i in range(2):
        rows = ds.vectors[part.assignment == i]
        np.testing.assert_allclose(rows.mean(axis=0), params.mu + params.V @ y[i], atol=0.2)


def test_genspec_validation():
    params = ModelParams(mu=np.zeros(1), V=np.ones((1, 1)), W=np.eye(1))
    with pytest.raises(ValueError):
        GenSpec(params=params, counts=(), seed=0)
    with pytest.raises(ValueError):
        GenSpec(params=params, counts=(1, 0), seed=0)
