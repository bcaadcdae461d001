import hashlib
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bsplda.model as mdl
from bsplda import io as mio, workers
from bsplda.cli import _build_fit_config, _load_stats, build_parser, main
from bsplda.data import Dataset, SpeakerPartition, accumulate, accumulate_blocks
from bsplda.engine import FitConfig
from bsplda.model import ModelParams, PriorConfig
from bsplda.posterior import QAlpha, QVtilde, QWGamma, QWWishart
from bsplda.synth import GenSpec, sample
from tests.test_engine import duplicated_dimension_problem
from tests.test_posterior import random_qv, random_spd


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_vectors(path, n_rows):
    """The whole payload of a data container, copied out of the reader's reused block."""
    return np.concatenate([block.copy() for block in mio.read_data_blocks(path, n_rows)])


def test_data_file_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    n = mio.BLOCK_ROWS + 3
    vectors = rng.normal(size=(n, 5))
    path = tmp_path / "x.data"
    mio.write_data_file(path, vectors)
    back = read_vectors(path, n)
    assert np.array_equal(back, vectors)
    raw = path.read_bytes()
    assert raw.startswith(b"BSPLDA-DATA\x00")
    assert len(raw) == 12 + 2 + 4 + 8 + n * 5 * 8


def test_data_file_rejects_corruption(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "x.data"
    mio.write_data_file(path, rng.normal(size=(3, 2)))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    bad = tmp_path / "bad.data"
    bad.write_bytes(bytes(raw))
    with pytest.raises(mio.FormatError, match="magic"):
        read_vectors(bad, 3)
    truncated = tmp_path / "short.data"
    truncated.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(mio.FormatError, match="header declares"):
        read_vectors(truncated, 3)
    trailing = tmp_path / "long.data"
    trailing.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(mio.FormatError, match="trailing"):
        read_vectors(trailing, 3)
    for d, n in ((0, 3), (2, 0)):
        empty = tmp_path / "empty.data"
        empty.write_bytes(mio.MAGIC_DATA + struct.pack("<HIQ", 1, d, n))
        with pytest.raises(mio.FormatError, match="at least 1"):
            read_vectors(empty, n)


@pytest.mark.parametrize("n", [2**40, 2**61])
def test_data_file_rejects_header_larger_than_file(tmp_path, n):
    # 2^61 rows of 4 doubles is 2^66 bytes: a 64-bit product would wrap around
    path = tmp_path / "huge.data"
    path.write_bytes(mio.MAGIC_DATA + struct.pack("<HIQ", 1, 4, n) + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(mio.FormatError, match="header declares"):
            read_vectors(path, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"read allocated {peak} bytes"


def header_pipe(n, d=4):
    """(read end, writer thread) of a pipe that carries only a data container's header."""
    read_end, write_end = os.pipe()

    def writer():
        with os.fdopen(write_end, "wb") as f:
            f.write(mio.MAGIC_DATA + struct.pack("<HIQ", 1, d, n))

    thread = threading.Thread(target=writer)
    thread.start()
    return read_end, thread


def test_data_stream_shorter_than_header_is_format_error():
    # a pipe has no size to check the header against: it is read a block at a time
    read_end, thread = header_pipe(1 << 40)
    tracemalloc.start()
    try:
        with pytest.raises(mio.FormatError, match="truncated"):
            read_vectors(f"/dev/fd/{read_end}", 1 << 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        thread.join()
        os.close(read_end)
    assert peak < 1 << 20, f"read allocated {peak} bytes"


def test_labels_round_trip_and_partition(tmp_path):
    path = tmp_path / "x.labels"
    ids = ["u1", "u2", "u3", "u4"]
    speakers = ["bob", "alice", "bob", "carol"]
    mio.write_labels_file(path, ids, speakers)
    assert path.read_text() == "u1 bob\nu2 alice\nu3 bob\nu4 carol\n"
    partition = mio.read_labels_file(path)
    assert partition.n_speakers == 3
    np.testing.assert_array_equal(partition.assignment, [0, 1, 0, 2])  # first appearance order
    bad = tmp_path / "bad.labels"
    bad.write_text("u1 bob\nu2\n")
    with pytest.raises(mio.FormatError, match=":2:"):
        mio.read_labels_file(bad)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_labels_skip_blank_lines_and_index_speakers_by_first_appearance(tmp_path, newline):
    lines = ["u1 bob", "", "u2\talice ", "   ", " u3  bob", "u4 carol", "u5 alice", ""]
    path = tmp_path / "x.labels"
    path.write_bytes(newline.join(lines).encode())
    partition = mio.read_labels_file(path)
    assert partition.n_speakers == 3
    np.testing.assert_array_equal(partition.assignment, [0, 1, 0, 2, 1])


@pytest.mark.parametrize("bad_line", ["u9", "u9 bob extra"], ids=["one-field", "three-fields"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_malformed_label_line_reports_its_line_number(tmp_path, bad_line, newline):
    # blank lines count: the malformed line is the file's fifth
    path = tmp_path / "bad.labels"
    path.write_bytes(newline.join(["u1 bob", "", "u2 alice", "  ", bad_line, "u3 bob"]).encode())
    with pytest.raises(mio.FormatError, match=f"^{re.escape(str(path))}:5: expected '<record_id> <speaker_id>'$"):
        mio.read_labels_file(path)


def write_corpus(tmp_path, vectors, assignment, tag="c"):
    data, labels = tmp_path / f"{tag}.data", tmp_path / f"{tag}.labels"
    mio.write_data_file(data, vectors)
    mio.write_labels_file(labels, [f"r{i}" for i in range(len(assignment))],
                          [f"s{a}" for a in assignment])
    return data, labels


def streamed_stats(data, labels):
    return _load_stats(SimpleNamespace(data=str(data), labels=str(labels)))


def straddling_assignment(rng, b):
    # speaker 0 holds rows b - 3 .. 3b + 2, across four blocks
    n = 3 * b + 40
    assignment = rng.integers(1, 30, size=n)
    assignment[b - 3:3 * b + 3] = 0
    return assignment


STREAM_CASES = ["one-block", "one-block-plus-one", "speaker-straddles-blocks", "single-speaker"]


def stream_case(case):
    """(vectors, assignment) of a streamed-statistics case; every speaker has a row."""
    rng = np.random.default_rng(23)
    b = mio.BLOCK_ROWS
    assignment = {
        "one-block": lambda: rng.integers(0, 50, size=b),
        "one-block-plus-one": lambda: rng.integers(0, 50, size=b + 1),
        "speaker-straddles-blocks": lambda: straddling_assignment(rng, b),
        "single-speaker": lambda: np.zeros(2 * b + 7, dtype=int),
    }[case]()
    assignment = np.unique(assignment, return_inverse=True)[1]
    n, d = assignment.size, 5
    vectors = (rng.normal(size=(n, d)) + rng.normal(size=d)) * 10.0 ** np.arange(-8, 9, 4)
    return vectors, assignment


def in_label_order(vectors, assignment):
    """The Dataset and SpeakerPartition of a corpus, speakers indexed by first
    appearance as a labels file indexes them."""
    order = np.unique(assignment, return_index=True)[1].argsort().argsort()
    return (Dataset(vectors=vectors, ids=tuple(range(assignment.size))),
            SpeakerPartition(assignment=order[assignment], n_speakers=order.size))


@pytest.mark.parametrize("case", STREAM_CASES)
def test_streamed_stats_match_accumulate(tmp_path, case):
    # counts and sums are bit-exact; the scatter adds the same N products in
    # another order, so it is within 2 gamma_N |X|^T |X| of one X^T X
    vectors, assignment = stream_case(case)
    b, n = mio.BLOCK_ROWS, assignment.size
    stats = streamed_stats(*write_corpus(tmp_path, vectors, assignment))
    full = accumulate(*in_label_order(vectors, assignment))
    assert np.array_equal(stats.counts, full.counts)
    assert np.array_equal(stats.spk_sums, full.spk_sums)
    assert np.array_equal(stats.sum_total, full.sum_total)
    u = np.finfo(float).eps / 2
    gamma = n * u / (1 - n * u)
    bound = 2 * gamma * (np.abs(vectors).T @ np.abs(vectors))
    assert np.all(np.abs(stats.scatter_total - full.scatter_total) <= bound)
    if n <= b:
        assert np.array_equal(stats.scatter_total, full.scatter_total)
    brute = sum(np.outer(x, x) for x in vectors)
    assert np.all(np.abs(full.scatter_total - brute) <= bound)


@pytest.mark.parametrize("case", STREAM_CASES)
def test_accumulate_equals_the_streamed_statistics(tmp_path, case):
    # the library and the CLI both sum X_b^T X_b over BLOCK_ROWS-row blocks
    vectors, assignment = stream_case(case)
    stats = streamed_stats(*write_corpus(tmp_path, vectors, assignment))
    full = accumulate(*in_label_order(vectors, assignment))
    for name in ("counts", "spk_sums", "scatter_total", "sum_total"):
        assert np.array_equal(getattr(stats, name), getattr(full, name)), name


@pytest.fixture(params=[1, 2], ids=["one-worker", "two-workers"])
def worker_threads(request, monkeypatch):
    """Force the worker count; returns it and the names of the threads that ran
    the tasks handed to `workers.start`."""
    monkeypatch.setattr(workers, "count", lambda: request.param)
    start, threads = workers.start, []

    def recorded(task):
        def named():
            threads.append(threading.current_thread().name)
            return task()

        return start(named)

    monkeypatch.setattr(workers, "start", recorded)
    return request.param, threads


def test_statistics_do_not_depend_on_the_worker_count(tmp_path, worker_threads):
    # three blocks at d = 300, the last of 5 rows; threads switch every
    # microsecond, so a block overwritten by the reader while a worker forms
    # its product, or products added out of order, change the bits
    count, threads = worker_threads
    rng = np.random.default_rng(41)
    b, d, m = mio.BLOCK_ROWS, 300, 40
    n = 2 * b + 5
    assignment = np.r_[np.arange(m), rng.integers(0, m, size=n - m)]
    vectors = rng.normal(size=(n, d)) + rng.normal(size=d)
    scatter = np.zeros((d, d))
    for start in range(0, n, b):
        scatter += vectors[start:start + b].T @ vectors[start:start + b]
    sums = np.zeros((m, d))
    np.add.at(sums, assignment, vectors)  # each speaker's rows in row order
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        library = accumulate(*in_label_order(vectors, assignment))
        streamed = streamed_stats(*write_corpus(tmp_path, vectors, assignment))
    finally:
        sys.setswitchinterval(interval)
    for stats in (library, streamed):
        assert np.array_equal(stats.scatter_total, scatter)
        assert np.array_equal(stats.spk_sums, sums)
    pooled = [name.startswith("bsplda-worker") for name in threads]
    # the library's sums pass and two full blocks from each source
    assert len(pooled) == 5 and all(pooled) == (count > 1)


def test_a_failing_block_source_leaves_no_product_running(monkeypatch):
    # the source fails after two blocks, the second product still forming:
    # the error leaves accumulate_blocks only once no worker reads a block
    monkeypatch.setattr(workers, "count", lambda: 2)
    start, started, finished = workers.start, [], []

    def recorded(task):
        def run():
            result = task()
            finished.append(1)
            return result

        started.append(1)
        return start(run)

    monkeypatch.setattr(workers, "start", recorded)
    x = np.random.default_rng(43).normal(size=(mio.BLOCK_ROWS, 300))

    def blocks():
        yield x
        yield x
        raise mio.FormatError("bad block")

    partition = SpeakerPartition(assignment=np.arange(4 * mio.BLOCK_ROWS) % 3, n_speakers=3)
    with pytest.raises(mio.FormatError, match="bad block"):
        accumulate_blocks(blocks(), partition)
    assert len(started) == 2 and len(finished) == 2


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_accumulates_on_a_pool_of_its_own():
    # the child inherits the parent's pool object but not its threads
    import bsplda

    code = (
        "import os, numpy as np; from bsplda import data, workers; workers.count = lambda: 2\n"
        "x = np.random.default_rng(5).normal(size=(3 * data.BLOCK_ROWS, 160))\n"
        "ds = data.Dataset(vectors=x, ids=range(x.shape[0]))\n"
        "part = data.SpeakerPartition(assignment=np.arange(x.shape[0]) % 7, n_speakers=7)\n"
        "first = data.accumulate(ds, part).scatter_total; assert workers._pool is not None\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    os._exit(0 if (data.accumulate(ds, part).scatter_total == first).all() else 1)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bsplda.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "0"


def test_streamed_stats_memory_is_bounded(tmp_path):
    # a 16 MiB container: the reader holds the sums, the scatter and a few
    # blocks, never the N x d vectors
    rng = np.random.default_rng(31)
    b, d, m = mio.BLOCK_ROWS, 64, 512
    n = 16 * b
    assignment = np.sort(rng.permutation(np.arange(n) % m))
    data, labels = write_corpus(tmp_path, rng.normal(size=(n, d)), assignment)
    assert data.stat().st_size >= 16 << 20
    tracemalloc.start()
    try:
        stats = streamed_stats(data, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.n_total == n
    limit = 8 * (m * d + d * d) + 4 * 8 * b * d
    assert peak < limit, f"reading {n} x {d} vectors peaked at {peak} bytes, limit {limit}"


def test_writing_a_container_holds_no_copy_of_the_payload(tmp_path):
    vectors = np.random.default_rng(32).normal(size=(16 * mio.BLOCK_ROWS, 64))
    assert vectors.nbytes == 16 << 20
    path = tmp_path / "x.data"
    tracemalloc.start()
    try:
        mio.write_data_file(path, vectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size == 12 + 2 + 4 + 8 + vectors.nbytes
    assert peak < 2 << 20, f"writing 16 MiB of vectors peaked at {peak} bytes"


def test_non_finite_last_block_is_input_error(tmp_path, capsys):
    # the NaN is read last: no command writes a model, a trace or a bound
    rng = np.random.default_rng(37)
    d = 3
    good = write_corpus(tmp_path, rng.normal(size=(40, d)), np.arange(40) % 8, tag="good")
    model = tmp_path / "m.model"
    assert main(["train", "--data", str(good[0]), "--labels", str(good[1]), "--out", str(model),
                 "--variant", "V2-Gamma-diagonal", "--ny", "1", "--iters", "5"]) == 0
    n = 2 * mio.BLOCK_ROWS + 5
    vectors = rng.normal(size=(n, d))
    vectors[-1, 1] = np.nan
    data, labels = write_corpus(tmp_path, vectors, np.arange(n) % 50, tag="nan")
    corpus = ["--data", str(data), "--labels", str(labels)]
    out, trace = tmp_path / "out.model", tmp_path / "out.csv"
    capsys.readouterr()
    for argv in (["train", *corpus, "--out", str(out), "--trace", str(trace), "--iters", "5"],
                 ["adapt", "--prior", str(model), *corpus, "--out", str(out), "--trace", str(trace),
                  "--iters", "5"],
                 ["elbo", "--model", str(model), *corpus]):
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and captured.out == "", argv[0]
        assert not out.exists() and not trace.exists(), argv[0]


def test_label_count_mismatch_exits_before_payload(tmp_path, capsys):
    # the header's N is checked against the labels before a payload byte is read
    read_end, thread = header_pipe(1 << 40)
    labels = tmp_path / "x.labels"
    mio.write_labels_file(labels, ["u1", "u2"], ["a", "b"])
    tracemalloc.start()
    try:
        rc = main(["train", "--data", f"/dev/fd/{read_end}", "--labels", str(labels),
                   "--out", str(tmp_path / "m.model")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        thread.join()
        os.close(read_end)
    assert rc == 2
    assert f"2 label lines for {1 << 40} data rows" in capsys.readouterr().err
    assert peak < 1 << 20, f"train allocated {peak} bytes"
    assert not (tmp_path / "m.model").exists()


def saved_model_for(variant, rng):
    d, ny = 3, 2
    k = ny + 1
    qv = random_qv(rng, d, ny)
    qalpha = None
    if mdl.SCHEMES[variant][0].has_alpha:
        qalpha = QAlpha(a=rng.uniform(1, 3), b=rng.uniform(0.5, 2, size=ny))
        kwargs = dict(mu0=rng.normal(size=d), beta=rng.uniform(0.5, 2, size=d),
                      a_alpha=1e-3, b_alpha=1e-3)
        if variant == mdl.V1_WISHART_INFORMATIVE:
            kwargs.update(psi0=random_spd(rng, d, 0.3), nu_d=d + 2.0)
        if variant in (mdl.V2_GAMMA_DIAGONAL, mdl.V2_GAMMA_ISOTROPIC):
            kwargs.update(a_w=0.5, b_w=0.5)
    else:
        kwargs = dict(v_row_means=rng.normal(size=(d, k)),
                      v_row_precisions=np.stack([random_spd(rng, k) for _ in range(d)]))
        if variant == mdl.V3_GAUSSV_WISHART:
            kwargs.update(psi0=random_spd(rng, d, 0.3), nu_d=d + 2.0)
        elif variant == mdl.V4_GAUSSV_GAMMA_DIAGONAL:
            kwargs.update(a_w=0.5, b_w=rng.uniform(0.5, 2, size=d))
        else:
            kwargs.update(a_w=0.5, b_w=0.5)
    prior = PriorConfig(variant=variant, **kwargs).validate(d, ny)
    if variant in (mdl.V1_WISHART_INFORMATIVE, mdl.V1_WISHART_NONINFORMATIVE, mdl.V3_GAUSSV_WISHART):
        qw = QWWishart(psi=random_spd(rng, d, 0.2), nu=d + 5.0)
    elif variant in (mdl.V2_GAMMA_ISOTROPIC, mdl.V4_GAUSSV_GAMMA_ISOTROPIC):
        qw = QWGamma(a=2.0, b=1.1, dim=d)
    else:
        qw = QWGamma(a=2.0, b=rng.uniform(0.5, 2, size=d), dim=d)
    rotation = None
    if variant == mdl.V2_GAMMA_DIAGONAL:
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        rotation = q
    return mio.SavedModel(
        variant=variant, mu=qv.mu.copy(), V=qv.V.copy(), W=qw.mean.copy(),
        qv=qv, qw=qw, prior=prior, elbo=rng.normal(), qalpha=qalpha, rotation=rotation,
    )


@pytest.mark.parametrize("variant", mdl.VARIANTS)
def test_model_file_round_trip_bit_exact(tmp_path, variant):
    rng = np.random.default_rng(mdl.VARIANTS.index(variant))
    saved = saved_model_for(variant, rng)
    path = tmp_path / "m.model"
    mio.write_model_file(path, saved)
    back = mio.read_model_file(path)
    assert back.variant == saved.variant
    assert back.elbo == saved.elbo
    assert np.array_equal(back.mu, saved.mu)
    assert np.array_equal(back.V, saved.V)
    assert np.array_equal(back.W, saved.W)
    assert np.array_equal(back.qv.mean, saved.qv.mean)
    assert np.array_equal(back.qv.prec, saved.qv.prec)
    assert type(back.qw) is type(saved.qw)
    if isinstance(saved.qw, QWWishart):
        assert np.array_equal(back.qw.psi, saved.qw.psi) and back.qw.nu == saved.qw.nu
    else:
        assert back.qw.a == saved.qw.a and np.array_equal(back.qw.b, saved.qw.b)
    if saved.qalpha is None:
        assert back.qalpha is None
    else:
        assert back.qalpha.a == saved.qalpha.a
        assert np.array_equal(back.qalpha.b, saved.qalpha.b)
    for name in ("mu0", "beta", "psi0", "v_row_means", "v_row_precisions", "b_w"):
        a, b = getattr(saved.prior, name), getattr(back.prior, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.array_equal(np.atleast_1d(a), np.atleast_1d(b))
    if saved.rotation is None:
        assert back.rotation is None
    else:
        assert np.array_equal(back.rotation, saved.rotation)
    # writing the reread model reproduces the file byte for byte
    path2 = tmp_path / "m2.model"
    mio.write_model_file(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def rewrite_variant_tag(path, variant):
    """Point a model file's variant byte (after the magic and the format version) at `variant`."""
    data = bytearray(path.read_bytes())
    data[len(mio.MAGIC_MODEL) + 2] = mdl.VARIANTS.index(variant) + 1
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "variant, drop_qalpha",
    [(mdl.V2_GAMMA_DIAGONAL, False), (mdl.V1_WISHART_INFORMATIVE, True)],
    ids=["wishart-block-under-gamma-variant", "v1-without-qalpha"],
)
def test_model_file_rejects_inconsistent_tags(tmp_path, capsys, variant, drop_qalpha):
    saved = saved_model_for(mdl.V1_WISHART_INFORMATIVE, np.random.default_rng(0))
    path = tmp_path / "bad.model"
    mio.write_model_file(path, replace(saved, qalpha=None) if drop_qalpha else saved)
    # the writer takes the arm from the variant, so a Wishart block under a
    # Gamma variant is made by rewriting the variant byte of a V1 file
    rewrite_variant_tag(path, variant)
    with pytest.raises(mio.FormatError, match="variant"):
        mio.read_model_file(path)
    data, labels = write_sim_files(tmp_path, d=saved.dim)
    rc = main(["elbo", "--model", str(path), "--data", str(data), "--labels", str(labels)])
    assert rc == 2
    assert "variant" in capsys.readouterr().err


def elbo_exit_code(tmp_path, saved):
    path = tmp_path / "m.model"
    mio.write_model_file(path, saved)
    data, labels = write_sim_files(tmp_path, d=saved.dim)
    return main(["elbo", "--model", str(path), "--data", str(data), "--labels", str(labels)])


@pytest.mark.parametrize(
    "variant, field, value",
    [
        (mdl.V2_GAMMA_DIAGONAL, "b_w", np.array([-1.0])),
        (mdl.V2_GAMMA_DIAGONAL, "a_w", -2.5),  # not a pole of ln Gamma, which would raise itself
        (mdl.V1_WISHART_INFORMATIVE, "psi0", -np.eye(3)),
        (mdl.V1_WISHART_INFORMATIVE, "nu_d", 1.0),
    ],
    ids=["v2-negative-b_w", "v2-negative-a_w", "v1-negative-psi0", "v1-nu_d-below-d"],
)
def test_model_file_prior_echo_is_validated(tmp_path, capsys, variant, field, value):
    saved = saved_model_for(variant, np.random.default_rng(0))
    assert elbo_exit_code(tmp_path, saved) == 0
    capsys.readouterr()
    broken = replace(saved, prior=replace(saved.prior, **{field: value}))
    assert elbo_exit_code(tmp_path, broken) == 2
    assert "numerical failure" not in capsys.readouterr().err


@pytest.mark.parametrize("block", ["qw", "prior"])
def test_model_file_with_nan_wishart_scale_is_input_error(tmp_path, capsys, block):
    saved = saved_model_for(mdl.V1_WISHART_INFORMATIVE, np.random.default_rng(0))
    if block == "qw":
        psi = saved.qw.psi.copy()
        psi[0, 0] = np.nan
        saved = replace(saved, qw=QWWishart(psi=psi, nu=saved.qw.nu))
    else:
        psi0 = saved.prior.psi0.copy()
        psi0[1, 1] = np.nan
        saved = replace(saved, prior=replace(saved.prior, psi0=psi0))
    assert elbo_exit_code(tmp_path, saved) == 2
    assert "numerical failure" not in capsys.readouterr().err


@pytest.mark.parametrize("block", ["mu", "V", "W", "qv.mean", "qv.prec"])
def test_model_file_with_non_finite_payload_is_input_error(tmp_path, capsys, block):
    saved = saved_model_for(mdl.V1_WISHART_INFORMATIVE, np.random.default_rng(0))
    owner, _, name = block.rpartition(".")
    value = getattr(saved.qv if owner else saved, name).copy()
    value.flat[-1] = np.nan
    if owner:
        saved = replace(saved, qv=replace(saved.qv, **{name: value}))
    else:
        saved = replace(saved, **{name: value})
    path = tmp_path / "nan.model"
    mio.write_model_file(path, saved)
    with pytest.raises(mio.FormatError, match="non-finite"):
        mio.read_model_file(path)
    assert elbo_exit_code(tmp_path, saved) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("block", ["qv.prec", "qw.psi"])
def test_adapt_from_a_model_file_with_an_asymmetric_precision_is_input_error(
        tmp_path, capsys, block):
    # adapt builds its row and Wishart priors from these two blocks
    saved = saved_model_for(mdl.V1_WISHART_INFORMATIVE, np.random.default_rng(3))
    if block == "qv.prec":
        prec = saved.qv.prec.copy()
        prec[1, 0, 2] += 1.5
        saved = replace(saved, qv=QVtilde(mean=saved.qv.mean, prec=prec))
    else:
        psi = saved.qw.psi.copy()
        psi[0, 1] += 1.5
        saved = replace(saved, qw=QWWishart(psi=psi, nu=saved.qw.nu))
    path = tmp_path / "asym.model"
    mio.write_model_file(path, saved)
    with pytest.raises(ValueError, match=f"{block} must be symmetric"):
        mio.read_model_file(path)
    data, labels = write_sim_files(tmp_path, d=saved.dim)
    out = tmp_path / "adapted.model"
    rc = main(["adapt", "--prior", str(path), "--data", str(data), "--labels", str(labels),
               "--out", str(out), "--iters", "5"])
    assert rc == 2
    assert f"{block} must be symmetric" in capsys.readouterr().err
    assert not out.exists()


def test_model_file_with_zero_rank_header_is_input_error(tmp_path, capsys):
    # a file consistent with its header n_y = 0: no loading column, one-column q(Vtilde) rows
    d = 3
    rng = np.random.default_rng(0)
    qv = QVtilde(mean=rng.normal(size=(d, 1)), prec=np.tile(np.eye(1), (d, 1, 1)))
    prior = PriorConfig(variant=mdl.V4_GAUSSV_GAMMA_ISOTROPIC, v_row_means=qv.mean,
                        v_row_precisions=qv.prec, a_w=0.5, b_w=0.5).validate(d, 0)
    qw = QWGamma(a=2.0, b=1.1, dim=d)
    saved = mio.SavedModel(variant=prior.variant, mu=qv.mu.copy(), V=qv.V.copy(), W=qw.mean,
                           qv=qv, qw=qw, prior=prior, elbo=0.0)
    path = tmp_path / "rank0.model"
    mio.write_model_file(path, saved)
    with pytest.raises(mio.FormatError, match="n_y = 0"):
        mio.read_model_file(path)
    assert elbo_exit_code(tmp_path, saved) == 2
    assert "n_y = 0" in capsys.readouterr().err


@pytest.mark.parametrize("spec_text, message", [
    pytest.param("d = 3\nny = 2\nd = 0\n", "spec key d must be at least 1", id="d"),
    pytest.param("d = 3\nny = 2\nny = 0\n", "spec key ny must be at least 1", id="ny"),
    pytest.param("ny = 2\n", "spec must set d\n", id="d-missing"),
    pytest.param("d = 3\n", "spec must set ny\n", id="ny-missing"),
    pytest.param("mu = 0.5\n", "spec must set d and ny\n", id="both-missing"),
])
def test_simulate_spec_rejects_empty_dimension(tmp_path, capsys, spec_text, message):
    spec = tmp_path / "sim.cfg"
    spec.write_text(spec_text)
    rc = main(["simulate", "--spec", str(spec), "--speakers", "4", "--per-speaker", "2",
               "--seed", "0", "--out", str(tmp_path / "sim")])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key, value, rule", [
    pytest.param("w_scale", "0", "positive and finite", id="w_scale-zero"),
    pytest.param("w_scale", "-1", "positive and finite", id="w_scale-negative"),
    pytest.param("w_scale", "nan", "positive and finite", id="w_scale-nan"),
    pytest.param("w_scale", "inf", "positive and finite", id="w_scale-inf"),
    pytest.param("v_scale", "nan", "finite", id="v_scale-nan"),
    pytest.param("v_scale", "-inf", "finite", id="v_scale-inf"),
    pytest.param("mu", "inf", "finite", id="mu-inf"),
    pytest.param("mu", "1,nan,2", "finite", id="mu-list-nan"),
])
def test_simulate_spec_rejects_numbers_out_of_range(tmp_path, capsys, key, value, rule):
    spec = tmp_path / "sim.cfg"
    spec.write_text(f"d = 3\nny = 2\n{key} = {value}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["simulate", "--spec", str(spec), "--speakers", "4", "--per-speaker", "2",
                   "--seed", "0", "--out", str(tmp_path / "sim")])
    assert rc == 2
    assert f"spec key {key} must be {rule}" in capsys.readouterr().err
    assert not (tmp_path / "sim.data").exists() and not (tmp_path / "sim.labels").exists()


def test_cli_import_loads_no_scipy():
    import bsplda

    env = dict(os.environ, PYTHONPATH=str(Path(bsplda.__file__).resolve().parents[1]))
    code = "import sys, bsplda.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# Runs the CLI on its arguments, then prints the live thread count and whether
# the worker pool's module was imported.
CLI_THREAD_PROBE = (
    "import sys, threading; from bsplda.cli import main; rc = main(sys.argv[1:]); "
    "print(threading.active_count(), 'concurrent.futures' in sys.modules); sys.exit(rc)"
)


def run_cli_probe(argv, preexec_fn=None):
    import bsplda

    env = dict(os.environ, PYTHONPATH=str(Path(bsplda.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", CLI_THREAD_PROBE, *argv], env=env,
                         capture_output=True, text=True, check=True, preexec_fn=preexec_fn,
                         timeout=120)
    threads, imported = out.stdout.splitlines()[-1].split()  # after what the command prints
    return int(threads), imported == "True"


def test_small_commands_start_no_thread(tmp_path):
    # one block drawn and one block accumulated: nothing imported, no thread started
    spec = tmp_path / "sim.cfg"
    spec.write_text("d = 4\nny = 1\nw_scale = 2.0\n")
    sim = str(tmp_path / "sim")
    model = str(tmp_path / "m.model")
    for argv in (
        ["simulate", "--spec", str(spec), "--speakers", "50", "--per-speaker", "4",
         "--seed", "3", "--out", sim],
        ["train", "--data", sim + ".data", "--labels", sim + ".labels", "--out", model,
         "--ny", "1", "--iters", "3"],
        ["elbo", "--model", model, "--data", sim + ".data", "--labels", sim + ".labels"],
    ):
        assert run_cli_probe(argv) == (1, False), argv[0]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs at least two CPUs",
)
def test_simulate_files_do_not_depend_on_the_cpus(tmp_path):
    # 10 000 rows at d = 21 span four noise blocks: drawn on the workers when
    # the process may run on two CPUs, on the calling thread when pinned to one
    spec = tmp_path / "sim.cfg"
    spec.write_text("d = 21\nny = 3\nmu = 0.5\nw_scale = 3.0\n")
    cpu = min(os.sched_getaffinity(0))
    files, threads = [], []
    for tag, pin in (("pinned", lambda: os.sched_setaffinity(0, {cpu})), ("free", None)):
        out = tmp_path / tag
        threads.append(run_cli_probe(
            ["simulate", "--spec", str(spec), "--speakers", "1000", "--per-speaker", "10",
             "--seed", "8", "--out", str(out)], preexec_fn=pin)[0])
        files.append((Path(f"{out}.data").read_bytes(), Path(f"{out}.labels").read_bytes()))
    assert threads[0] == 1 and threads[1] > 1
    assert files[0] == files[1]


def test_parse_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nny = 3\n\nvariant = V2-Gamma-diagonal  # trailing\n tol =1e-8\n")
    values = mio.parse_config(cfg)
    assert values == {"ny": "3", "variant": "V2-Gamma-diagonal", "tol": "1e-8"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(mio.FormatError):
        mio.parse_config(bad)


def write_sim_files(tmp_path, seed=5, speakers=18, per=3, d=4):
    params = ModelParams(
        mu=np.linspace(-1, 1, d),
        V=np.random.default_rng(0).normal(size=(d, 2)),
        W=np.eye(d),
    )
    ds, part, _ = sample(GenSpec(params=params, counts=(per,) * speakers, seed=seed))
    data = tmp_path / "dev.data"
    labels = tmp_path / "dev.labels"
    mio.write_data_file(data, ds.vectors)
    mio.write_labels_file(labels, ds.ids, [f"s{a}" for a in part.assignment])
    return data, labels


class TestCli:
    def test_train_elbo_round_trip(self, tmp_path, capsys):
        data, labels = write_sim_files(tmp_path)
        model = tmp_path / "m.model"
        trace = tmp_path / "trace.csv"
        rc = main([
            "train", "--data", str(data), "--labels", str(labels), "--out", str(model),
            "--variant", "V1-Wishart-informative", "--ny", "2", "--iters", "40",
            "--seed", "3", "--trace", str(trace),
        ])
        assert rc == 0
        assert model.exists()
        lines = trace.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["iteration", "total"]
        totals = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b >= a - 1e-8 * abs(a) for a, b in zip(totals, totals[1:]))
        rc = main(["elbo", "--model", str(model), "--data", str(data), "--labels", str(labels)])
        assert rc == 0
        out = capsys.readouterr().out
        printed = dict(line.split("=") for line in out.strip().splitlines())
        assert float(printed["total"]) == pytest.approx(totals[-1], rel=1e-12)
        assert set(printed) == {
            "data_term", "y_prior", "y_entropy_neg", "v_prior", "alpha_prior",
            "alpha_entropy_neg", "mu_prior", "w_prior", "w_entropy_neg",
            "v_entropy_neg", "total",
        }

    def test_train_deterministic_outputs(self, tmp_path):
        data, labels = write_sim_files(tmp_path)
        digests = []
        for tag in ("a", "b"):
            model = tmp_path / f"{tag}.model"
            rc = main([
                "train", "--data", str(data), "--labels", str(labels), "--out", str(model),
                "--variant", "V2-Gamma-diagonal", "--ny", "2", "--iters", "25", "--seed", "11",
            ])
            assert rc == 0
            digests.append(file_digest(model))
        assert digests[0] == digests[1]

    def test_simulate_deterministic(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("d = 3\nny = 1\nmu = 0.5\nv_scale = 1.0\nw_scale = 2.0\n")
        outs = []
        for tag in ("a", "b"):
            rc = main([
                "simulate", "--spec", str(cfg), "--speakers", "8", "--per-speaker", "2",
                "--seed", "77", "--out", str(tmp_path / tag),
            ])
            assert rc == 0
            outs.append(
                (file_digest(tmp_path / f"{tag}.data"), file_digest(tmp_path / f"{tag}.labels"))
            )
        assert outs[0] == outs[1]

    def test_simulate_labels_name_each_row_by_its_speaker(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("d = 2\nny = 1\nmu = 0.0\nv_scale = 1.0\nw_scale = 1.0\n")
        rc = main([
            "simulate", "--spec", str(cfg), "--speakers", "3", "--per-speaker", "2",
            "--seed", "5", "--out", str(tmp_path / "sim"),
        ])
        assert rc == 0
        assert (tmp_path / "sim.labels").read_text() == "".join(
            f"spk{i:05d}-utt{j:05d} spk{i:05d}\n" for i in range(3) for j in range(2)
        )

    def test_train_noninformative_needs_data(self, tmp_path):
        # N = 4 <= d = 4: precondition violated, exit 2
        params = ModelParams(mu=np.zeros(4), V=np.ones((4, 1)), W=np.eye(4))
        ds, part, _ = sample(GenSpec(params=params, counts=(2, 2), seed=1))
        data, labels = tmp_path / "t.data", tmp_path / "t.labels"
        mio.write_data_file(data, ds.vectors)
        mio.write_labels_file(labels, ds.ids, [f"s{a}" for a in part.assignment])
        rc = main([
            "train", "--data", str(data), "--labels", str(labels),
            "--out", str(tmp_path / "m.model"), "--variant", "V1-Wishart-noninformative",
            "--ny", "1", "--iters", "5",
        ])
        assert rc == 2

    def test_missing_labels_is_input_error(self, tmp_path):
        data, _ = write_sim_files(tmp_path)
        rc = main([
            "train", "--data", str(data), "--labels", str(tmp_path / "absent.labels"),
            "--out", str(tmp_path / "m.model"),
        ])
        assert rc == 2

    def test_train_rejects_invalid_fit_settings(self, tmp_path, capsys):
        data, labels = write_sim_files(tmp_path)
        model = tmp_path / "m.model"
        for flag, value, field in [
            ("--hyperopt-every", "-1", "hyperopt_every"),
            ("--mindiv-every", "-1", "mindiv_every"),
            ("--tol", "nan", "elbo_rel_tol"),
        ]:
            rc = main([
                "train", "--data", str(data), "--labels", str(labels), "--out", str(model),
                "--iters", "3", flag, value,
            ])
            assert rc == 2
            assert field in capsys.readouterr().err
            assert not model.exists()

    def test_train_rejects_a_budget_that_ends_tempered(self, tmp_path, capsys):
        data, labels = write_sim_files(tmp_path)
        model = tmp_path / "m.model"
        rc = main([
            "train", "--data", str(data), "--labels", str(labels), "--out", str(model),
            "--iters", "2", "--anneal", "0.5:5,1:1",
        ])
        assert rc == 2
        assert "max_iterations 2 ends inside the annealing schedule" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("variant, key, value", [
        (mdl.V1_WISHART_NONINFORMATIVE, "mu0", "nan"),
        (mdl.V1_WISHART_NONINFORMATIVE, "mu0", "1,nan,2,3"),
        (mdl.V1_WISHART_NONINFORMATIVE, "beta", "inf"),
        (mdl.V1_WISHART_NONINFORMATIVE, "beta", "nan"),
        (mdl.V2_GAMMA_DIAGONAL, "b_w", "nan"),
        (mdl.V1_WISHART_INFORMATIVE, "nu_d", "nan"),
        (mdl.V1_WISHART_INFORMATIVE, "nu_d", "inf"),
    ])
    def test_train_rejects_non_finite_hyperparameters(self, tmp_path, capsys, variant, key, value):
        data, labels = write_sim_files(tmp_path)
        cfg, model = tmp_path / "t.cfg", tmp_path / "m.model"
        cfg.write_text(f"variant = {variant}\n{key} = {value}\n")
        rc = main([
            "train", "--data", str(data), "--labels", str(labels), "--config", str(cfg),
            "--out", str(model), "--iters", "3",
        ])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("key, value", [("iters", "1.5"), ("ny", "two"), ("a_alpha", "x")])
    def test_config_value_that_does_not_parse_names_its_key(self, tmp_path, capsys, key, value):
        data, labels = write_sim_files(tmp_path)
        cfg, model = tmp_path / "t.cfg", tmp_path / "m.model"
        cfg.write_text(f"{key} = {value}\n")
        rc = main([
            "train", "--data", str(data), "--labels", str(labels), "--config", str(cfg),
            "--out", str(model),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{key}: cannot parse {value!r}" in err and "Traceback" not in err
        assert not model.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_wishart_scale_names_psi0(self, tmp_path, capsys, value):
        data, labels = write_sim_files(tmp_path)
        cfg, model = tmp_path / "t.cfg", tmp_path / "m.model"
        cfg.write_text(f"variant = {mdl.V1_WISHART_INFORMATIVE}\npsi0_scale = {value}\n")
        rc = main([
            "train", "--data", str(data), "--labels", str(labels), "--config", str(cfg),
            "--out", str(model), "--iters", "3",
        ])
        assert rc == 2
        assert "psi0: matrix has non-finite entries" in capsys.readouterr().err
        assert not model.exists()

    def test_whiten_takes_known_values_only(self, tmp_path, capsys):
        args = build_parser().parse_args(["train", "--data", "d", "--labels", "l", "--out", "o"])
        for text, whiten in [("1", True), ("TRUE", True), ("Yes", True),
                             ("0", False), ("False", False), ("NO", False)]:
            assert _build_fit_config({"whiten": text}, args).whiten is whiten
        data, labels = write_sim_files(tmp_path)
        cfg, model = tmp_path / "t.cfg", tmp_path / "m.model"
        cfg.write_text(f"variant = {mdl.V2_GAMMA_DIAGONAL}\nwhiten = on\n")
        rc = main([
            "train", "--data", str(data), "--labels", str(labels), "--config", str(cfg),
            "--out", str(model), "--iters", "3",
        ])
        assert rc == 2
        assert "whiten" in capsys.readouterr().err
        assert not model.exists()

    def test_fit_settings_come_from_flag_then_config_key_then_fit_config(self):
        args = build_parser().parse_args(["train", "--data", "d", "--labels", "l", "--out", "o"])
        assert _build_fit_config({}, args) == FitConfig()
        config = {"iters": "7", "tol": "1e-3", "anneal": "0.5:2,1:1", "hyperopt_every": "2",
                  "mindiv_every": "3", "seed": "4", "whiten": "true"}
        from_config = FitConfig(max_iterations=7, elbo_rel_tol=1e-3,
                                anneal_schedule=((0.5, 2), (1.0, 1)), hyperopt_every=2,
                                mindiv_every=3, seed=4, whiten=True)
        assert _build_fit_config(config, args) == from_config
        args = build_parser().parse_args([
            "train", "--data", "d", "--labels", "l", "--out", "o", "--iters", "9", "--tol", "1e-5",
            "--anneal", "1:3", "--hyperopt-every", "5", "--mindiv-every", "6", "--seed", "8",
        ])
        assert _build_fit_config(config, args) == replace(
            from_config, max_iterations=9, elbo_rel_tol=1e-5, anneal_schedule=((1.0, 3),),
            hyperopt_every=5, mindiv_every=6, seed=8)

    @pytest.mark.parametrize("flag, value", [("--iters", "1.5"), ("--hyperopt-every", "x"),
                                             ("--anneal", "0.5:2:3")])
    def test_fit_flags_parse_like_config_keys(self, tmp_path, capsys, flag, value):
        # a flag that does not parse is an input error naming its config key
        data, labels = write_sim_files(tmp_path)
        model = tmp_path / "m.model"
        rc = main(["train", "--data", str(data), "--labels", str(labels), "--out", str(model),
                   flag, value])
        assert rc == 2
        assert f"{flag[2:].replace('-', '_')}: cannot parse {value!r}" in capsys.readouterr().err
        assert not model.exists()

    def test_train_on_rank_deficient_data_is_a_numerical_failure(self, tmp_path, capsys):
        ds, part = duplicated_dimension_problem()
        data, labels = tmp_path / "dup.data", tmp_path / "dup.labels"
        mio.write_data_file(data, ds.vectors)
        mio.write_labels_file(labels, ds.ids, [f"s{a}" for a in part.assignment])
        model, trace = tmp_path / "m.model", tmp_path / "trace.csv"
        rc = main([
            "train", "--data", str(data), "--labels", str(labels), "--out", str(model),
            "--trace", str(trace), "--variant", "V1-Wishart-noninformative", "--ny", "2",
            "--iters", "50", "--seed", "1",
        ])
        assert rc == 3
        assert "not positive definite" in capsys.readouterr().err
        assert not model.exists() and not trace.exists()

    def test_train_rejects_adaptation_variants(self, tmp_path):
        data, labels = write_sim_files(tmp_path)
        rc = main([
            "train", "--data", str(data), "--labels", str(labels),
            "--out", str(tmp_path / "m.model"), "--variant", "V3-GaussV-Wishart",
        ])
        assert rc == 2

    def test_adapt_round_trip_and_gating(self, tmp_path, capsys):
        data, labels = write_sim_files(tmp_path)
        base = tmp_path / "base.model"
        rc = main([
            "train", "--data", str(data), "--labels", str(labels), "--out", str(base),
            "--variant", "V2-Gamma-diagonal", "--ny", "2", "--iters", "30", "--seed", "2",
        ])
        assert rc == 0
        small_data, small_labels = write_sim_files(tmp_path, seed=9, speakers=5, per=4)
        adapted = tmp_path / "adapted.model"
        rc = main([
            "adapt", "--prior", str(base), "--data", str(small_data),
            "--labels", str(small_labels), "--out", str(adapted), "--iters", "20",
        ])
        assert rc == 0
        saved = mio.read_model_file(adapted)
        assert saved.variant == "V4-GaussV-Gamma-diagonal"
        # a Gamma-diagonal posterior cannot seed a Wishart prior
        rc = main([
            "adapt", "--prior", str(base), "--data", str(small_data),
            "--labels", str(small_labels), "--out", str(tmp_path / "x.model"),
            "--variant", "V3-GaussV-Wishart",
        ])
        assert rc == 2
        assert "variant V2-Gamma-diagonal, incompatible with V3-GaussV-Wishart" in capsys.readouterr().err
        # isotropic arm flows to the isotropic adaptation variant
        iso_base = tmp_path / "iso.model"
        rc = main([
            "train", "--data", str(data), "--labels", str(labels), "--out", str(iso_base),
            "--variant", "V2-Gamma-isotropic", "--ny", "2", "--iters", "20", "--seed", "2",
        ])
        assert rc == 0
        rc = main([
            "adapt", "--prior", str(iso_base), "--data", str(small_data),
            "--labels", str(small_labels), "--out", str(tmp_path / "iso_adapted.model"),
            "--iters", "15",
        ])
        assert rc == 0
        assert mio.read_model_file(tmp_path / "iso_adapted.model").variant == "V4-GaussV-Gamma-isotropic"

    def test_adapt_moves_mean_toward_small_set(self, tmp_path):
        rng = np.random.default_rng(12)
        d = 4
        v = rng.normal(size=(d, 2))
        big_params = ModelParams(mu=np.zeros(d), V=v, W=np.eye(d))
        shift = np.full(d, 1.5)
        small_params = ModelParams(mu=shift, V=v, W=np.eye(d))
        big_ds, big_part, _ = sample(GenSpec(params=big_params, counts=(6,) * 60, seed=1))
        small_ds, small_part, _ = sample(GenSpec(params=small_params, counts=(5,) * 12, seed=2))
        paths = {}
        for tag, ds, part in (("big", big_ds, big_part), ("small", small_ds, small_part)):
            mio.write_data_file(tmp_path / f"{tag}.data", ds.vectors)
            mio.write_labels_file(
                tmp_path / f"{tag}.labels", ds.ids, [f"s{a}" for a in part.assignment]
            )
        base = tmp_path / "base.model"
        rc = main([
            "train", "--data", str(tmp_path / "big.data"), "--labels", str(tmp_path / "big.labels"),
            "--out", str(base), "--variant", "V1-Wishart-informative", "--ny", "2",
            "--iters", "50", "--seed", "4",
        ])
        assert rc == 0
        adapted = tmp_path / "adapted.model"
        rc = main([
            "adapt", "--prior", str(base), "--data", str(tmp_path / "small.data"),
            "--labels", str(tmp_path / "small.labels"), "--out", str(adapted), "--iters", "40",
        ])
        assert rc == 0
        mu_prior = mio.read_model_file(base).mu
        mu_adapted = mio.read_model_file(adapted).mu
        small_mean = small_ds.vectors.mean(axis=0)
        before = np.linalg.norm(mu_prior - small_mean)
        after = np.linalg.norm(mu_adapted - small_mean)
        assert after < before

    def test_elbo_dimension_mismatch(self, tmp_path):
        data, labels = write_sim_files(tmp_path)
        model = tmp_path / "m.model"
        rc = main([
            "train", "--data", str(data), "--labels", str(labels), "--out", str(model),
            "--variant", "V2-Gamma-isotropic", "--ny", "1", "--iters", "10",
        ])
        assert rc == 0
        other_data, other_labels = write_sim_files(tmp_path / "..", d=4, seed=5)
        wrong = tmp_path / "wrong.data"
        mio.write_data_file(wrong, np.zeros((6, 7)))
        mio.write_labels_file(tmp_path / "wrong.labels", [f"u{i}" for i in range(6)], ["a"] * 3 + ["b"] * 3)
        rc = main([
            "elbo", "--model", str(model), "--data", str(wrong),
            "--labels", str(tmp_path / "wrong.labels"),
        ])
        assert rc == 2

    def test_whitened_v2_elbo_round_trip(self, tmp_path, capsys):
        # train, adapt and elbo rotate the same statistics, so each whitened
        # model's elbo on its own corpus prints its trace's last total exactly
        data, labels = write_sim_files(tmp_path)
        (tmp_path / "small").mkdir()
        small_data, small_labels = write_sim_files(tmp_path / "small", seed=9, speakers=6, per=3)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("whiten = true\n")
        for variant in ("V2-Gamma-diagonal", "V2-Gamma-isotropic"):
            model, trace = tmp_path / f"{variant}.model", tmp_path / f"{variant}.csv"
            assert main([
                "train", "--data", str(data), "--labels", str(labels), "--config", str(cfg),
                "--out", str(model), "--variant", variant, "--ny", "2",
                "--iters", "25", "--seed", "5", "--trace", str(trace),
            ]) == 0
            saved = mio.read_model_file(model)
            assert saved.rotation is not None
            np.testing.assert_allclose(saved.rotation @ saved.rotation.T, np.eye(4), atol=1e-10)
            adapted, adapted_trace = tmp_path / f"{variant}-a.model", tmp_path / f"{variant}-a.csv"
            assert main([
                "adapt", "--prior", str(model), "--data", str(small_data),
                "--labels", str(small_labels), "--out", str(adapted), "--iters", "15",
                "--seed", "3", "--trace", str(adapted_trace),
            ]) == 0
            assert np.array_equal(mio.read_model_file(adapted).rotation, saved.rotation)
            capsys.readouterr()
            for fitted, corpus, fit_trace in ((model, (data, labels), trace),
                                              (adapted, (small_data, small_labels), adapted_trace)):
                assert main(["elbo", "--model", str(fitted), "--data", str(corpus[0]),
                             "--labels", str(corpus[1])]) == 0
                printed = dict(line.split("=") for line in capsys.readouterr().out.split())
                last_total = fit_trace.read_text().splitlines()[-1].split(",")[1]
                assert printed["total"] == last_total, (variant, fitted.name)

    def test_simulate_from_model_round_trip(self, tmp_path):
        data, labels = write_sim_files(tmp_path)
        model = tmp_path / "m.model"
        main([
            "train", "--data", str(data), "--labels", str(labels), "--out", str(model),
            "--variant", "V1-Wishart-informative", "--ny", "2", "--iters", "20",
        ])
        rc = main([
            "simulate", "--model", str(model), "--speakers", "4", "--per-speaker", "3",
            "--seed", "13", "--out", str(tmp_path / "resim"),
        ])
        assert rc == 0
        vectors = read_vectors(tmp_path / "resim.data", 12)
        assert vectors.shape == (12, 4)
