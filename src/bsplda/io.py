"""On-disk formats: data container, labels, model container, config text, trace CSV.

Every floating-point payload is 64-bit little-endian IEEE-754, so round trips
are bit-exact and outputs are byte-identical across platforms.
"""

import array
import math
import os
import stat
import struct
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import model as mdl
from .data import BLOCK_ROWS, SpeakerPartition
from .linalg import require_symmetric
from .posterior import QAlpha, QVtilde

__all__ = [
    "FormatError",
    "MAGIC_DATA",
    "MAGIC_MODEL",
    "BLOCK_ROWS",
    "write_data_file",
    "read_data_blocks",
    "write_labels_file",
    "read_labels_file",
    "SavedModel",
    "write_model_file",
    "read_model_file",
    "parse_config",
    "write_trace_csv",
]

MAGIC_DATA = b"BSPLDA-DATA\x00"
MAGIC_MODEL = b"BSPLDA-MODEL\x00"
FORMAT_VERSION = 1
_READ_CHUNK = 1 << 18  # bytes per read of a model payload


class FormatError(ValueError):
    """A file does not conform to its declared container format."""


def _write_f64(f, arr):
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _check_payload_size(f, size):
    """A header's payload size (a Python int, so its dimensions cannot wrap it
    around) must fit in the rest of a regular file; a pipe has no size to check."""
    info = os.fstat(f.fileno())
    if stat.S_ISREG(info.st_mode) and size > info.st_size - f.tell():
        raise FormatError(
            f"header declares {size} payload bytes, the file has {info.st_size - f.tell()} left"
        )


def _read_f64(f, shape):
    # A pipe is read in bounded chunks, so a header larger than the stream
    # never allocates its size.
    size = 8 * math.prod(shape)
    _check_payload_size(f, size)
    buf = bytearray()
    while len(buf) < size:
        chunk = f.read(min(size - len(buf), _READ_CHUNK))
        if not chunk:
            raise FormatError("truncated file")
        buf += chunk
    arr = np.frombuffer(buf, dtype="<f8")
    return arr.reshape(shape) if shape else float(arr[0])


def _read_finite(f, shape):
    """A model-file payload: every number a model holds is finite."""
    value = _read_f64(f, shape)
    if not np.isfinite(value).all():
        raise FormatError(f"{f.name}: payload of shape {shape} has non-finite entries")
    return value


def _write_scalar(f, fmt, value):
    f.write(struct.pack(fmt, value))


def _read_scalar(f, fmt):
    size = struct.calcsize(fmt)
    buf = f.read(size)
    if len(buf) != size:
        raise FormatError("truncated file")
    return struct.unpack(fmt, buf)[0]


def write_data_file(path, vectors):
    vectors = np.ascontiguousarray(vectors, dtype="<f8")
    n, d = vectors.shape
    with open(path, "wb") as f:
        f.write(MAGIC_DATA)
        _write_scalar(f, "<H", FORMAT_VERSION)
        _write_scalar(f, "<I", d)
        _write_scalar(f, "<Q", n)
        f.write(memoryview(vectors))


def read_data_blocks(path, n_rows):
    """The payload of a data container, as consecutive blocks of at most BLOCK_ROWS rows.

    The header is checked before any payload is read: magic, version, d >= 1,
    N >= 1, N equal to `n_rows` (the label count), and, for a regular file,
    a payload that fits in it. A block with a non-finite entry, a payload
    shorter than its header declares and bytes after it are format errors.
    The blocks are views of two buffers used in turn, so a block stays
    unchanged until the block after next is read (`accumulate_blocks` forms a
    block's product on a worker meanwhile).
    """
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC_DATA))
        if magic != MAGIC_DATA:
            raise FormatError(f"{path}: bad data magic")
        version = _read_scalar(f, "<H")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported data format version {version}")
        d = _read_scalar(f, "<I")
        n = _read_scalar(f, "<Q")
        if d < 1 or n < 1:
            raise FormatError(f"{path}: header declares N = {n}, d = {d}; both must be at least 1")
        if n != n_rows:
            raise FormatError(f"{path}: {n_rows} label lines for {n} data rows")
        _check_payload_size(f, 8 * n * d)
        rows = min(n, BLOCK_ROWS)
        buffers = [np.empty((rows, d), dtype="<f8") for _ in range(1 if n == rows else 2)]
        for k, start in enumerate(range(0, n, rows)):
            block = buffers[k % len(buffers)][:min(rows, n - start)]
            view = memoryview(block).cast("B")
            filled = 0
            while filled < view.nbytes:  # a pipe may return less than asked
                got = f.readinto(view[filled:])
                if not got:
                    raise FormatError(f"{path}: truncated file")
                filled += got
            if not np.isfinite(block).all():
                raise FormatError(
                    f"{path}: rows {start}..{start + block.shape[0] - 1} hold non-finite values"
                )
            yield block
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")


def write_labels_file(path, ids, speaker_names):
    if len(ids) != len(speaker_names):
        raise ValueError("ids and speaker names differ in length")
    with open(path, "w", encoding="utf-8") as f:
        for rec, spk in zip(ids, speaker_names):
            f.write(f"{rec} {spk}\n")


def read_labels_file(path):
    """The speaker partition of a labels file: one '<record_id> <speaker_id>'
    line per data row, speakers indexed by first appearance."""
    index = {}
    assignment = array.array("q")
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise FormatError(f"{path}:{lineno}: expected '<record_id> <speaker_id>'")
            assignment.append(index.setdefault(parts[1], len(index)))
    if not index:
        raise FormatError(f"{path}: no label lines")
    return SpeakerPartition(assignment=np.asarray(assignment), n_speakers=len(index))


@dataclass(frozen=True)
class SavedModel:
    """Everything a model file carries: point estimate, posterior blocks, prior echo."""

    variant: str
    mu: np.ndarray
    V: np.ndarray
    W: np.ndarray
    qv: QVtilde
    qw: object
    prior: mdl.PriorConfig
    elbo: float
    qalpha: QAlpha = None
    rotation: np.ndarray = None

    @property
    def dim(self):
        return self.mu.shape[0]

    @property
    def rank(self):
        return self.V.shape[1]


def _write_optional(f, *values):
    """A presence byte, then the values as doubles; absent when the first value is None."""
    present = values[0] is not None
    _write_scalar(f, "<B", int(present))
    if present:
        for value in values:
            _write_f64(f, value)


def _read_optional(f, *shapes):
    """The values of an optional block, one per shape, or Nones when it is absent."""
    if _read_scalar(f, "<B"):
        return [_read_finite(f, shape) for shape in shapes]
    return [None] * len(shapes)


def write_model_file(path, saved):
    d, ny = saved.dim, saved.rank
    prior = saved.prior
    with open(path, "wb") as f:
        f.write(MAGIC_MODEL)
        _write_scalar(f, "<H", FORMAT_VERSION)
        _write_scalar(f, "<B", mdl.VARIANTS.index(saved.variant) + 1)
        _write_scalar(f, "<I", d)
        _write_scalar(f, "<I", ny)
        _write_scalar(f, "<d", float(saved.elbo))
        _write_f64(f, saved.mu)
        _write_f64(f, saved.V)
        _write_f64(f, saved.W)
        _write_f64(f, saved.qv.mean)
        _write_f64(f, saved.qv.prec)
        arm = mdl.SCHEMES[saved.variant][1]
        _write_scalar(f, "<B", arm.tag)
        arm.write_qw(saved.qw, partial(_write_f64, f))
        qalpha = saved.qalpha
        _write_optional(f, *((None,) if qalpha is None else (qalpha.a, qalpha.b)))
        _write_optional(f, prior.mu0)
        _write_optional(f, prior.beta)
        _write_optional(f, prior.a_alpha, prior.b_alpha)
        _write_optional(f, prior.a_w)
        if prior.b_w is None:
            _write_scalar(f, "<B", 0)
        else:
            b_w = np.atleast_1d(np.asarray(prior.b_w, dtype=float))
            _write_scalar(f, "<B", 1)
            _write_scalar(f, "<I", b_w.size)
            _write_f64(f, b_w)
        _write_optional(f, prior.psi0, prior.nu_d)
        _write_optional(f, prior.v_row_means, prior.v_row_precisions)
        _write_optional(f, saved.rotation)


def read_model_file(path):
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC_MODEL))
        if magic != MAGIC_MODEL:
            raise FormatError(f"{path}: bad model magic")
        version = _read_scalar(f, "<H")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported model format version {version}")
        variant_idx = _read_scalar(f, "<B")
        if not 1 <= variant_idx <= len(mdl.VARIANTS):
            raise FormatError(f"{path}: unknown variant tag {variant_idx}")
        variant = mdl.VARIANTS[variant_idx - 1]
        loading, arm = mdl.SCHEMES[variant]
        d = _read_scalar(f, "<I")
        ny = _read_scalar(f, "<I")
        if d < 1 or ny < 1:
            raise FormatError(f"{path}: header declares d = {d}, n_y = {ny}; both must be at least 1")
        k = ny + 1
        elbo = _read_scalar(f, "<d")
        mu = _read_finite(f, (d,))
        v = _read_finite(f, (d, ny))
        w = _read_finite(f, (d, d))
        qv = QVtilde(mean=_read_finite(f, (d, k)), prec=_read_finite(f, (d, k, k)))
        require_symmetric(qv.prec, "qv.prec")
        tag = _read_scalar(f, "<B")
        if tag != arm.tag:
            raise FormatError(f"{path}: precision arm tag {tag} does not match variant {variant}")
        qw = arm.read_qw(partial(_read_finite, f), d)
        has_alpha = bool(_read_scalar(f, "<B"))
        if has_alpha != loading.has_alpha:
            raise FormatError(
                f"{path}: q(alpha) block {'present' if has_alpha else 'absent'}, "
                f"inconsistent with variant {variant}"
            )
        qalpha = None
        if has_alpha:
            a = _read_finite(f, ())
            qalpha = QAlpha(a=a, b=_read_finite(f, (ny,)))
        (mu0,) = _read_optional(f, (d,))
        (beta,) = _read_optional(f, (d,))
        a_alpha, b_alpha = _read_optional(f, (), ())
        (a_w,) = _read_optional(f, ())
        b_w = None
        if _read_scalar(f, "<B"):
            b_w = _read_finite(f, (_read_scalar(f, "<I"),))
        psi0, nu_d = _read_optional(f, (d, d), ())
        v_row_means, v_row_precisions = _read_optional(f, (d, k), (d, k, k))
        (rotation,) = _read_optional(f, (d, d))
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    prior = mdl.PriorConfig(
        variant=variant,
        mu0=mu0,
        beta=beta,
        a_alpha=a_alpha,
        b_alpha=b_alpha,
        a_w=a_w,
        b_w=b_w,
        psi0=psi0,
        nu_d=nu_d,
        v_row_means=v_row_means,
        v_row_precisions=v_row_precisions,
    ).validate(d, ny)  # an echo that breaks its variant is an input error, like a bad header
    return SavedModel(
        variant=variant,
        mu=mu,
        V=v,
        W=w,
        qv=qv,
        qw=qw,
        prior=prior,
        elbo=elbo,
        qalpha=qalpha,
        rotation=rotation,
    )


def parse_config(path):
    """Line-oriented 'key = value' text; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def write_trace_csv(path, report):
    """Per-iteration totals and term breakdown, 17 significant digits."""
    names = [f.name for f in fields(type(report.final_breakdown))]
    columns = ["iteration", "total"] + [n for n in names if n != "total"]
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(columns) + "\n")
        for i, bd in enumerate(report.breakdown_trace, 1):
            row = [str(i)] + [f"{getattr(bd, c):.17g}" for c in columns[1:]]
            f.write(",".join(row) + "\n")
