"""On-disk formats: data container, labels, model container, config text, trace CSV.

Every floating-point payload is 64-bit little-endian IEEE-754, so round trips
are bit-exact and outputs are byte-identical across platforms.
"""

import array
import math
import os
import re
import stat
import struct
from collections import defaultdict
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import model as mdl
from .data import BLOCK_ROWS, SpeakerPartition
from .linalg import FactorizationError, require_symmetric
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
_MAGIC = {"data": MAGIC_DATA, "model": MAGIC_MODEL}
FORMAT_VERSION = 1
_READ_CHUNK = 1 << 18  # bytes per read of a payload from a pipe


class FormatError(ValueError):
    """A file does not conform to its declared container format."""


def _write_f64(f, arr):
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _check_payload_size(f, size):
    """Whether `f` is a regular file, whose rest must then hold a header's
    payload size (a Python int, so its dimensions cannot wrap it around); a
    pipe has no size to check."""
    info = os.fstat(f.fileno())
    if not stat.S_ISREG(info.st_mode):
        return False
    if size > info.st_size - f.tell():
        raise FormatError(f"header declares {size} payload bytes, the file has "
                          f"{info.st_size - f.tell()} left")
    return True


def _read_f64(f, shape):
    """A fresh array of `shape` (a float for shape ()) read from `f`: at once from
    a regular file, which holds the payload; in bounded chunks from a pipe, so a
    header larger than the stream never allocates its size."""
    count = math.prod(shape)
    size = 8 * count
    if _check_payload_size(f, size):
        arr = np.empty(count, dtype="<f8")
        if f.readinto(arr) != size:
            raise FormatError(f"{f.name}: truncated file")
    else:
        buf = bytearray()
        while len(buf) < size:
            chunk = f.read(min(size - len(buf), _READ_CHUNK))
            if not chunk:
                raise FormatError(f"{f.name}: truncated file")
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
        raise FormatError(f"{f.name}: truncated file")
    return struct.unpack(fmt, buf)[0]


def _write_header(f, kind):
    f.write(_MAGIC[kind])
    _write_scalar(f, "<H", FORMAT_VERSION)


def _read_header(f, kind):
    """Check the magic and format version of a `kind` ("data" or "model") container."""
    if f.read(len(_MAGIC[kind])) != _MAGIC[kind]:
        raise FormatError(f"{f.name}: bad {kind} magic")
    version = _read_scalar(f, "<H")
    if version != FORMAT_VERSION:
        raise FormatError(f"{f.name}: unsupported {kind} format version {version}")


def write_data_file(path, vectors):
    vectors = np.ascontiguousarray(vectors, dtype="<f8")
    n, d = vectors.shape
    with open(path, "wb") as f:
        _write_header(f, "data")
        _write_scalar(f, "<I", d)
        _write_scalar(f, "<Q", n)
        f.write(memoryview(vectors))


def read_data_blocks(path, n_rows):
    """The payload of a data container, as consecutive fresh arrays of at most
    BLOCK_ROWS rows.

    The header is checked before any payload is read: magic, version, d >= 1,
    N >= 1, N equal to `n_rows` (the label count), and, for a regular file,
    a payload that fits in it. A block with a non-finite entry, a payload
    shorter than its header declares and bytes after it are format errors.
    """
    with open(path, "rb") as f:
        _read_header(f, "data")
        d = _read_scalar(f, "<I")
        n = _read_scalar(f, "<Q")
        if d < 1 or n < 1:
            raise FormatError(f"{path}: header declares N = {n}, d = {d}; both must be at least 1")
        if n != n_rows:
            raise FormatError(f"{path}: {n_rows} label lines for {n} data rows")
        _check_payload_size(f, 8 * n * d)
        for start in range(0, n, BLOCK_ROWS):
            block = _read_f64(f, (min(BLOCK_ROWS, n - start), d))
            if not np.isfinite(block).all():
                raise FormatError(
                    f"{path}: rows {start}..{start + block.shape[0] - 1} hold non-finite values"
                )
            yield block
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")


def write_labels_file(path, ids, speaker_names):
    """One '<record_id> <speaker_id>' line per row. A record id or speaker name
    that is empty or holds whitespace would not read back: a ValueError naming
    its row, before the file is created."""
    if len(ids) != len(speaker_names):
        raise ValueError("ids and speaker names differ in length")
    text = "".join([f"{rec} {spk}\n" for rec, spk in zip(ids, speaker_names)])
    if not re.fullmatch(r"(?:\S+ \S+\n)*", text):  # lines that read back as the names they hold
        row = next(row for row, names in enumerate(zip(ids, speaker_names))
                   if any(str(name).split() != [str(name)] for name in names))
        raise ValueError(f"row {row}: record id {ids[row]!r} or speaker {speaker_names[row]!r} "
                         f"is empty or holds whitespace")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


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


# The model container after its header, as (path, shape) pairs. A path names
# a SavedModel attribute, dotted into its parts; a shape lists dimensions by
# name, and "n" is a u32 length written before its vector. The fixed blocks
# follow the header; the q(W) arm's block follows them.
_BLOCKS = (("mu", "d"), ("V", "d ny"), ("W", "d d"), ("qv.mean", "d k"), ("qv.prec", "d k k"))
# The optional groups after the q(W) block, in file order: one presence byte,
# then every field of the group, present when its first field is not None.
# "prior." paths are the echo of the hyperparameters in effect.
_QALPHA = (("qalpha.a", ""), ("qalpha.b", "ny"))  # present exactly when the variant has q(alpha)
_GROUPS = (
    _QALPHA,
    (("prior.mu0", "d"),),
    (("prior.beta", "d"),),
    (("prior.a_alpha", ""), ("prior.b_alpha", "")),
    (("prior.a_w", ""),),
    (("prior.b_w", "n"),),
    (("prior.psi0", "d d"), ("prior.nu_d", "")),
    (("prior.v_row_means", "d k"), ("prior.v_row_precisions", "d k k")),
    (("rotation", "d d"),),
)


def _get(saved, path):
    """The value at a dotted path of `saved`, None below a part that is None."""
    for name in path.split("."):
        saved = None if saved is None else getattr(saved, name)
    return saved


def _read_shape(f, spec, dims):
    """The shape a spec names, reading the length of an "n" from `f`."""
    return tuple(_read_scalar(f, "<I") if name == "n" else dims[name] for name in spec.split())


def write_model_file(path, saved):
    with open(path, "wb") as f:
        _write_header(f, "model")
        _write_scalar(f, "<B", mdl.VARIANTS.index(saved.variant) + 1)
        _write_scalar(f, "<I", saved.dim)
        _write_scalar(f, "<I", saved.rank)
        _write_scalar(f, "<d", float(saved.elbo))
        for name, _ in _BLOCKS:
            _write_f64(f, _get(saved, name))
        arm = mdl.SCHEMES[saved.variant][1]
        _write_scalar(f, "<B", arm.tag)
        arm.write_qw(saved.qw, partial(_write_f64, f))
        for group in _GROUPS:
            values = [_get(saved, name) for name, _ in group]
            _write_scalar(f, "<B", values[0] is not None)
            if values[0] is None:
                continue
            for (_, spec), value in zip(group, values):
                if spec == "n":
                    value = np.atleast_1d(np.asarray(value, dtype=float))
                    _write_scalar(f, "<I", value.size)
                _write_f64(f, value)


def read_model_file(path):
    parts = defaultdict(dict)  # every value read, by the SavedModel part it belongs to
    with open(path, "rb") as f:
        _read_header(f, "model")
        variant_idx = _read_scalar(f, "<B")
        if not 1 <= variant_idx <= len(mdl.VARIANTS):
            raise FormatError(f"{path}: unknown variant tag {variant_idx}")
        variant = mdl.VARIANTS[variant_idx - 1]
        loading, arm = mdl.SCHEMES[variant]
        d = _read_scalar(f, "<I")
        ny = _read_scalar(f, "<I")
        if d < 1 or ny < 1:
            raise FormatError(f"{path}: header declares d = {d}, n_y = {ny}; both must be at least 1")
        dims = {"d": d, "ny": ny, "k": ny + 1}
        elbo = _read_scalar(f, "<d")
        for name, spec in _BLOCKS:
            owner, _, field = name.rpartition(".")
            parts[owner][field] = _read_finite(f, _read_shape(f, spec, dims))
        require_symmetric(parts["qv"]["prec"], "qv.prec")
        try:
            qv = QVtilde.from_precisions(**parts["qv"])
        except FactorizationError as exc:
            raise ValueError("qv.prec must be positive definite") from exc
        tag = _read_scalar(f, "<B")
        if tag != arm.tag:
            raise FormatError(f"{path}: precision arm tag {tag} does not match variant {variant}")
        qw = arm.read_qw(partial(_read_finite, f), d)
        qalpha = None
        for group in _GROUPS:
            present = bool(_read_scalar(f, "<B"))
            if group is _QALPHA and present != loading.has_alpha:
                raise FormatError(
                    f"{path}: q(alpha) block {'present' if present else 'absent'}, "
                    f"inconsistent with variant {variant}"
                )
            for name, spec in group:
                owner, _, field = name.rpartition(".")
                parts[owner][field] = _read_finite(f, _read_shape(f, spec, dims)) if present else None
            if group is _QALPHA and present:
                qalpha = QAlpha(**parts["qalpha"])  # its positivity is checked before the echo is read
        if f.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    # an echo that breaks its variant is an input error, like a bad header
    prior = mdl.PriorConfig(variant=variant, **parts["prior"]).validate(d, ny)
    return SavedModel(variant=variant, qv=qv, qw=qw, prior=prior, elbo=elbo, qalpha=qalpha, **parts[""])


def parse_config(path):
    """Line-oriented 'key = value' text; '#' starts a comment. A key set twice
    is a format error."""
    values, lines = {}, {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in lines:
                raise FormatError(f"{path}: key {key!r} is set on lines {lines[key]} and {lineno}")
            values[key], lines[key] = value.strip(), lineno
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
