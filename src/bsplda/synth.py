"""Deterministic sampling from the generative model for tests and demos.

Randomness comes from a splitmix64 counter generator (constants below) with
Box-Muller conversion to Gaussians (numpy's log, cos and sin), so fixtures are
reproducible from the seed alone. Every output depends only on the seed and
its counter, so the stream is drawn in blocks of BLOCK_COUNTERS counters and
its bits do not depend on how calls split it. The noise is g L^-1 with
W = L L^T: for a diagonal W each entry is g * (1/sqrt(w)), whatever the LAPACK
and BLAS build; for a full W its last bits can move between builds.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset, SpeakerPartition
from .linalg import spd_cholesky

__all__ = ["BLOCK_COUNTERS", "CounterRng", "GenSpec", "sample"]

# splitmix64 (Steele, Lea, Flood 2014): output = mix(seed + (counter+1)*GAMMA).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64
# Counters drawn at a time; even, so a block holds whole Box-Muller pairs.
BLOCK_COUNTERS = 1 << 16


class CounterRng:
    """Counter-mode splitmix64 stream with Box-Muller Gaussian output."""

    def __init__(self, seed):
        self._seed = _U64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def _uniforms_into(self, out):
        """Fill `out`, at most BLOCK_COUNTERS long, with the next uniforms."""
        z = np.arange(self._counter + 1, self._counter + out.size + 1, dtype=np.uint64)
        self._counter += out.size
        z *= _GAMMA
        z += self._seed
        t = np.empty_like(z)
        np.right_shift(z, 30, out=t)
        z ^= t
        z *= _MIX1
        np.right_shift(z, 27, out=t)
        z ^= t
        z *= _MIX2
        np.right_shift(z, 31, out=t)
        z ^= t
        z >>= 11
        np.add(z, 0.5, out=out)
        out *= 2.0**-53

    def uniforms(self, n):
        """n doubles in the open interval (0, 1)."""
        out = np.empty(n)
        for start in range(0, n, BLOCK_COUNTERS):
            self._uniforms_into(out[start:start + BLOCK_COUNTERS])
        return out

    def gaussians(self, n):
        """n standard normals; each counter pair yields a Box-Muller pair.

        log reads a strided view and cos and sin read contiguous arrays; that
        layout is part of the stream's definition, since numpy may take another
        code path, with other last bits, for another layout.
        """
        out = np.empty(2 * ((n + 1) // 2))
        u = np.empty(min(out.size, BLOCK_COUNTERS))
        radius, angle, trig = np.empty((3, u.size // 2))
        for start in range(0, out.size, BLOCK_COUNTERS):
            block = out[start:start + BLOCK_COUNTERS]
            pairs = block.size // 2
            ub, r, a, c = u[:block.size], radius[:pairs], angle[:pairs], trig[:pairs]
            self._uniforms_into(ub)
            np.log(ub[0::2], out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            np.multiply(ub[1::2], 2.0 * np.pi, out=a)
            np.cos(a, out=c)
            np.multiply(r, c, out=block[0::2])
            np.sin(a, out=c)
            np.multiply(r, c, out=block[1::2])
        return out[:n]


@dataclass(frozen=True)
class GenSpec:
    """Sampling plan: model parameters, per-speaker counts, and the stream seed."""

    params: object
    counts: tuple
    seed: int

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if not counts or any(c < 1 for c in counts):
            raise ValueError("every speaker needs at least one observation")
        object.__setattr__(self, "counts", counts)


def sample(spec):
    """Draw (Dataset, SpeakerPartition, latent speaker vectors) from the model.

    Stream order is fixed: all speaker vectors first (speaker-major), then the
    channel offsets (speaker, then observation, then dimension).
    """
    params = spec.params
    d, ny = params.dim, params.rank
    m = len(spec.counts)
    n = sum(spec.counts)
    rng = CounterRng(spec.seed)
    y = rng.gaussians(m * ny).reshape(m, ny)
    # eps rows ~ N(0, W^{-1}): eps = g A^T with A A^T = W^{-1}, A = L^{-T}, W = L L^T.
    l_inv = np.linalg.inv(spd_cholesky(params.W))
    assignment = np.repeat(np.arange(m), spec.counts)
    # One product over all rows, which becomes the output: the last bits of a
    # GEMM entry depend on where its row falls in the BLAS tiling, so products
    # over row blocks would not reproduce it.
    vectors = y[assignment] @ params.V.T
    vectors += params.mu
    scale = np.diag(l_inv)
    if np.array_equal(l_inv, np.diag(scale)):
        # Every off-diagonal term of g L^-1 is an exact zero, so the product is
        # g * diag(L^-1) bit for bit. Blocks of an even number of rows start on
        # a Box-Muller pair.
        rows = max(2, BLOCK_COUNTERS // d // 2 * 2)
        for start in range(0, n, rows):
            block = vectors[start:start + rows]
            g = rng.gaussians(block.size).reshape(block.shape)
            g *= scale
            block += g
    else:
        vectors += rng.gaussians(n * d).reshape(n, d) @ l_inv
    ids = tuple(
        f"spk{i:05d}-utt{j:05d}" for i, c in enumerate(spec.counts) for j in range(c)
    )
    dataset = Dataset(vectors=vectors, ids=ids)
    partition = SpeakerPartition(assignment=assignment, n_speakers=m)
    return dataset, partition, y
