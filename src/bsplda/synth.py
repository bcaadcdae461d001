"""Deterministic sampling from the generative model for tests and demos.

Randomness comes from a splitmix64 counter generator (constants below) with
Box-Muller conversion to Gaussians (numpy's log, cos and sin), so fixtures are
reproducible from the seed alone. The noise is g L^-1 with W = L L^T: for a
diagonal W each entry is g * (1/sqrt(w)), whatever the LAPACK and BLAS build;
for a full W its last bits can move between builds.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset, SpeakerPartition
from .linalg import spd_cholesky

__all__ = ["CounterRng", "GenSpec", "sample"]

# splitmix64 (Steele, Lea, Flood 2014): output = mix(seed + (counter+1)*GAMMA).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


class CounterRng:
    """Counter-mode splitmix64 stream with Box-Muller Gaussian output."""

    def __init__(self, seed):
        self._seed = _U64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def _words(self, n):
        counters = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        z = self._seed + (counters + _U64(1)) * _GAMMA
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))

    def uniforms(self, n):
        """n doubles in the open interval (0, 1)."""
        return ((self._words(n) >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53

    def gaussians(self, n):
        """n standard normals; each counter pair yields a Box-Muller pair."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
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
    g = rng.gaussians(n * d).reshape(n, d)
    # eps rows ~ N(0, W^{-1}): eps = g A^T with A A^T = W^{-1}, A = L^{-T}, W = L L^T.
    eps = g @ np.linalg.inv(spd_cholesky(params.W))
    assignment = np.repeat(np.arange(m), spec.counts)
    vectors = params.mu[None, :] + y[assignment] @ params.V.T + eps
    ids = tuple(
        f"spk{i:05d}-utt{j:05d}" for i, c in enumerate(spec.counts) for j in range(c)
    )
    dataset = Dataset(vectors=vectors, ids=ids)
    partition = SpeakerPartition(assignment=assignment, n_speakers=m)
    return dataset, partition, y
