"""Dense symmetric linear algebra helpers shared by the model and the engine."""

import functools

import numpy as np

__all__ = [
    "FactorizationError",
    "sym",
    "spd_cholesky",
    "spd_inverse_logdet",
    "spd_logdet",
    "check_psd",
    "packed_outer",
    "unpack_symmetric",
]


class FactorizationError(RuntimeError):
    """A matrix that must be positive definite failed to factorize."""


def sym(a):
    """(A + A^T)/2 of a matrix or a stack of them; assembled precisions are symmetrized."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def spd_cholesky(a):
    """Lower Cholesky factor of a symmetric positive-definite matrix, or of each of a stack.

    Non-finite entries are a ValueError and a matrix that is not positive
    definite a FactorizationError; nothing is regularized, so the caller decides.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")  # np.linalg.cholesky would return NaNs
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise FactorizationError("matrix is not positive definite") from None


_LEAF_ORDER = 8  # triangular blocks up to this order are inverted by forward substitution


def _forward_substitution_inverse(chol):
    """L^-1 of each lower-triangular L of a stack, one row per step: row i of L^-1 left of
    the diagonal is -L[i, :i] L[:i, :i]^-1 / L[i, i], a product batched over the stack."""
    n = chol.shape[-1]
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    inv = np.zeros_like(chol)
    inv[..., range(n), range(n)] = 1.0 / diag
    for i in range(1, n):
        inv[..., i, :i] = -(chol[..., i, None, :i] @ inv[..., :i, :i])[..., 0, :] / diag[..., i, None]
    return inv


def _triangular_inverse(chol):
    """L^-1 of a lower-triangular L, or of each of a stack, by 2x2 blocks in matrix products:
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]].

    A is padded with a unit diagonal to the order of C, and the two are inverted
    as one stack, so every leaf of the recursion is inverted in the same step.
    """
    n = chol.shape[-1]
    if n <= _LEAF_ORDER:
        return _forward_substitution_inverse(chol)
    h, t = n // 2, n - n // 2
    pair = np.zeros((2, *chol.shape[:-2], t, t))
    pair[0, ..., :h, :h] = chol[..., :h, :h]
    pair[0, ..., h:, h:] = 1.0  # the unit pad: empty when n is even
    pair[1] = chol[..., h:, h:]
    pair_inv = _triangular_inverse(pair)
    a_inv, c_inv = pair_inv[0, ..., :h, :h], pair_inv[1]
    inv = np.zeros_like(chol)
    inv[..., :h, :h] = a_inv
    inv[..., h:, h:] = c_inv
    inv[..., h:, :h] = -(c_inv @ chol[..., h:, :h]) @ a_inv
    return inv


def spd_inverse_logdet(a):
    """A^-1 and ln|A| from one Cholesky factor, of a matrix or of each matrix of a stack.

    A^-1 = L^-T L^-1 is one product of a factor with its own transpose, which
    numpy hands to SYRK, so the inverse is exactly symmetric.
    """
    chol = spd_cholesky(a)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    inv_chol = _triangular_inverse(chol)
    inv = np.swapaxes(inv_chol, -1, -2) @ inv_chol
    return inv, float(logdet) if chol.ndim == 2 else logdet


@functools.lru_cache(maxsize=None)
def _packing(k):
    """(rows, cols, index) of the packed upper triangle of order k: entry p
    holds (rows[p], cols[p]), and index[a, b] is the entry of (a, b) or (b, a).
    Read-only arrays, built once per order."""
    rows, cols = np.triu_indices(k)
    index = np.zeros((k, k), dtype=np.intp)
    index[rows, cols] = np.arange(rows.size)
    index = np.maximum(index, index.T)
    for array in (rows, cols, index):
        array.flags.writeable = False
    return rows, cols, index


def packed_outer(rows):
    """The upper triangle of the outer product a a^T of each row a of `rows`
    (n, k), packed row by row into k(k+1)/2 entries."""
    upper_rows, upper_cols, _ = _packing(rows.shape[-1])
    return rows[..., upper_rows] * rows[..., upper_cols]


def unpack_symmetric(packed, k):
    """The k x k matrices whose upper triangles are packed as `packed_outer`
    packs them; an entry and its mirror image read the same number, so each is
    exactly symmetric."""
    return np.take(packed, _packing(k)[2], axis=-1)


def spd_logdet(a):
    """ln|A| from the Cholesky factor; FactorizationError if A is not positive definite."""
    return 2.0 * float(np.sum(np.log(np.diag(spd_cholesky(a)))))


def check_psd(a, name):
    """FactorizationError unless the symmetric, finite `a` has no eigenvalue
    below -1e-8 max(max|eig|, 1).

    A Cholesky factor of a + tau I certifies that: tau = 1e-8 max(tr a / n, 1)
    puts the mean eigenvalue tr a / n <= max eig in place of max|eig|, so it is
    never above the floor. Only if that fails does eigvalsh decide.
    """
    n = a.shape[0]
    tau = 1e-8 * max(float(np.trace(a)) / max(n, 1), 1.0)
    try:
        spd_cholesky(a + tau * np.eye(n))
    except FactorizationError:
        eigs = np.linalg.eigvalsh(a)
        floor = -1e-8 * max(float(np.abs(eigs).max()), 1.0)
        if eigs.min() < floor:
            raise FactorizationError(
                f"{name} lost positive semidefiniteness (min eig {eigs.min():.3e})"
            ) from None
