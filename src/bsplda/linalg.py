"""Dense symmetric linear algebra helpers shared by the model and the engine."""

import functools

import numpy as np

__all__ = [
    "FactorizationError",
    "sym",
    "require_symmetric",
    "spd_cholesky",
    "spd_inverse_logdet",
    "spd_logdet",
    "check_psd",
    "pencil_inverses",
]


class FactorizationError(RuntimeError):
    """A matrix that must be positive definite failed to factorize."""


def sym(a):
    """(A + A^T)/2 of a matrix or a stack of them; assembled precisions are symmetrized."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def require_symmetric(a, name):
    """ValueError naming `name` unless `a`, a matrix or each of a stack, equals
    its transpose to rounding: np.isclose with the absolute tolerance
    1e-10 max(1, max|entry|) of each matrix."""
    scale = np.maximum(np.abs(a).max(axis=(-2, -1), keepdims=True), 1.0)
    if not np.isclose(a, np.swapaxes(a, -1, -2), atol=1e-10 * scale).all():
        raise ValueError(f"{name} must be symmetric")


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


def _triangular_inverse(chol):
    """L^-1 of a lower-triangular L, or of each of a stack, by 2x2 blocks in matrix products:
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]].

    A is padded with a unit diagonal to the order of C, and the two are inverted
    as one stack, so every 1x1 leaf of the recursion is inverted in the same step.
    """
    n = chol.shape[-1]
    if n == 1:
        return 1.0 / chol
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


def _chol_logdet(chol):
    """ln|A| from the Cholesky factor of A, a float for a matrix and an array for a stack."""
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return float(logdet) if chol.ndim == 2 else logdet


def spd_inverse_logdet(a):
    """A^-1 and ln|A| from one Cholesky factor, of a matrix or of each matrix of a stack.

    A^-1 = L^-T L^-1 is one product of a factor with its own transpose, which
    numpy hands to SYRK, so the inverse is exactly symmetric.
    """
    chol = spd_cholesky(a)
    inv_chol = _triangular_inverse(chol)
    return np.swapaxes(inv_chol, -1, -2) @ inv_chol, _chol_logdet(chol)


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


def pencil_inverses(diag, a, weights, name):
    """(B, factors, covariances, log-determinants) of the precisions
    diag(diag) + w a, one per weight w of `weights`, from one eigendecomposition.

    With D = diag(diag), D^-1/2 a D^-1/2 = U diag(lam) U^T and B = D^-1/2 U, the
    precision D + w a has the factors 1 + w lam, the covariance
    B diag(1 / (1 + w lam)) B^T and the log-determinant
    ln|D| + sum ln(1 + w lam) (Golub & Van Loan, Matrix Computations, 8.7).
    The covariances are formed on their packed upper triangles and unpacked, so
    each is exactly symmetric. A factor that is not positive means a precision
    that is not positive definite: FactorizationError naming `name`, as its
    Cholesky factorization would raise.
    """
    root = 1.0 / np.sqrt(diag)
    lam, vecs = np.linalg.eigh(root[:, None] * a * root[None, :])
    basis = root[:, None] * vecs
    factors = 1.0 + weights[:, None] * lam[None, :]
    if not np.all(factors > 0.0):
        raise FactorizationError(f"a {name} is not positive definite")
    rows, cols, index = _packing(diag.size)
    columns = basis.T
    packed = (1.0 / factors) @ (columns[:, rows] * columns[:, cols])  # sum_j B_j B_j^T / factor_j
    cov = np.take(packed, index, axis=-1)
    logdets = float(np.sum(np.log(diag))) + np.sum(np.log(factors), axis=1)
    return basis, factors, cov, logdets


def spd_logdet(a):
    """ln|A| of a matrix, or of each matrix of a stack, from the Cholesky factor;
    FactorizationError if one is not positive definite."""
    return _chol_logdet(spd_cholesky(a))


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
