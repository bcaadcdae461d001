"""Dense symmetric linear algebra helpers shared by the model and the engine."""

import numpy as np
import scipy.linalg

__all__ = [
    "FactorizationError",
    "sym",
    "spd_cholesky",
    "spd_solve",
    "spd_inverse",
]


class FactorizationError(RuntimeError):
    """A matrix that must be positive definite failed to factorize."""


def sym(a):
    """(A + A^T)/2; precision/scatter matrices are symmetrized after assembly."""
    return 0.5 * (a + a.T)


def spd_cholesky(a, jitter=False):
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    With jitter=True a single retry adds 1e-10 * tr(A)/d to the diagonal
    before failing; with jitter=False failure is signalled immediately so the
    caller decides (exact likelihoods never regularize silently).
    """
    a = np.asarray(a, dtype=float)
    try:
        return scipy.linalg.cholesky(a, lower=True)
    except scipy.linalg.LinAlgError:
        pass
    if jitter:
        d = a.shape[0]
        eps = 1e-10 * max(np.trace(a) / d, 1.0)
        try:
            return scipy.linalg.cholesky(a + eps * np.eye(d), lower=True)
        except scipy.linalg.LinAlgError:
            pass
    raise FactorizationError("matrix is not positive definite")


def spd_solve(a, b, jitter=False):
    """Solve A x = b for symmetric positive-definite A."""
    chol = spd_cholesky(a, jitter=jitter)
    return scipy.linalg.cho_solve((chol, True), b)


def spd_inverse(a, jitter=False):
    chol = spd_cholesky(a, jitter=jitter)
    inv = scipy.linalg.cho_solve((chol, True), np.eye(a.shape[0]))
    return sym(inv)
