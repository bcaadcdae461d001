"""Dense symmetric linear algebra helpers shared by the model and the engine."""

import numpy as np
import scipy.linalg

__all__ = [
    "FactorizationError",
    "sym",
    "spd_cholesky",
    "spd_inverse",
    "spd_logdet",
    "batched_spd_inverse_logdet",
]


class FactorizationError(RuntimeError):
    """A matrix that must be positive definite failed to factorize."""


def sym(a):
    """(A + A^T)/2 of a matrix or a stack of them; assembled precisions are symmetrized."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


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


def spd_inverse(a, jitter=False):
    chol = spd_cholesky(a, jitter=jitter)
    inv = scipy.linalg.cho_solve((chol, True), np.eye(a.shape[0]))
    return sym(inv)


def spd_logdet(a):
    """ln|A| from the Cholesky factor; FactorizationError if A is not positive definite."""
    return 2.0 * float(np.sum(np.log(np.diag(spd_cholesky(a)))))


def batched_spd_inverse_logdet(mats):
    """Inverses and log-determinants of an SPD stack (n, k, k) from one batched Cholesky.

    A matrix that is not positive definite raises np.linalg.LinAlgError; no jitter.
    """
    chol = np.linalg.cholesky(mats)
    logdets = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    inv_chol = np.linalg.inv(chol)
    covs = np.einsum("rba,rbc->rac", inv_chol, inv_chol)
    return sym(covs), logdets
