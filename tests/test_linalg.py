import numpy as np
import pytest
import scipy.linalg

import bsplda.linalg as linalg
import bsplda.model as mdl
import bsplda.posterior as posterior
from bsplda.linalg import FactorizationError, spd_inverse_logdet
from bsplda.model import PriorConfig
from bsplda.posterior import QWWishart


def spd_stack(rng, n, batch=()):
    a = rng.normal(size=(*batch, n, n))
    return a @ np.swapaxes(a, -1, -2) + n * np.eye(n)


def cho_solve_inverse(a):
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(a, lower=True), np.eye(a.shape[0]))


def rel_diff(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("n", [1, 31, 32, 33, 65, 300])
def test_spd_inverse_logdet_matches_cho_solve(n):
    a = spd_stack(np.random.default_rng(n), n)
    inv, logdet = spd_inverse_logdet(a)
    assert rel_diff(inv, cho_solve_inverse(a)) <= 1e-13
    assert np.array_equal(inv, inv.T)
    assert logdet == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-13)


def test_batched_inverse_matches_cho_solve_above_the_base_order():
    stack = spd_stack(np.random.default_rng(51), 51, (20,))
    cov, logdets = spd_inverse_logdet(stack)
    for a, inv in zip(stack, cov):
        assert rel_diff(inv, cho_solve_inverse(a)) <= 1e-13
    np.testing.assert_allclose(logdets, np.linalg.slogdet(stack)[1], rtol=1e-13)


def test_spd_logdet_takes_a_matrix_or_a_stack():
    stack = spd_stack(np.random.default_rng(5), 11, (20,))
    np.testing.assert_allclose(linalg.spd_logdet(stack), np.linalg.slogdet(stack)[1], rtol=1e-13)
    assert isinstance(linalg.spd_logdet(stack[0]), float)


# The odd orders split into blocks of unequal order, the leading one padded.
# The (300,) stack is the q(Vtilde) row stack of a d = 300 fit; it stops below
# order 301 to stay small. Orders 2 and 3 come last so that the other cases
# keep their test ids.
INVERSE_CASES = [
    (n, batch)
    for n in (1, 7, 8, 9, 16, 31, 33, 65, 301, 2, 3)
    for batch in ((), (1,), (7,), (300,))
    if n < 301 or batch != (300,)
]


@pytest.mark.parametrize("n, batch", INVERSE_CASES)
def test_batched_inverse_matches_cho_solve(n, batch):
    stack = spd_stack(np.random.default_rng(n), n, batch)
    cov, logdets = spd_inverse_logdet(stack)
    assert cov.shape == stack.shape and np.shape(logdets) == batch
    for a, inv in zip(stack.reshape(-1, n, n), cov.reshape(-1, n, n)):
        assert rel_diff(inv, cho_solve_inverse(a)) <= 1e-13
    # absolute floor for order-1 log-determinants near 0
    np.testing.assert_allclose(logdets, np.linalg.slogdet(stack)[1], rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("shape", [(300, 300), (300, 16, 16)], ids=["matrix", "stack"])
def test_inverse_is_exactly_symmetric(shape):
    # a stack's L^-T L^-1 is a product of a factor with its own transpose
    # (SYRK); the order-300 matrix is assembled from symmetric Schur blocks
    stack = spd_stack(np.random.default_rng(shape[0]), shape[-1], shape[:-2])
    inv, _ = spd_inverse_logdet(stack)
    assert np.array_equal(inv, np.swapaxes(inv, -1, -2))


def test_batched_inverse_rejects_a_stack_with_one_indefinite_matrix():
    stack = spd_stack(np.random.default_rng(3), 9, (7,))
    stack[4, 2, 2] = -1.0
    with pytest.raises(FactorizationError):
        spd_inverse_logdet(stack)


def test_batched_inverse_rejects_a_stack_with_one_nan():
    # np.linalg.cholesky would factorize the rest and return a NaN log-determinant
    stack = spd_stack(np.random.default_rng(4), 9, (7,))
    stack[4, 2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        spd_inverse_logdet(stack)


def cholesky_inverse_logdet(a):
    """The Cholesky path of spd_inverse_logdet, a copy kept here: stacks and
    matrices up to linalg.SCHUR_LEAF take it bit for bit."""
    chol = np.linalg.cholesky(a)

    def triangular_inverse(chol):
        n = chol.shape[-1]
        if n == 1:
            return 1.0 / chol
        h, t = n // 2, n - n // 2
        pair = np.zeros((2, *chol.shape[:-2], t, t))
        pair[0, ..., :h, :h] = chol[..., :h, :h]
        pair[0, ..., h:, h:] = 1.0
        pair[1] = chol[..., h:, h:]
        pair_inv = triangular_inverse(pair)
        a_inv, c_inv = pair_inv[0, ..., :h, :h], pair_inv[1]
        inv = np.zeros_like(chol)
        inv[..., :h, :h] = a_inv
        inv[..., h:, h:] = c_inv
        inv[..., h:, :h] = -(c_inv @ chol[..., h:, :h]) @ a_inv
        return inv

    inv_chol = triangular_inverse(chol)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return np.swapaxes(inv_chol, -1, -2) @ inv_chol, logdet


@pytest.mark.parametrize("n", [129, 150, 161, 255, 256, 300, 301])
def test_schur_inverse_matches_numpy(n):
    a = spd_stack(np.random.default_rng(n), n) / n
    inv, logdet = spd_inverse_logdet(a)
    assert rel_diff(inv, np.linalg.inv(a)) <= 1e-12
    assert logdet == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-12)
    assert np.array_equal(inv, inv.T)


@pytest.mark.parametrize("shape", [(1, 1), (33, 33), (128, 128), (linalg.SCHUR_LEAF,) * 2,
                                   (3, 40, 40), (2, 301, 301)],
                         ids=["1", "33", "128", "leaf", "stack-40", "stack-301"])
def test_stacks_and_orders_up_to_the_leaf_keep_the_cholesky_path(shape):
    stack = spd_stack(np.random.default_rng(shape[-1]), shape[-1], shape[:-2])
    inv, logdet = spd_inverse_logdet(stack)
    ref_inv, ref_logdet = cholesky_inverse_logdet(stack)
    assert np.array_equal(inv, ref_inv)
    assert np.array_equal(logdet, ref_logdet)


def test_schur_inverse_rejects_an_indefinite_matrix_with_a_definite_leading_block():
    # [[I, B], [B^T, I]] with |B| > 1: A11 = I factorizes, the complement
    # I - B^T B does not
    n = 300
    a = np.eye(n)
    a[:n // 2, n // 2:] = a[n // 2:, :n // 2] = 1.5 * np.eye(n // 2)
    assert np.linalg.eigvalsh(a[:n // 2, :n // 2]).min() > 0 > np.linalg.eigvalsh(a).min()
    with pytest.raises(FactorizationError):
        spd_inverse_logdet(a)


def test_schur_inverse_rejects_non_finite_entries():
    a = spd_stack(np.random.default_rng(7), 300)
    a[250, 3] = a[3, 250] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        spd_inverse_logdet(a)


def test_update_qw_carries_logdet_psi(monkeypatch):
    d = 300
    rng = np.random.default_rng(d)
    x = rng.normal(size=(d, 2 * d))
    psi0 = spd_stack(rng, d) / d
    prior = PriorConfig(variant=mdl.V1_WISHART_INFORMATIVE, psi0=psi0, nu_d=d + 2.0)
    # ln|psi| comes from the update's own factorization, never from QWWishart.from_psi
    monkeypatch.setattr(posterior, "spd_logdet", lambda a: pytest.fail("psi was refactorized"))
    qw = mdl.WISHART.update_qw(prior, x @ x.T, 1000.0)
    monkeypatch.undo()
    assert qw.logdet_psi == pytest.approx(QWWishart.from_psi(qw.psi, qw.nu).logdet_psi, rel=1e-12)
    assert qw.logdet_psi == pytest.approx(np.linalg.slogdet(qw.psi)[1], rel=1e-12)


def test_annealed_wishart_carries_logdet_psi(monkeypatch):
    d = 60
    rng = np.random.default_rng(d)
    x = rng.normal(size=(d, 2 * d))
    prior = PriorConfig(variant=mdl.V1_WISHART_INFORMATIVE, psi0=spd_stack(rng, d) / d, nu_d=d + 2.0)
    qw = mdl.WISHART.update_qw(prior, x @ x.T, 1000.0)
    calls = []
    cholesky = linalg.spd_cholesky
    monkeypatch.setattr(linalg, "spd_cholesky", lambda a: calls.append(1) or cholesky(a))
    annealed = qw.anneal(0.3)
    logdet = annealed.logdet_psi
    assert calls == []  # ln|psi / kappa| = ln|psi| - d ln kappa, no second factorization
    assert logdet == pytest.approx(np.linalg.slogdet(annealed.psi)[1], rel=1e-12)


def test_flat_update_qw_rejects_a_rank_deficient_scatter():
    # K of rank 200 < d: the flat arm's q(W) has no finite scale matrix, and no
    # ridge stands in for the exact update
    d = 300
    x = np.random.default_rng(d).normal(size=(d, 200))
    with pytest.raises(FactorizationError):
        mdl.FLAT_WISHART.update_qw(None, x @ x.T, 1000.0)


def test_prior_factorizes_psi0_once(monkeypatch):
    calls = []
    cholesky = linalg.spd_cholesky

    def counted(a):
        calls.append(1)
        return cholesky(a)

    monkeypatch.setattr(linalg, "spd_cholesky", counted)
    psi0 = spd_stack(np.random.default_rng(5), 40)
    prior = PriorConfig(variant=mdl.V1_WISHART_INFORMATIVE, psi0=psi0, nu_d=42.0)
    psi0_inv, psi0_logdet = prior.psi0_inv_logdet
    assert prior.psi0_inv_logdet[0] is psi0_inv
    assert len(calls) == 1
    assert rel_diff(psi0_inv, cho_solve_inverse(psi0)) <= 1e-13
    assert psi0_logdet == pytest.approx(np.linalg.slogdet(psi0)[1], rel=1e-13)
