import numpy as np
import pytest
import scipy.linalg

import bsplda.linalg as linalg
import bsplda.model as mdl
from bsplda.linalg import FactorizationError, spd_inverse_logdet
from bsplda.model import PriorConfig


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
    # L^-T L^-1 is a product of a factor with its own transpose (SYRK): no
    # symmetrizing pass is needed
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


def test_update_qw_carries_logdet_psi():
    d = 300
    rng = np.random.default_rng(d)
    x = rng.normal(size=(d, 2 * d))
    psi0 = spd_stack(rng, d) / d
    prior = PriorConfig(variant=mdl.V1_WISHART_INFORMATIVE, psi0=psi0, nu_d=d + 2.0)
    qw = mdl.WISHART.update_qw(prior, x @ x.T, 1000.0)
    assert "logdet_psi" in vars(qw)  # cached by the update, not refactorized
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
