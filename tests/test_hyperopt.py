import math

import numpy as np
import pytest
from scipy import special

from bsplda.hyperopt import BETA_CAP, optimize_alpha_hyper, optimize_mu_prior, optimize_w_hyper
from bsplda.numerics import NoRootError
from bsplda.posterior import QVtilde


def gamma_moments(a, b, size):
    mean_log = np.full(size, float(special.digamma(a)) - math.log(b))
    mean = np.full(size, a / b)
    return mean_log, mean


def gamma_cross_entropy(a, b, mean_log, mean):
    return float(np.sum(a * math.log(b) - special.gammaln(a) + (a - 1.0) * mean_log - b * mean))


def test_alpha_hyper_recovers_exact_moments():
    mean_log, mean = gamma_moments(3.0, 2.0, 4)
    a, b = optimize_alpha_hyper(mean_log, mean, a_alpha=1.0)
    assert a == pytest.approx(3.0, rel=1e-8)
    assert b == pytest.approx(2.0, rel=1e-8)


def test_alpha_hyper_unit_fixed_point():
    mean_log, mean = gamma_moments(1.0, 1.0, 3)
    a, b = optimize_alpha_hyper(mean_log, mean, a_alpha=2.0)
    assert a == pytest.approx(1.0, rel=1e-8)
    assert b == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("a_star", [0.5, 1.0, 3.0, 20.0])
def test_moment_consistency_grid(a_star):
    for b_star in (0.3, 1.0, 5.0):
        mean_log, mean = gamma_moments(a_star, b_star, 6)
        a, b = optimize_alpha_hyper(mean_log, mean, a_alpha=1.0)
        assert a == pytest.approx(a_star, rel=1e-6)
        assert b == pytest.approx(b_star, rel=1e-6)


def test_mixed_columns_maximize_cross_entropy():
    # the optimum must beat +-1% perturbations of (a, b)
    rng = np.random.default_rng(3)
    shapes = rng.uniform(0.5, 6.0, size=5)
    rates = rng.uniform(0.5, 6.0, size=5)
    mean_log = special.digamma(shapes) - np.log(rates)
    mean = shapes / rates
    a, b = optimize_alpha_hyper(mean_log, mean, a_alpha=1.0)
    best = gamma_cross_entropy(a, b, mean_log, mean)
    for fa in (0.99, 1.01):
        for fb in (0.99, 1.01):
            assert gamma_cross_entropy(a * fa, b * fb, mean_log, mean) <= best + 1e-10


def test_w_hyper_variants():
    mean_log, mean = gamma_moments(2.0, 5.0, 8)
    a, b = optimize_w_hyper(mean_log, mean, a_w=1.0)
    assert a == pytest.approx(2.0, rel=1e-6)
    assert b == pytest.approx(5.0, rel=1e-6)
    mean_log, mean = gamma_moments(7.0, 1.0, 1)  # isotropic scalar moments
    a, b = optimize_w_hyper(mean_log, mean, a_w=2.0)
    assert a == pytest.approx(7.0, rel=1e-6)
    assert b == pytest.approx(1.0, rel=1e-6)


def test_inconsistent_moments_raise():
    with pytest.raises(NoRootError):
        optimize_alpha_hyper(np.array([1.0]), np.array([1.0]), a_alpha=1.0)  # E[ln x] > ln E[x]


def qv_with_mu_block(mu_mean, mu_var, ny=2):
    d = mu_mean.shape[0]
    k = ny + 1
    mean = np.zeros((d, k))
    mean[:, -1] = mu_mean
    prec = np.tile(np.eye(k), (d, 1, 1))
    prec[:, -1, -1] = 1.0 / mu_var
    return QVtilde.from_precisions(mean=mean, prec=prec)


def test_mu_prior_unit_variances():
    qv = qv_with_mu_block(np.array([0.4, -1.0, 2.0]), np.ones(3))
    mu0, beta = optimize_mu_prior(qv)
    np.testing.assert_allclose(mu0, [0.4, -1.0, 2.0])
    np.testing.assert_allclose(beta, np.ones(3), rtol=1e-10)


def test_mu_prior_point_mass_capped():
    qv = qv_with_mu_block(np.zeros(2), np.full(2, 1e-30))
    _, beta = optimize_mu_prior(qv)
    np.testing.assert_allclose(beta, np.full(2, BETA_CAP))


def test_mu_update_does_not_decrease_elbo_mu_term():
    # term: sum_r [0.5 ln beta_r - 0.5 beta_r (var_r + (mean_r - mu0_r)^2)]
    rng = np.random.default_rng(9)
    for _ in range(50):
        d = 4
        mu_mean = rng.normal(size=d)
        mu_var = rng.uniform(0.1, 2.0, size=d)
        qv = qv_with_mu_block(mu_mean, mu_var, ny=1)

        def term(mu0, beta):
            resid = mu_var + (mu_mean - mu0) ** 2
            return float(np.sum(0.5 * np.log(beta) - 0.5 * beta * resid))

        mu0_old = rng.normal(size=d)
        beta_old = rng.uniform(0.1, 3.0, size=d)
        mu0_new, beta_new = optimize_mu_prior(qv)
        assert term(mu0_new, beta_new) >= term(mu0_old, beta_old) - 1e-10


def test_alpha_update_does_not_decrease_hyper_terms():
    # term: ny (a ln b - lnGamma(a)) + (a-1) sum E[ln a_q] - b sum E[a_q]
    rng = np.random.default_rng(10)
    for _ in range(50):
        shapes = rng.uniform(0.5, 8.0, size=3)
        rates = rng.uniform(0.5, 8.0, size=3)
        mean_log = special.digamma(shapes) - np.log(rates)
        mean = shapes / rates
        a_old = rng.uniform(0.2, 5.0)
        b_old = rng.uniform(0.2, 5.0)
        a_new, b_new = optimize_alpha_hyper(mean_log, mean, a_alpha=a_old)
        assert gamma_cross_entropy(a_new, b_new, mean_log, mean) >= gamma_cross_entropy(
            a_old, b_old, mean_log, mean
        ) - 1e-10
