import math

import numpy as np
import pytest
from scipy import special

from bsplda.numerics import (
    NoRootError,
    digamma,
    log_multivariate_gamma,
    solve_gamma_shape,
    trigamma,
    wishart_digamma_sum,
    wishart_log_B,
)
from bsplda.posterior import QWWishart

EULER_GAMMA = 0.5772156649015329


def test_digamma_known_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, rel=1e-12)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-12)
    assert digamma(3.5) == pytest.approx(digamma(2.5) + 1.0 / 2.5, rel=1e-12)


def test_digamma_recurrence_property():
    rng = np.random.default_rng(20240311)
    xs = rng.uniform(0.01, 100.0, size=1000)
    for x in xs:
        lhs = digamma(x + 1.0)
        rhs = digamma(x) + 1.0 / x
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, np.array([1.0, 0.0])])
def test_digamma_domain(bad):
    with pytest.raises(ValueError):
        digamma(bad)
    with pytest.raises(ValueError):
        trigamma(bad)


def test_trigamma_known_values():
    assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-10)
    assert trigamma(2.0) == pytest.approx(math.pi**2 / 6.0 - 1.0, rel=1e-10)


def test_trigamma_matches_central_difference():
    # independent oracle: central finite difference of digamma
    rng = np.random.default_rng(7)
    for x in np.concatenate([[10.0], rng.uniform(0.5, 50.0, size=50)]):
        h = 1e-5 * max(1.0, x)
        fd = (digamma(x + h) - digamma(x - h)) / (2.0 * h)
        assert trigamma(x) == pytest.approx(fd, rel=1e-6)


# log-spaced over the solver's clamp range, and densely around psi's root x0 ~ 1.4616
GRID = np.concatenate([np.logspace(-6, 8, 4001), np.linspace(1.3, 1.6, 3001)])


def test_digamma_matches_scipy_on_grid():
    ref = special.digamma(GRID)
    # relative error, or absolute where |psi| < 1 (psi crosses zero at x0)
    scale = np.maximum(np.abs(ref), 1.0)
    assert np.max(np.abs(digamma(GRID) - ref) / scale) <= 4e-15
    for x, r, sc in zip(GRID[::97], ref[::97], scale[::97]):
        assert abs(digamma(float(x)) - r) <= 4e-15 * sc


def test_trigamma_matches_scipy_on_grid():
    ref = special.polygamma(1, GRID)
    assert np.max(np.abs(trigamma(GRID) / ref - 1.0)) <= 4e-15
    for x, r in zip(GRID[::97], ref[::97]):
        assert abs(trigamma(float(x)) / r - 1.0) <= 4e-15


def test_log_multivariate_gamma_values():
    assert log_multivariate_gamma(1, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_multivariate_gamma(1, 0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)
    # direct summation oracle
    expected = 0.5 * math.log(math.pi) + special.gammaln(2.0) + special.gammaln(1.5)
    assert log_multivariate_gamma(2, 2.0) == pytest.approx(float(expected), rel=1e-12)


def test_log_multivariate_gamma_oracle_general():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(1, 6))
        a = rng.uniform((d - 1) / 2.0 + 0.1, 30.0)
        direct = d * (d - 1) / 4.0 * math.log(math.pi) + sum(
            float(special.gammaln(a + (1.0 - i) / 2.0)) for i in range(1, d + 1)
        )
        assert log_multivariate_gamma(d, a) == pytest.approx(direct, rel=1e-12)


def test_log_multivariate_gamma_domain():
    with pytest.raises(ValueError):
        log_multivariate_gamma(3, 1.0)  # needs a > 1
    with pytest.raises(ValueError):
        log_multivariate_gamma(0, 1.0)


def test_wishart_log_B_scalar_cases():
    # the log-determinants of [[1]], [[2]] and I_2
    assert wishart_log_B(0.0, 2.0, 1) == pytest.approx(-math.log(2.0), rel=1e-12)
    assert wishart_log_B(math.log(2.0), 2.0, 1) == pytest.approx(
        -math.log(2.0) - math.log(2.0), rel=1e-12
    )
    expected = -3.0 * math.log(2.0) - log_multivariate_gamma(2, 1.5)
    assert wishart_log_B(0.0, 3.0, 2) == pytest.approx(expected, rel=1e-12)


def test_wishart_log_B_matches_scalar_gamma_normalizer():
    # d=1: W(w | psi, nu) is Gamma(nu/2, 1/(2 psi)); the log-normalizers must agree.
    rng = np.random.default_rng(3)
    for _ in range(20):
        psi = rng.uniform(0.1, 5.0)
        nu = rng.uniform(0.5, 20.0)
        a, b = nu / 2.0, 1.0 / (2.0 * psi)
        gamma_lognorm = a * math.log(b) - float(special.gammaln(a))
        assert wishart_log_B(math.log(psi), nu, 1) == pytest.approx(gamma_lognorm, rel=1e-12)


def test_wishart_constants_once_per_dof_and_dim():
    # a sweep's q(W) factors share (nu, d): the digamma sum of E[ln|W|] and
    # ln Gamma_d(nu/2) are computed on the first and read back after, same bits
    d, nu = 7, 11.5
    wishart_digamma_sum.cache_clear()
    log_multivariate_gamma.cache_clear()
    for scale in (1.0, 2.0, 3.0):
        qw = QWWishart.from_psi(psi=scale * np.eye(d), nu=nu)
        direct = float(np.sum(digamma(0.5 * (nu + 1 - np.arange(1, d + 1)))))
        assert qw.mean_logdet == float(direct + d * math.log(2.0) + qw.logdet_psi)
        qw.neg_entropy
    assert wishart_digamma_sum.cache_info()[:2] == (2, 1)  # (hits, misses)
    assert log_multivariate_gamma.cache_info()[:2] == (2, 1)


def test_wishart_log_B_errors():
    with pytest.raises(ValueError):
        wishart_log_B(0.0, 1.0, 2)  # dof <= d-1


def test_solve_gamma_shape_examples():
    c = digamma(3.0) - math.log(2.0)
    assert solve_gamma_shape(c, 1.5, a_init=1.0) == pytest.approx(3.0, rel=1e-8)
    assert solve_gamma_shape(-EULER_GAMMA, 1.0, a_init=2.0) == pytest.approx(1.0, rel=1e-8)
    with pytest.raises(NoRootError):
        solve_gamma_shape(math.log(1.5) + 0.1, 1.5, a_init=1.0)
    with pytest.raises(NoRootError):
        solve_gamma_shape(math.log(2.0), 2.0, a_init=1.0)  # boundary c = ln d_mean


@pytest.mark.parametrize("a_star", [0.1, 1.0, 3.0, 50.0])
def test_solve_gamma_shape_fixed_point(a_star):
    # moments of Gamma(a*, b*) must recover a* regardless of the rate
    for b_star in (0.25, 1.0, 7.5):
        c = digamma(a_star) - math.log(b_star)
        d_mean = a_star / b_star
        assert solve_gamma_shape(c, d_mean, a_init=1.0) == pytest.approx(a_star, rel=1e-8)


def test_solve_gamma_shape_residual_criterion():
    a = solve_gamma_shape(digamma(4.0) - math.log(3.0), 4.0 / 3.0, a_init=0.2)
    residual = digamma(a) - math.log(a) + math.log(4.0 / 3.0) - (digamma(4.0) - math.log(3.0))
    assert abs(residual) < 1e-10
