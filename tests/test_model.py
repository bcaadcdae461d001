import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from bsplda.data import SuffStats
from bsplda.engine import FitConfig, fit_stats
from bsplda.linalg import FactorizationError, spd_cholesky
from bsplda.model import (
    ModelParams,
    PriorConfig,
    conditional_loglik,
    conditional_loglik_augmented,
    conditional_loglik_augmented_traced,
    conditional_loglik_traced,
)

def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + d * np.eye(d))


def random_instance(rng, d=None, ny=None, n_i=None):
    d = d or int(rng.integers(1, 6))
    ny = ny or int(rng.integers(1, 4))
    n_i = n_i or int(rng.integers(1, 5))
    params = ModelParams(
        mu=rng.normal(size=d), V=rng.normal(size=(d, ny)), W=random_spd(rng, d, 0.5)
    )
    x = rng.normal(size=(n_i, d))
    y = rng.normal(size=ny)
    return params, x, y


def stats_of(x):
    return x.shape[0], x.sum(axis=0), x.T @ x


def per_row_loglik(x, y, params):
    """Naive per-observation Gaussian oracle (the product form of the likelihood)."""
    mean = params.mu + params.V @ y
    cov = np.linalg.inv(params.W)
    return float(np.sum(scipy.stats.multivariate_normal.logpdf(x, mean=mean, cov=cov)))


def test_standard_normal_at_mode():
    params = ModelParams(mu=np.zeros(1), V=np.zeros((1, 1)), W=np.eye(1))
    ll = conditional_loglik(1.0, np.zeros(1), np.zeros((1, 1)), np.zeros(1), params)
    assert ll == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-12)


def test_zero_residual_example():
    params = ModelParams(mu=np.zeros(1), V=np.ones((1, 1)), W=np.eye(1))
    # one observation phi = 1 with y = 1: residual zero
    n_i, f_i, s_i = 1.0, np.array([1.0]), np.array([[1.0]])
    fbar = f_i - n_i * params.mu
    sbar = s_i
    ll = conditional_loglik(n_i, fbar, sbar, np.ones(1), params)
    assert ll == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-12)


def test_matches_per_row_oracle():
    rng = np.random.default_rng(19)
    for _ in range(20):
        params, x, y = random_instance(rng)
        n_i, f_i, s_i = stats_of(x)
        fbar = f_i - n_i * params.mu
        sbar = s_i - np.outer(params.mu, f_i) - np.outer(f_i, params.mu) + n_i * np.outer(params.mu, params.mu)
        ll = conditional_loglik(n_i, fbar, sbar, y, params)
        assert ll == pytest.approx(per_row_loglik(x, y, params), rel=1e-9)


def test_cross_form_equivalence():
    rng = np.random.default_rng(29)
    for _ in range(100):
        params, x, y = random_instance(rng, d=int(rng.integers(1, 6)), ny=int(rng.integers(1, 4)), n_i=int(rng.integers(1, 5)))
        n_i, f_i, s_i = stats_of(x)
        mu = params.mu
        fbar = f_i - n_i * mu
        sbar = s_i - np.outer(mu, f_i) - np.outer(f_i, mu) + n_i * np.outer(mu, mu)
        loading = params.augmented()
        ytilde = np.append(y, 1.0)
        vals = [
            conditional_loglik(n_i, fbar, sbar, y, params),
            conditional_loglik_traced(n_i, f_i, s_i, y, params),
            conditional_loglik_augmented(n_i, f_i, s_i, ytilde, loading, params.W),
            conditional_loglik_augmented_traced(n_i, f_i, s_i, ytilde, loading, params.W),
        ]
        ref = vals[0]
        scale = max(1.0, abs(ref))
        for v in vals[1:]:
            assert abs(v - ref) <= 1e-9 * scale


def test_augmented_reduces_to_centered_at_zero_factor():
    rng = np.random.default_rng(37)
    params, x, _ = random_instance(rng, d=3, ny=2, n_i=4)
    params = ModelParams(mu=np.zeros(3), V=params.V, W=params.W)
    n_i, f_i, s_i = stats_of(x)
    ytilde = np.array([0.0, 0.0, 1.0])
    ll_aug = conditional_loglik_augmented(n_i, f_i, s_i, ytilde, params.augmented(), params.W)
    ll = conditional_loglik(n_i, f_i, s_i, np.zeros(2), params)
    assert ll_aug == pytest.approx(ll, rel=1e-12)


def test_augmented_empty_stats_is_zero():
    params = ModelParams(mu=np.zeros(2), V=np.ones((2, 1)), W=np.eye(2))
    ll = conditional_loglik_augmented(
        0.0, np.zeros(2), np.zeros((2, 2)), np.array([0.5, 1.0]), params.augmented(), params.W
    )
    assert ll == 0.0


def test_augmented_requires_unit_last_entry():
    params = ModelParams(mu=np.zeros(2), V=np.ones((2, 1)), W=np.eye(2))
    with pytest.raises(ValueError):
        conditional_loglik_augmented(
            1.0, np.zeros(2), np.zeros((2, 2)), np.array([0.5, 0.9]), params.augmented(), params.W
        )


def test_rotation_invariance():
    rng = np.random.default_rng(43)
    for _ in range(10):
        params, x, y = random_instance(rng, d=4, ny=2, n_i=3)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated = ModelParams(mu=q @ params.mu, V=q @ params.V, W=q @ params.W @ q.T)
        xr = x @ q.T
        n_i, f_i, s_i = stats_of(x)
        nr, fr, sr = stats_of(xr)
        args = lambda p, f, s: (
            n_i,
            f - n_i * p.mu,
            s - np.outer(p.mu, f) - np.outer(f, p.mu) + n_i * np.outer(p.mu, p.mu),
            y,
            p,
        )
        assert conditional_loglik(*args(params, f_i, s_i)) == pytest.approx(
            conditional_loglik(*args(rotated, fr, sr)), rel=1e-9
        )


def test_non_pd_w_rejected():
    with pytest.raises(FactorizationError):
        ModelParams(mu=np.zeros(2), V=np.ones((2, 1)), W=np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_w_is_named_before_its_symmetry(bad):
    # an off-diagonal NaN or inf fails the symmetry check too; the cause is named
    w = np.eye(2)
    w[0, 1] = bad
    with pytest.raises(ValueError, match="W has non-finite entries"):
        ModelParams(mu=np.zeros(2), V=np.ones((2, 1)), W=w)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spd_cholesky_rejects_non_finite_input(bad):
    a = np.eye(3)
    a[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        spd_cholesky(a)


def test_augmented_loading_structure():
    v = np.arange(6.0).reshape(3, 2)
    mu = np.array([7.0, 8.0, 9.0])
    vtilde = ModelParams(mu=mu, V=v, W=np.eye(3)).augmented()
    np.testing.assert_array_equal(vtilde, np.column_stack([v, mu]))


def test_validate_returns_a_broadcast_copy():
    d, k = 3, 2
    prior = PriorConfig(variant="V4-GaussV-Gamma-diagonal", v_row_means=np.zeros((d, k)),
                        v_row_precisions=np.tile(np.eye(k), (d, 1, 1)), a_w=1.0, b_w=0.5)
    checked = prior.validate(d, 1)
    np.testing.assert_array_equal(checked.b_w, np.full(d, 0.5))
    assert prior.b_w.shape == ()
    assert prior.validate(d, 1).b_w.shape == (d,)
    shared = PriorConfig(variant="V4-GaussV-Gamma-isotropic", v_row_means=prior.v_row_means,
                         v_row_precisions=prior.v_row_precisions, a_w=1.0, b_w=[0.5, 0.5])
    with pytest.raises(ValueError, match="takes b_w as a scalar or length-1"):
        shared.validate(d, 1)


def row_prior(variant, rng, d, k):
    """A V3/V4 prior of random positive-definite row precisions, exactly symmetric."""
    fields = dict(variant=variant, v_row_means=rng.normal(size=(d, k)),
                  v_row_precisions=np.stack([random_spd(rng, k) for _ in range(d)]))
    if variant == "V3-GaussV-Wishart":
        fields.update(psi0=random_spd(rng, d), nu_d=d + 2.0)
    else:
        fields.update(a_w=1.0, b_w=0.5)
    return PriorConfig(**fields)


@pytest.mark.parametrize("field", ["psi0", "v_row_precisions"])
def test_validate_rejects_precisions_that_are_not_symmetric(field):
    d, k = 4, 3
    prior = row_prior("V3-GaussV-Wishart", np.random.default_rng(17), d, k)
    bumped = getattr(prior, field).copy()
    bumped[..., 0, 1] += 1.5  # the lower triangle, which a Cholesky factor reads, is unchanged
    spd_cholesky(bumped)
    with pytest.raises(ValueError, match=f"{field} must be symmetric"):
        replace(prior, **{field: bumped}).validate(d, k - 1)


@pytest.mark.parametrize("field", ["psi0", "v_row_precisions"])
def test_validate_symmetrizes_precisions_symmetric_to_rounding(field):
    d, k = 4, 3
    prior = row_prior("V3-GaussV-Wishart", np.random.default_rng(18), d, k)
    rounded = getattr(prior, field).copy()
    rounded[..., 0, 1] *= 1.0 + 1e-14
    given = replace(prior, **{field: rounded})
    checked = getattr(given.validate(d, k - 1), field)
    np.testing.assert_array_equal(checked, 0.5 * (rounded + np.swapaxes(rounded, -1, -2)))
    np.testing.assert_array_equal(checked, np.swapaxes(checked, -1, -2))
    assert getattr(given, field) is rounded  # the given prior is left as it is


def test_fit_rejects_a_row_prior_that_is_not_symmetric():
    # the lower triangle alone, which the row-prior log-determinants read, is positive definite
    rng = np.random.default_rng(19)
    d, ny, m = 4, 2, 6
    prior = row_prior("V4-GaussV-Gamma-diagonal", rng, d, ny + 1)
    precs = prior.v_row_precisions.copy()
    precs[2, 0, 1] += 1.5
    counts = np.full(m, 3.0)
    stats = SuffStats(counts=counts, spk_sums=rng.normal(size=(m, d)),
                      scatter_total=random_spd(rng, d, 10.0))
    with pytest.raises(ValueError, match="v_row_precisions must be symmetric"):
        fit_stats(stats, replace(prior, v_row_precisions=precs), FitConfig(max_iterations=5), ny)


def test_prior_config_validation():
    with pytest.raises(ValueError):
        PriorConfig(variant="V9-unknown")
    prior = PriorConfig(variant="V1-Wishart-noninformative", mu0=0.0, beta=1.0, a_alpha=1e-3, b_alpha=1e-3)
    prior = prior.validate(3, 2)
    assert prior.mu0.shape == (3,)
    with pytest.raises(ValueError):
        PriorConfig(variant="V1-Wishart-informative", mu0=0.0, beta=1.0, a_alpha=1e-3, b_alpha=1e-3).validate(3, 2)
    with pytest.raises(ValueError):
        PriorConfig(variant="V3-GaussV-Wishart").validate(3, 2)
    with pytest.raises(ValueError):
        PriorConfig(
            variant="V2-Gamma-diagonal", mu0=0.0, beta=-1.0, a_alpha=1e-3, b_alpha=1e-3, a_w=1.0, b_w=1.0
        ).validate(3, 2)
