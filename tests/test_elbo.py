import math
from dataclasses import dataclass

import numpy as np
import pytest

import bsplda.model as mdl
from bsplda.data import SuffStats
from bsplda.elbo import (
    elbo_data_term,
    elbo_total,
    elbo_v_alpha_mu_terms,
    elbo_w_terms,
    elbo_y_terms,
)
from bsplda.model import PriorConfig, conditional_loglik_augmented
from bsplda.posterior import (
    QY,
    QAlpha,
    QVtilde,
    QWGamma,
    QWWishart,
    y_aggregates,
)
from tests.test_posterior import qy_from_precisions, random_qv, random_qy, random_spd, stats_for

LOG2PI = math.log(2.0 * math.pi)


@dataclass
class PointW:
    """Degenerate precision posterior: exact mean with zero spread."""

    w: np.ndarray

    @property
    def mean(self):
        return self.w

    @property
    def mean_logdet(self):
        return float(np.linalg.slogdet(self.w)[1])


def gaussian_kl(mean, cov, prior_mean, prior_cov):
    d = mean.shape[0]
    prior_prec = np.linalg.inv(prior_cov)
    delta = mean - prior_mean
    return 0.5 * (
        np.trace(prior_prec @ cov)
        + delta @ prior_prec @ delta
        - d
        + np.linalg.slogdet(prior_cov)[1]
        - np.linalg.slogdet(cov)[1]
    )


def test_y_terms_at_prior():
    qy = qy_from_precisions(np.zeros((1, 1)), np.ones((1, 1, 1)), np.arange(1))
    y_prior, y_entropy_neg = elbo_y_terms(qy)
    assert y_prior == pytest.approx(-0.5 * LOG2PI - 0.5, rel=1e-12)
    assert y_entropy_neg == pytest.approx(-0.5 * (LOG2PI + 1.0), rel=1e-12)
    assert y_prior - y_entropy_neg == pytest.approx(0.0, abs=1e-12)


def test_y_terms_nonzero_mean_negative_kl():
    qy = qy_from_precisions(np.array([[0.7]]), np.ones((1, 1, 1)), np.arange(1))
    y_prior, y_entropy_neg = elbo_y_terms(qy)
    assert y_prior - y_entropy_neg < 0


def test_y_terms_match_closed_form_kl():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m, ny = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        qy = random_qy(rng, m, ny)
        y_prior, y_entropy_neg = elbo_y_terms(qy)
        kl = sum(
            gaussian_kl(qy.mean[i], qy.cov[qy.group[i]], np.zeros(ny), np.eye(ny)) for i in range(m)
        )
        assert y_prior - y_entropy_neg == pytest.approx(-kl, rel=1e-10, abs=1e-10)


def v1_prior_state(d, ny, prior):
    """q(Vtilde) rows at the conditional prior given E[alpha], q(alpha) at its prior."""
    k = ny + 1
    qalpha = QAlpha(a=prior.a_alpha, b=np.full(ny, prior.b_alpha))
    prec = np.zeros((d, k, k))
    mean = np.zeros((d, k))
    for r in range(d):
        prec[r] = np.diag(np.append(qalpha.mean, prior.beta[r]))
        mean[r, -1] = prior.mu0[r]
    return QVtilde.from_precisions(mean=mean, prec=prec), qalpha


def test_alpha_pair_is_zero_at_prior():
    prior = PriorConfig(
        variant=mdl.V2_GAMMA_DIAGONAL, mu0=0.0, beta=1.0, a_alpha=2.0, b_alpha=3.0, a_w=1.0, b_w=1.0
    ).validate(3, 2)
    qv, qalpha = v1_prior_state(3, 2, prior)
    _, alpha_prior, alpha_entropy_neg, _, _ = elbo_v_alpha_mu_terms(qv, qalpha, prior)
    assert alpha_prior - alpha_entropy_neg == pytest.approx(0.0, abs=1e-9)


def test_alpha_prior_scalar_cross_entropy_oracle():
    # a = b = 1: E[ln Gamma(alpha|1,1)] = -sum E[alpha]
    prior = PriorConfig(
        variant=mdl.V2_GAMMA_DIAGONAL, mu0=0.0, beta=1.0, a_alpha=1.0, b_alpha=1.0, a_w=1.0, b_w=1.0
    ).validate(2, 3)
    qalpha = QAlpha(a=2.5, b=np.array([1.0, 2.0, 4.0]))
    qv = random_qv(np.random.default_rng(0), 2, 3)
    _, alpha_prior, _, _, _ = elbo_v_alpha_mu_terms(qv, qalpha, prior)
    assert alpha_prior == pytest.approx(-float(np.sum(qalpha.mean)), rel=1e-12)


def test_v1_hierarchical_pair_matches_closed_form():
    # with q at the conditional prior the V/mu block KL equals
    # (d/2) sum_q (ln E[alpha_q] - E[ln alpha_q]) exactly
    d, ny = 4, 2
    prior = PriorConfig(
        variant=mdl.V1_WISHART_NONINFORMATIVE, mu0=0.3, beta=2.0, a_alpha=1.5, b_alpha=0.5
    ).validate(d, ny)
    qv, qalpha = v1_prior_state(d, ny, prior)
    v_prior, _, _, mu_prior, v_entropy_neg = elbo_v_alpha_mu_terms(qv, qalpha, prior)
    expected = -0.5 * d * float(np.sum(np.log(qalpha.mean) - qalpha.mean_log))
    assert (v_prior + mu_prior) - v_entropy_neg == pytest.approx(expected, rel=1e-9)


def test_mu_pair_is_zero_at_prior():
    # the mu slice of the diagonal row posterior against its Gaussian prior
    d, ny = 3, 2
    prior = PriorConfig(
        variant=mdl.V1_WISHART_NONINFORMATIVE, mu0=np.array([0.1, -0.4, 2.0]), beta=np.array([0.5, 1.0, 4.0]),
        a_alpha=1.0, b_alpha=1.0,
    ).validate(d, ny)
    qv, qalpha = v1_prior_state(d, ny, prior)
    _, _, _, mu_prior, _ = elbo_v_alpha_mu_terms(qv, qalpha, prior)
    mu_entropy_neg = sum(
        -0.5 * (LOG2PI + 1.0) + 0.5 * math.log(prior.beta[r]) for r in range(d)
    )
    assert mu_prior - mu_entropy_neg == pytest.approx(0.0, abs=1e-9)


def test_v3_row_pair_is_zero_at_prior():
    rng = np.random.default_rng(9)
    d, ny = 3, 2
    k = ny + 1
    means = rng.normal(size=(d, k))
    precs = np.stack([random_spd(rng, k) for _ in range(d)])
    prior = PriorConfig(
        variant=mdl.V3_GAUSSV_WISHART, v_row_means=means, v_row_precisions=precs,
        psi0=np.eye(d), nu_d=d + 2.0,
    ).validate(d, ny)
    qv = QVtilde.from_precisions(mean=means, prec=precs)
    v_prior, a_p, a_e, mu_p, v_entropy_neg = elbo_v_alpha_mu_terms(qv, None, prior)
    assert (a_p, a_e, mu_p) == (0.0, 0.0, 0.0)
    assert v_prior - v_entropy_neg == pytest.approx(0.0, abs=1e-9)


def test_v3_row_pair_matches_gaussian_kl():
    rng = np.random.default_rng(13)
    d, ny = 2, 2
    k = ny + 1
    prior = PriorConfig(
        variant=mdl.V4_GAUSSV_GAMMA_DIAGONAL,
        v_row_means=rng.normal(size=(d, k)),
        v_row_precisions=np.stack([random_spd(rng, k) for _ in range(d)]),
        a_w=1.0, b_w=1.0,
    ).validate(d, ny)
    qv = random_qv(rng, d, ny)
    v_prior, _, _, _, v_entropy_neg = elbo_v_alpha_mu_terms(qv, None, prior)
    kl = sum(
        gaussian_kl(
            qv.mean[r], qv.cov[r], prior.v_row_means[r], np.linalg.inv(prior.v_row_precisions[r])
        )
        for r in range(d)
    )
    assert v_prior - v_entropy_neg == pytest.approx(-kl, rel=1e-9, abs=1e-9)


def test_w_pairs_zero_at_prior():
    d = 3
    psi0 = random_spd(np.random.default_rng(1), d, 0.4)
    prior_w = PriorConfig(
        variant=mdl.V1_WISHART_INFORMATIVE, mu0=0.0, beta=1.0, a_alpha=1.0, b_alpha=1.0,
        psi0=psi0, nu_d=d + 3.5,
    ).validate(d, 2)
    qw = QWWishart.from_psi(psi=psi0, nu=d + 3.5)
    w_prior, w_entropy_neg = elbo_w_terms(qw, prior_w)
    assert w_prior - w_entropy_neg == pytest.approx(0.0, abs=1e-9)

    prior_d = PriorConfig(
        variant=mdl.V2_GAMMA_DIAGONAL, mu0=0.0, beta=1.0, a_alpha=1.0, b_alpha=1.0, a_w=2.5, b_w=0.7
    ).validate(d, 2)
    qw = QWGamma(a=2.5, b=np.full(d, 0.7), dim=d)
    w_prior, w_entropy_neg = elbo_w_terms(qw, prior_d)
    assert w_prior - w_entropy_neg == pytest.approx(0.0, abs=1e-9)

    prior_i = PriorConfig(
        variant=mdl.V2_GAMMA_ISOTROPIC, mu0=0.0, beta=1.0, a_alpha=1.0, b_alpha=1.0, a_w=1.2, b_w=3.0
    ).validate(d, 2)
    qw = QWGamma(a=1.2, b=3.0, dim=d)
    w_prior, w_entropy_neg = elbo_w_terms(qw, prior_i)
    assert w_prior - w_entropy_neg == pytest.approx(0.0, abs=1e-9)


def test_w_terms_wishart_gamma_reparametrization():
    # d=1: Wishart(psi, nu) and Gamma(nu/2, 1/(2 psi)) are the same density,
    # so both parametrizations of the same prior/posterior give equal terms.
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi0, nu0 = rng.uniform(0.2, 3.0), rng.uniform(2.0, 9.0)
        psi, nu = rng.uniform(0.2, 3.0), rng.uniform(2.0, 9.0)
        prior_w = PriorConfig(
            variant=mdl.V1_WISHART_INFORMATIVE, mu0=0.0, beta=1.0, a_alpha=1.0, b_alpha=1.0,
            psi0=np.array([[psi0]]), nu_d=nu0,
        ).validate(1, 1)
        qw_w = QWWishart.from_psi(psi=np.array([[psi]]), nu=nu)
        wp_w, we_w = elbo_w_terms(qw_w, prior_w)
        prior_g = PriorConfig(
            variant=mdl.V4_GAUSSV_GAMMA_ISOTROPIC,
            v_row_means=np.zeros((1, 2)), v_row_precisions=np.eye(2)[None],
            a_w=nu0 / 2.0, b_w=1.0 / (2.0 * psi0),
        ).validate(1, 1)
        qw_g = QWGamma(a=nu / 2.0, b=1.0 / (2.0 * psi), dim=1)
        wp_g, we_g = elbo_w_terms(qw_g, prior_g)
        assert wp_w == pytest.approx(wp_g, rel=1e-9, abs=1e-9)
        assert we_w == pytest.approx(we_g, rel=1e-9, abs=1e-9)


def test_noninformative_w_prior_term():
    qw = QWWishart.from_psi(psi=np.eye(2) * 0.4, nu=7.0)
    w_prior, _ = elbo_w_terms(qw, PriorConfig(variant=mdl.V1_WISHART_NONINFORMATIVE,
                                              mu0=0.0, beta=1.0, a_alpha=1.0, b_alpha=1.0).validate(2, 1))
    assert w_prior == pytest.approx(-1.5 * qw.mean_logdet, rel=1e-12)


def test_data_term_empty_is_zero():
    stats = SuffStats(counts=np.zeros(0), spk_sums=np.zeros((0, 3)), scatter_total=np.zeros((3, 3)))
    qy = QY(mean=np.zeros((0, 2)), cov=np.zeros((0, 2, 2)), prec_logdets=np.zeros(0), group=np.arange(0))
    qv = random_qv(np.random.default_rng(0), 3, 2)
    qw = QWGamma(a=1.0, b=1.0, dim=3)
    aggs = y_aggregates(qy, stats)
    assert elbo_data_term(stats, aggs, qv, qw) == 0.0


def test_data_term_degenerate_equals_augmented_loglik():
    rng = np.random.default_rng(21)
    m, d, ny = 3, 3, 2
    k = ny + 1
    vectors = [rng.normal(size=(n_i, d)) for n_i in rng.integers(1, 5, size=m)]
    stats = SuffStats(
        counts=[x.shape[0] for x in vectors],
        spk_sums=[x.sum(axis=0) for x in vectors],
        scatter_total=sum(x.T @ x for x in vectors),
    )
    ybars = rng.normal(size=(m, ny))
    qy = qy_from_precisions(ybars, np.tile(1e14 * np.eye(ny), (m, 1, 1)), np.arange(m))
    vt = rng.normal(size=(d, k))
    qv = QVtilde.from_precisions(mean=vt, prec=np.tile(1e14 * np.eye(k), (d, 1, 1)))
    w = random_spd(rng, d, 0.5)
    qw = PointW(w=w)
    aggs = y_aggregates(qy, stats)
    got = elbo_data_term(stats, aggs, qv, qw)
    expected = sum(
        conditional_loglik_augmented(
            stats.counts[i], stats.spk_sums[i], vectors[i].T @ vectors[i],
            np.append(ybars[i], 1.0), vt, w,
        )
        for i in range(m)
    )
    assert got == pytest.approx(expected, rel=1e-7)


def gauss_hermite_expect(f, means, cov, n_nodes=40):
    """E[f(z)] for z ~ N(means, cov) by tensor-product Gauss-Hermite."""
    dim = means.shape[0]
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    chol = np.linalg.cholesky(cov)
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.ones(pts.shape[0])
    for axis in range(dim):
        wts *= weights[np.argmin(np.abs(nodes[None, :] - pts[:, axis : axis + 1]), axis=1)]
    z = means[None, :] + math.sqrt(2.0) * pts @ chol.T
    return float(np.sum(wts * f(z)) / math.pi ** (dim / 2.0))


def test_data_term_matches_quadrature_oracle():
    # d=1: expectation over (v, mu, y) by quadrature, over w analytically
    rng = np.random.default_rng(33)
    phi = np.array([[0.7], [-0.4]])
    stats = SuffStats(
        counts=np.array([2.0]),
        spk_sums=phi.sum(axis=0, keepdims=True),
        scatter_total=phi.T @ phi,
    )
    qy = qy_from_precisions(np.array([[0.3]]), np.array([[[2.0]]]), np.arange(1))
    qv = QVtilde.from_precisions(mean=np.array([[0.8, -0.2]]), prec=random_spd(rng, 2, 2.0)[None])
    qw = QWGamma(a=3.0, b=2.0, dim=1)
    aggs = y_aggregates(qy, stats)
    got = elbo_data_term(stats, aggs, qv, qw)

    row_mean, row_cov = qv.mean[0], qv.cov[0]
    y_mean, y_var = qy.mean[0], qy.cov[0]
    joint_mean = np.concatenate([row_mean, y_mean])
    joint_cov = np.zeros((3, 3))
    joint_cov[:2, :2] = row_cov
    joint_cov[2, 2] = y_var[0, 0]

    def residual_sq(z):
        g = z[:, 0] * z[:, 2] + z[:, 1]  # v*y + mu
        return sum((x - g) ** 2 for x in phi[:, 0])

    e_resid = gauss_hermite_expect(residual_sq, joint_mean, joint_cov, n_nodes=48)
    n = stats.n_total
    expected = (
        0.5 * n * qw.mean_log[0] - 0.5 * n * LOG2PI - 0.5 * qw.factor_mean[0] * e_resid
    )
    assert got == pytest.approx(expected, rel=1e-7)


def make_full_state(rng, variant, d=3, ny=2, m=4):
    k = ny + 1
    stats = stats_for(rng, m, d)
    qy = random_qy(rng, m, ny)
    qv = random_qv(rng, d, ny)
    loading, arm = mdl.SCHEMES[variant]
    if isinstance(arm, mdl.WishartArm):
        qw = QWWishart.from_psi(psi=random_spd(rng, d, 0.2), nu=d + 4.0)
    elif arm is mdl.GAMMA_ISOTROPIC:
        qw = QWGamma(a=2.0, b=1.5, dim=d)
    else:
        qw = QWGamma(a=2.0, b=rng.uniform(0.5, 2.0, size=d), dim=d)
    qalpha = QAlpha(a=1.5, b=rng.uniform(0.5, 2.0, size=ny)) if loading.has_alpha else None
    if loading.has_alpha:
        kwargs = dict(mu0=0.0, beta=1.0, a_alpha=1.0, b_alpha=1.0)
        if variant == mdl.V1_WISHART_INFORMATIVE:
            kwargs.update(psi0=np.eye(d), nu_d=d + 2.0)
        if not isinstance(arm, mdl.WishartArm):
            kwargs.update(a_w=1.0, b_w=1.0)
    else:
        kwargs = dict(
            v_row_means=rng.normal(size=(d, k)),
            v_row_precisions=np.stack([random_spd(rng, k) for _ in range(d)]),
        )
        if variant == mdl.V3_GAUSSV_WISHART:
            kwargs.update(psi0=np.eye(d), nu_d=d + 2.0)
        else:
            kwargs.update(a_w=1.0, b_w=1.0)
    prior = PriorConfig(variant=variant, **kwargs).validate(d, ny)
    return stats, qy, qv, qw, qalpha, prior


@pytest.mark.parametrize("variant", mdl.VARIANTS)
def test_breakdown_sums_to_total(variant):
    rng = np.random.default_rng(mdl.VARIANTS.index(variant))
    stats, qy, qv, qw, qalpha, prior = make_full_state(rng, variant)
    bd = elbo_total(stats, qy, qv, qw, qalpha, prior)
    manual = (
        bd.data_term
        + bd.y_prior
        + bd.v_prior
        + bd.alpha_prior
        + bd.mu_prior
        + bd.w_prior
        - bd.y_entropy_neg
        - bd.v_entropy_neg
        - bd.alpha_entropy_neg
        - bd.w_entropy_neg
    )
    assert bd.total == manual  # same accumulation order, exact


def test_total_increases_after_one_qy_update():
    # coordinate ascent from the all-prior state on random data
    from bsplda.engine import update_qy

    rng = np.random.default_rng(77)
    d, ny, m = 3, 2, 4
    prior = PriorConfig(
        variant=mdl.V1_WISHART_INFORMATIVE, mu0=0.0, beta=1.0, a_alpha=1.0, b_alpha=1.0,
        psi0=np.eye(d), nu_d=d + 2.0,
    ).validate(d, ny)
    from tests.test_elbo import v1_prior_state as _prior_state

    qv, qalpha = _prior_state(d, ny, prior)
    qv = QVtilde.from_precisions(mean=qv.mean + 0.5 * rng.standard_normal(qv.mean.shape), prec=qv.prec)
    qw = QWWishart.from_psi(psi=prior.psi0, nu=prior.nu_d)
    qy0 = qy_from_precisions(np.zeros((m, ny)), np.tile(np.eye(ny), (m, 1, 1)), np.arange(m))
    stats = stats_for(rng, m, d)
    before = elbo_total(stats, qy0, qv, qw, qalpha, prior).total
    qy1 = update_qy(stats, qv, qw)
    after = elbo_total(stats, qy1, qv, qw, qalpha, prior).total
    assert after > before


def test_total_invariant_under_speaker_relabeling():
    rng = np.random.default_rng(55)
    stats, qy, qv, qw, qalpha, prior = make_full_state(rng, mdl.V1_WISHART_INFORMATIVE, m=5)
    bd = elbo_total(stats, qy, qv, qw, qalpha, prior)
    perm = rng.permutation(5)
    stats_p = SuffStats(
        counts=stats.counts[perm], spk_sums=stats.spk_sums[perm], scatter_total=stats.scatter_total
    )
    qy_p = QY(mean=qy.mean[perm], cov=qy.cov, prec_logdets=qy.prec_logdets, group=qy.group[perm])
    bd_p = elbo_total(stats_p, qy_p, qv, qw, qalpha, prior)
    assert bd_p.total == pytest.approx(bd.total, rel=1e-9)
