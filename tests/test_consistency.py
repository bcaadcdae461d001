"""Cross-cutting consistency oracles.

Three independent ways of validating the bound and the updates together:
entropy terms against scipy.stats, single-factor perturbations around a
converged fixed point (each coordinate must be exactly optimal), and a
Monte-Carlo evaluation of the bound straight from its definition.
"""

import math

import numpy as np
import pytest
import scipy.stats
from dataclasses import replace

import bsplda.model as mdl
from bsplda.data import accumulate
from bsplda.elbo import elbo_total, elbo_v_alpha_mu_terms, elbo_w_terms, elbo_y_terms
from bsplda.engine import FitConfig, fit
from bsplda.model import ModelParams, PriorConfig
from bsplda.posterior import QAlpha, QVtilde, QWGamma, QWWishart
from bsplda.synth import GenSpec, sample
from tests.test_posterior import random_qv, random_qy, random_spd


class TestEntropyTermsAgainstScipy:
    def test_wishart_negative_entropy(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            psi = random_spd(rng, d, 0.4)
            nu = d + rng.uniform(0.5, 8.0)
            qw = QWWishart.from_psi(psi=psi, nu=nu)
            prior = PriorConfig(
                variant=mdl.V1_WISHART_INFORMATIVE, mu0=0.0, beta=1.0,
                a_alpha=1.0, b_alpha=1.0, psi0=np.eye(d), nu_d=d + 2.0,
            ).validate(d, 1)
            _, w_entropy_neg = elbo_w_terms(qw, prior)
            entropy = scipy.stats.wishart(df=nu, scale=psi).entropy()
            assert w_entropy_neg == pytest.approx(-float(entropy), rel=1e-9, abs=1e-9)

    def test_gamma_negative_entropies(self):
        rng = np.random.default_rng(2)
        d = 4
        b = rng.uniform(0.5, 3.0, size=d)
        qw = QWGamma(a=2.7, b=b, dim=d)
        prior = PriorConfig(
            variant=mdl.V2_GAMMA_DIAGONAL, mu0=0.0, beta=1.0,
            a_alpha=1.0, b_alpha=1.0, a_w=1.0, b_w=1.0,
        ).validate(d, 1)
        _, w_entropy_neg = elbo_w_terms(qw, prior)
        entropy = sum(scipy.stats.gamma(2.7, scale=1.0 / bi).entropy() for bi in b)
        assert w_entropy_neg == pytest.approx(-float(entropy), rel=1e-9)
        qa = QAlpha(a=1.3, b=rng.uniform(0.5, 3.0, size=3))
        qv = random_qv(rng, d, 3)
        prior3 = PriorConfig(
            variant=mdl.V2_GAMMA_DIAGONAL, mu0=0.0, beta=1.0,
            a_alpha=1.0, b_alpha=1.0, a_w=1.0, b_w=1.0,
        ).validate(d, 3)
        _, _, alpha_entropy_neg, _, _ = elbo_v_alpha_mu_terms(qv, qa, prior3)
        entropy = sum(scipy.stats.gamma(1.3, scale=1.0 / bi).entropy() for bi in qa.b)
        assert alpha_entropy_neg == pytest.approx(-float(entropy), rel=1e-9)

    def test_gaussian_negative_entropies(self):
        rng = np.random.default_rng(3)
        m, ny = 4, 2
        qy = random_qy(rng, m, ny)
        _, y_entropy_neg = elbo_y_terms(qy)
        entropy = sum(
            scipy.stats.multivariate_normal(mean=qy.mean[i], cov=qy.cov[qy.group[i]]).entropy()
            for i in range(m)
        )
        assert y_entropy_neg == pytest.approx(-float(entropy), rel=1e-9)
        d = 3
        qv = random_qv(rng, d, ny)
        prior = PriorConfig(
            variant=mdl.V4_GAUSSV_GAMMA_ISOTROPIC,
            v_row_means=np.zeros((d, ny + 1)),
            v_row_precisions=np.tile(np.eye(ny + 1), (d, 1, 1)),
            a_w=1.0, b_w=1.0,
        ).validate(d, ny)
        _, _, _, _, v_entropy_neg = elbo_v_alpha_mu_terms(qv, None, prior)
        entropy = sum(
            scipy.stats.multivariate_normal(mean=qv.mean[r], cov=qv.cov[r]).entropy()
            for r in range(d)
        )
        assert v_entropy_neg == pytest.approx(-float(entropy), rel=1e-9)


def converged_fit(variant, seed=0):
    rng = np.random.default_rng(seed)
    d, ny, m = 3, 2, 10
    params = ModelParams(mu=rng.normal(size=d), V=rng.normal(size=(d, ny)), W=np.eye(d))
    ds, part, _ = sample(GenSpec(params=params, counts=(4,) * m, seed=seed + 50))
    loading, arm = mdl.SCHEMES[variant]
    if loading.has_alpha:
        kwargs = dict(mu0=0.0, beta=1.0, a_alpha=1e-2, b_alpha=1e-2)
        if variant == mdl.V1_WISHART_INFORMATIVE:
            kwargs.update(psi0=np.eye(d), nu_d=d + 2.0)
        if not isinstance(arm, mdl.WishartArm):
            kwargs.update(a_w=1e-2, b_w=1e-2)
    else:
        kwargs = dict(
            v_row_means=0.2 * rng.normal(size=(d, ny + 1)),
            v_row_precisions=np.tile(np.eye(ny + 1), (d, 1, 1)),
        )
        if variant == mdl.V3_GAUSSV_WISHART:
            kwargs.update(psi0=np.eye(d), nu_d=d + 2.0)
        else:
            kwargs.update(a_w=1.0, b_w=1.0)
    prior = PriorConfig(variant=variant, **kwargs).validate(d, ny)
    state, _, report = fit(
        ds, part, prior, FitConfig(max_iterations=4000, elbo_rel_tol=1e-14, seed=seed), n_y=ny
    )
    stats = accumulate(ds, part)
    return state, stats, prior, report, ds, part


@pytest.mark.parametrize(
    "variant",
    [mdl.V1_WISHART_INFORMATIVE, mdl.V2_GAMMA_DIAGONAL, mdl.V3_GAUSSV_WISHART,
     mdl.V4_GAUSSV_GAMMA_ISOTROPIC],
)
def test_fixed_point_is_per_factor_optimal(variant):
    """No small perturbation of a single factor may raise the bound at convergence."""
    state, stats, prior, report, _, _ = converged_fit(variant)
    base = elbo_total(stats, state.qy, state.qv, state.qw, state.qalpha, prior).total
    rng = np.random.default_rng(99)
    slack = 1e-7 * abs(base)
    eps = 1e-3

    def check(new_state):
        perturbed = elbo_total(
            stats, new_state.qy, new_state.qv, new_state.qw, new_state.qalpha, prior
        ).total
        assert perturbed <= base + slack

    for _ in range(10):
        qy = replace(state.qy, means=state.qy.mean + eps * rng.normal(size=state.qy.mean.shape),
                     mean_scatter=None)
        check(replace(state, qy=qy))
        scale = 1.0 + eps * rng.uniform(-1, 1)  # of the precisions
        qy = replace(state.qy, cov=state.qy.cov / scale,
                     prec_logdets=state.qy.prec_logdets + state.qy.rank * math.log(scale))
        check(replace(state, qy=qy))
        qv = QVtilde.from_precisions(state.qv.mean + eps * rng.normal(size=state.qv.mean.shape),
                                     state.qv.prec)
        check(replace(state, qv=qv))
        qv = QVtilde.from_precisions(state.qv.mean, state.qv.prec * (1.0 + eps * rng.uniform(-1, 1)))
        check(replace(state, qv=qv))
        if isinstance(state.qw, QWWishart):
            qw = QWWishart.from_psi(psi=state.qw.psi * (1.0 + eps * rng.uniform(-1, 1)), nu=state.qw.nu)
            check(replace(state, qw=qw))
            qw = QWWishart.from_psi(psi=state.qw.psi, nu=state.qw.nu * (1.0 + eps * rng.uniform(-1, 1)))
            check(replace(state, qw=qw))
        else:
            qw = replace(state.qw, a=state.qw.a * (1.0 + eps * rng.uniform(-1, 1)))
            check(replace(state, qw=qw))
            qw = replace(state.qw, b=state.qw.b * (1.0 + eps * rng.uniform(-1, 1, size=state.qw.b.shape)))
            check(replace(state, qw=qw))
        if state.qalpha is not None:
            qa = QAlpha(a=state.qalpha.a * (1.0 + eps * rng.uniform(-1, 1)), b=state.qalpha.b)
            check(replace(state, qalpha=qa))
            qa = QAlpha(a=state.qalpha.a, b=state.qalpha.b * (1.0 + eps * rng.uniform(-1, 1, size=state.qalpha.b.shape)))
            check(replace(state, qalpha=qa))


def test_elbo_matches_monte_carlo_definition():
    """E_q[ln p(data, latents)] - E_q[ln q] estimated by sampling from q."""
    variant = mdl.V2_GAMMA_ISOTROPIC
    state, stats, prior, _, ds, part = converged_fit(variant, seed=7)
    base = elbo_total(stats, state.qy, state.qv, state.qw, state.qalpha, prior).total

    rng = np.random.default_rng(123)
    n = 400_000
    d, ny = stats.dim, state.qy.rank
    m = stats.n_speakers
    k = ny + 1

    # draws from every factor
    y = np.stack(
        [rng.multivariate_normal(state.qy.mean[i], state.qy.cov[state.qy.group[i]], size=n)
         for i in range(m)],
        axis=1,
    )  # (n, m, ny)
    rows = np.stack(
        [rng.multivariate_normal(state.qv.mean[r], state.qv.cov[r], size=n) for r in range(d)],
        axis=1,
    )  # (n, d, k)
    w = rng.gamma(state.qw.a, 1.0 / state.qw.b, size=n)
    alpha = rng.gamma(state.qalpha.a, 1.0 / state.qalpha.b, size=(n, ny))

    total = np.zeros(n)
    # data likelihood from per-speaker statistics
    for i in range(m):
        n_i = stats.counts[i]
        f_i = stats.spk_sums[i]
        s_i = float(np.sum(ds.vectors[part.assignment == i] ** 2))  # tr(S_i)
        yt = np.concatenate([y[:, i, :], np.ones((n, 1))], axis=1)
        g = np.einsum("nrk,nk->nr", rows, yt)  # Vt ytilde per sample
        quad = s_i - 2.0 * np.einsum("nr,r->n", g, f_i) + n_i * np.einsum("nr,nr->n", g, g)
        total += 0.5 * n_i * d * (np.log(w) - math.log(2 * math.pi)) - 0.5 * w * quad
    # latent prior
    total += np.sum(
        -0.5 * ny * math.log(2 * math.pi) - 0.5 * np.einsum("nmq,nmq->nm", y, y), axis=1
    )
    # column prior given alpha, and the alpha prior
    v_cols = rows[:, :, :ny]
    col_sq = np.einsum("nrq,nrq->nq", v_cols, v_cols)
    total += np.sum(
        0.5 * d * (np.log(alpha) - math.log(2 * math.pi)) - 0.5 * alpha * col_sq, axis=1
    )
    a0, b0 = prior.a_alpha, prior.b_alpha
    total += np.sum(
        a0 * math.log(b0) - scipy.special.gammaln(a0) + (a0 - 1.0) * np.log(alpha) - b0 * alpha,
        axis=1,
    )
    # mean prior
    mu_draw = rows[:, :, -1]
    total += np.sum(
        0.5 * (np.log(prior.beta) - math.log(2 * math.pi))[None, :]
        - 0.5 * prior.beta[None, :] * (mu_draw - prior.mu0[None, :]) ** 2,
        axis=1,
    )
    # precision prior
    aw, bw = prior.a_w, float(prior.b_w[0])
    total += aw * math.log(bw) - scipy.special.gammaln(aw) + (aw - 1.0) * np.log(w) - bw * w
    # minus log q for every factor
    for i in range(m):
        cov_i = state.qy.cov[state.qy.group[i]]
        total -= scipy.stats.multivariate_normal(state.qy.mean[i], cov_i).logpdf(y[:, i, :])
    for r in range(d):
        total -= scipy.stats.multivariate_normal(state.qv.mean[r], state.qv.cov[r]).logpdf(rows[:, r, :])
    total -= scipy.stats.gamma(state.qw.a, scale=1.0 / state.qw.b).logpdf(w)
    for q in range(ny):
        total -= scipy.stats.gamma(state.qalpha.a, scale=1.0 / state.qalpha.b[q]).logpdf(alpha[:, q])

    estimate = float(total.mean())
    se = float(total.std(ddof=1) / math.sqrt(n))
    assert abs(estimate - base) <= 4.0 * se, (
        f"MC bound {estimate:.4f} +- {se:.4f} vs analytic {base:.4f}"
    )
