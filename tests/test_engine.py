import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from dataclasses import replace

import bsplda.elbo as elbo
import bsplda.engine as engine
import bsplda.linalg as linalg
import bsplda.model as mdl
import bsplda.posterior as posterior
from bsplda.data import Dataset, SpeakerPartition, SuffStats, accumulate
from bsplda.elbo import elbo_data_term, elbo_total, elbo_y_terms
from bsplda.engine import (
    FitConfig,
    VariationalState,
    _hyperopt,
    _init_state,
    fit,
    fit_stats,
    heldout_bound,
    minimum_divergence,
    stored_bound,
    update_qalpha,
    update_qvtilde,
    update_qw,
    update_qy,
    whitening_rotation,
)
from bsplda.linalg import FactorizationError
from bsplda.model import ModelParams, PriorConfig
from bsplda.posterior import (
    QY, QAlpha, QVtilde, QWGamma, QWWishart, YAggregates, vtw_moments, y_aggregates,
)
from bsplda.synth import CounterRng, GenSpec, sample
from tests.test_posterior import qy_from_precisions, random_qv, random_qy, random_spd, stats_for


def point_qv(vt):
    d, k = vt.shape
    return QVtilde.from_precisions(mean=vt, prec=np.tile(1e14 * np.eye(k), (d, 1, 1)))


def v1_prior(d, variant=mdl.V1_WISHART_NONINFORMATIVE, **overrides):
    kwargs = dict(variant=variant, mu0=0.0, beta=1.0, a_alpha=1e-3, b_alpha=1e-3)
    if variant == mdl.V1_WISHART_INFORMATIVE:
        kwargs.update(psi0=np.eye(d), nu_d=d + 2.0)
    if variant in (mdl.V2_GAMMA_DIAGONAL, mdl.V2_GAMMA_ISOTROPIC):
        kwargs.update(a_w=1e-3, b_w=1e-3)
    kwargs.update(overrides)
    return PriorConfig(**kwargs)


class TestUpdateQY:
    def test_no_data_recovers_prior(self):
        stats = SuffStats(counts=np.array([0.0]), spk_sums=np.zeros((1, 2)), scatter_total=np.zeros((2, 2)))
        qv = random_qv(np.random.default_rng(0), 2, 2)
        qw = QWGamma(a=2.0, b=2.0, dim=2)
        qy = update_qy(stats, vtw_moments(qv, qw))
        np.testing.assert_allclose(qy.mean, np.zeros((1, 2)), atol=1e-12)
        np.testing.assert_allclose(qy.cov[0], np.eye(2), atol=1e-12)
        np.testing.assert_allclose(qy.prec_logdets, [0.0], atol=1e-12)

    def test_scalar_closed_form(self):
        # point-mass V=1, W=1, mu=0, F=8, N=4: L = 5, mean = 1.6
        stats = SuffStats(counts=np.array([4.0]), spk_sums=np.array([[8.0]]), scatter_total=np.array([[20.0]]))
        qv = point_qv(np.array([[1.0, 0.0]]))
        qw = QWGamma(a=1e14, b=1e14, dim=1)
        qy = update_qy(stats, vtw_moments(qv, qw))
        assert qy.cov[0, 0, 0] == pytest.approx(0.2, rel=1e-9)
        assert qy.prec_logdets[0] == pytest.approx(math.log(5.0), rel=1e-9)
        assert qy.mean[0, 0] == pytest.approx(1.6, rel=1e-9)

    def test_conjugate_gaussian_oracle(self):
        # frozen point-mass global factors: q(Y) must equal the exact conditional
        rng = np.random.default_rng(1)
        for _ in range(20):
            d, ny = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            params = ModelParams(mu=rng.normal(size=d), V=rng.normal(size=(d, ny)), W=random_spd(rng, d, 0.4))
            n_i = int(rng.integers(1, 6))
            x = rng.normal(size=(n_i, d))
            stats = SuffStats(counts=np.array([float(n_i)]), spk_sums=x.sum(axis=0)[None], scatter_total=x.T @ x)
            qv = point_qv(np.column_stack([params.V, params.mu]))
            qy = update_qy(stats, vtw_moments(qv, PointWArm(params.W)))
            prec_exact = np.eye(ny) + n_i * params.V.T @ params.W @ params.V
            mean_exact = np.linalg.solve(prec_exact, params.V.T @ params.W @ (x.sum(axis=0) - n_i * params.mu))
            np.testing.assert_allclose(qy.cov[0], np.linalg.inv(prec_exact), rtol=1e-10, atol=1e-10)
            assert qy.prec_logdets[0] == pytest.approx(np.linalg.slogdet(prec_exact)[1], rel=1e-10)
            np.testing.assert_allclose(qy.mean[0], mean_exact, rtol=1e-8, atol=1e-10)

    def test_large_count_limit_is_least_squares(self):
        rng = np.random.default_rng(2)
        d, ny = 4, 2
        params = ModelParams(mu=np.zeros(d), V=rng.normal(size=(d, ny)), W=np.eye(d))
        y_true = rng.normal(size=ny)
        n_i = 10_000
        noise = rng.normal(size=(n_i, d)) * 0.5
        x = params.V @ y_true + noise
        stats = SuffStats(counts=np.array([float(n_i)]), spk_sums=x.sum(axis=0)[None], scatter_total=x.T @ x)
        qv = point_qv(np.column_stack([params.V, params.mu]))
        qy = update_qy(stats, vtw_moments(qv, PointWArm(params.W)))
        lsq = np.linalg.lstsq(params.V, x.mean(axis=0), rcond=None)[0]
        np.testing.assert_allclose(qy.mean[0], lsq, atol=2e-3)


def per_speaker_qy_reference(stats, qv, wbar):
    """q(Y) and its aggregates speaker by speaker, straight from the definitions."""
    ny = qv.rank
    k = ny + 1
    evtwvt = np.einsum("r,rab->ab", np.diag(wbar), qv.cov) + qv.mean.T @ wbar @ qv.mean
    means, covs, logdets = [], [], []
    c, r, rho = np.zeros((stats.dim, k)), np.zeros((k, k)), np.zeros((ny, ny))
    for n_i, f_i in zip(stats.counts, stats.spk_sums):
        prec = np.eye(ny) + n_i * evtwvt[:ny, :ny]
        mean = np.linalg.solve(prec, qv.V.T @ wbar @ f_i - n_i * evtwvt[:ny, ny])
        cov = np.linalg.inv(prec)
        second = np.zeros((k, k))
        second[:ny, :ny] = cov + np.outer(mean, mean)
        second[:ny, ny] = second[ny, :ny] = mean
        second[ny, ny] = 1.0
        c += np.outer(f_i, np.append(mean, 1.0))
        r += n_i * second
        rho += second[:ny, :ny]
        means.append(mean)
        covs.append(cov)
        logdets.append(np.linalg.slogdet(prec)[1])
    m = stats.n_speakers
    y_prior = -0.5 * m * ny * math.log(2 * math.pi) - 0.5 * np.trace(rho)
    y_entropy_neg = -0.5 * m * ny * (math.log(2 * math.pi) + 1.0) + 0.5 * sum(logdets)
    return np.array(means), np.array(covs), c, r, rho, (y_prior, y_entropy_neg)


@pytest.mark.parametrize("mix", ["all-equal", "all-distinct", "one-to-1e4"])
def test_grouped_qy_matches_per_speaker_reference(mix):
    rng = np.random.default_rng(["all-equal", "all-distinct", "one-to-1e4"].index(mix))
    d, ny = 5, 3
    if mix == "all-equal":
        counts = np.full(40, 7)
    elif mix == "all-distinct":
        counts = rng.permutation(np.arange(1, 301))  # more speakers than one block of means
    else:
        counts = np.round(10.0 ** rng.uniform(0, 4, size=600)).astype(int)
        counts[:2] = (1, 10_000)
    vectors = rng.normal(size=(int(counts.sum()), d)) + rng.normal(size=d)
    assignment = rng.permutation(np.repeat(np.arange(counts.size), counts))
    dataset = Dataset(vectors=vectors, ids=tuple(range(vectors.shape[0])))
    stats = accumulate(dataset, SpeakerPartition(assignment=assignment, n_speakers=counts.size))
    qv = random_qv(rng, d, ny)
    qw = QWWishart.from_psi(psi=random_spd(rng, d, 0.05), nu=d + 4.0)

    qy = update_qy(stats, vtw_moments(qv, qw))
    aggs = y_aggregates(qy, stats)
    y_terms = elbo_y_terms(qy)
    means, covs, c, r, rho, ref_terms = per_speaker_qy_reference(stats, qv, qw.mean)

    def close(got, want):
        scale = max(float(np.abs(want).max()), 1.0)
        assert np.abs(np.asarray(got) - want).max() <= 1e-12 * scale

    close(qy.mean, means)
    close(qy.cov[qy.group], covs)
    close(aggs.C, c)
    close(aggs.R, r)
    close(qy.second_moment_sum, rho)
    close(y_terms, ref_terms)
    # layout: one covariance per distinct count, no M x d x d statistics
    assert qy.cov.shape[0] == np.unique(counts).size
    assert all(np.ndim(value) <= 2 for value in vars(stats).values())


def counted_cholesky(monkeypatch):
    """Record the shape of every np.linalg.cholesky call: one per factorization, since
    linalg is the one module of the package that calls it."""
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def test_qy_with_rank_deficient_quadratic_matches_per_speaker_reference(monkeypatch):
    # loading column 1 is a point mass at 0 (zero mean, zero covariance), so
    # A = E[V^T W V] has an exactly zero row and column
    rng = np.random.default_rng(12)
    d, ny = 6, 3
    counts = np.round(10.0 ** rng.uniform(0, 4, size=200)).astype(int)
    counts[:2] = (1, 10_000)
    stats = SuffStats(counts=counts.astype(float), spk_sums=rng.normal(size=(counts.size, d)),
                      scatter_total=random_spd(rng, d))
    cov = np.stack([np.linalg.inv(random_spd(rng, ny + 1)) for _ in range(d)])
    cov[:, 1, :] = cov[:, :, 1] = 0.0
    mean = rng.normal(size=(d, ny + 1))
    mean[:, 1] = 0.0
    qv = QVtilde(mean=mean, prec=np.tile(np.eye(ny + 1), (d, 1, 1)), cov=cov, prec_logdets=np.zeros(d))
    qw = QWWishart.from_psi(psi=random_spd(rng, d, 0.05), nu=d + 4.0)
    evtwv = vtw_moments(qv, qw)[1][:ny, :ny]
    assert not evtwv[1].any() and not evtwv[:, 1].any()

    calls = counted_cholesky(monkeypatch)
    qy = update_qy(stats, vtw_moments(qv, qw))
    qy.cov, qy.prec_logdets  # what the aggregates and the bound read
    assert calls == []  # one eigendecomposition, no factorization per group
    means, covs, _, _, _, ref_terms = per_speaker_qy_reference(stats, qv, qw.mean)
    for got, want in ((qy.mean, means), (qy.cov[qy.group], covs), (elbo_y_terms(qy), ref_terms)):
        want = np.asarray(want)
        assert np.abs(np.asarray(got) - want).max() <= 1e-12 * max(float(np.abs(want).max()), 1.0)
    np.testing.assert_array_equal(qy.mean[:, 1], 0.0)


def test_qy_rejects_a_precision_that_is_not_positive_definite():
    # a negative W direction makes A = V^T W V indefinite, diag(1, -0.5) up to the
    # point-mass covariances; I + N A is positive definite for N = 1 but not for N = 1000
    d = ny = 2
    qv = point_qv(np.column_stack([np.eye(d), np.zeros(d)]))
    qw = PointWArm(np.diag([1.0, -0.5]))
    rng = np.random.default_rng(13)

    def stats_with(counts):
        return SuffStats(counts=np.array(counts), spk_sums=rng.normal(size=(len(counts), d)),
                         scatter_total=np.eye(d))

    update_qy(stats_with([1.0, 1.0]), vtw_moments(qv, qw))
    with pytest.raises(FactorizationError):
        update_qy(stats_with([1.0, 1000.0]), vtw_moments(qv, qw))


class PointWArm:
    def __init__(self, w):
        self._w = np.asarray(w, dtype=float)

    @property
    def mean(self):
        return self._w

    @property
    def mean_diag(self):
        return np.diag(self._w)

    @property
    def mean_logdet(self):
        return float(np.linalg.slogdet(self._w)[1])


class TestUpdateQVtilde:
    def test_no_data_recovers_prior_v1(self):
        d, ny = 3, 2
        k = ny + 1
        prior = v1_prior(d, mu0=np.array([0.5, -1.0, 2.0]), beta=np.array([1.0, 2.0, 3.0])).validate(d, ny)
        qalpha = QAlpha(a=prior.a_alpha, b=np.full(ny, prior.b_alpha))
        from bsplda.posterior import YAggregates

        aggs = YAggregates(C=np.zeros((d, k)), R=np.zeros((k, k)))
        qv0 = random_qv(np.random.default_rng(3), d, ny)
        qw = QWWishart.from_psi(psi=np.eye(d) / (d + 2.0), nu=d + 2.0)
        qv = update_qvtilde(aggs, qv0, qw, prior, qalpha)
        for r in range(d):
            np.testing.assert_allclose(qv.mean[r], np.append(np.zeros(ny), prior.mu0[r]), atol=1e-12)
            np.testing.assert_allclose(qv.prec[r], np.diag(np.append(qalpha.mean, prior.beta[r])), atol=1e-12)

    def test_no_data_recovers_prior_v3(self):
        rng = np.random.default_rng(4)
        d, ny = 2, 2
        k = ny + 1
        means = rng.normal(size=(d, k))
        precs = np.stack([random_spd(rng, k) for _ in range(d)])
        prior = PriorConfig(variant=mdl.V3_GAUSSV_WISHART, v_row_means=means, v_row_precisions=precs,
                            psi0=np.eye(d), nu_d=d + 2.0).validate(d, ny)
        from bsplda.posterior import YAggregates

        aggs = YAggregates(C=np.zeros((d, k)), R=np.zeros((k, k)))
        qw = QWWishart.from_psi(np.eye(d), d + 2.0)
        qv = update_qvtilde(aggs, random_qv(rng, d, ny), qw, prior, None)
        np.testing.assert_allclose(qv.mean, means, atol=1e-10)
        np.testing.assert_allclose(qv.prec, precs, atol=1e-10)

    def test_coupled_equals_factored_for_diagonal_w(self):
        rng = np.random.default_rng(5)
        d, ny = 4, 2
        k = ny + 1
        stats = stats_for(rng, 3, d)
        qy = random_qy(rng, 3, ny)
        aggs = y_aggregates(qy, stats)
        qv0 = random_qv(rng, d, ny)
        qalpha = QAlpha(a=1.5, b=rng.uniform(0.5, 2.0, size=ny))
        wdiag = rng.uniform(0.5, 2.0, size=d)
        prior_coupled = v1_prior(d, mdl.V1_WISHART_INFORMATIVE).validate(d, ny)
        prior_fact = v1_prior(d, mdl.V2_GAMMA_DIAGONAL).validate(d, ny)
        # same diagonal W presented as a Wishart mean and as a Gamma mean
        qw_full = PointWArm(np.diag(wdiag))
        a = 100.0
        qw_diag = QWGamma(a=a, b=a / wdiag, dim=d)
        coupled = update_qvtilde(aggs, qv0, qw_full, prior_coupled, qalpha)
        factored = update_qvtilde(aggs, qv0, qw_diag, prior_fact, qalpha)
        np.testing.assert_allclose(coupled.mean, factored.mean, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(coupled.prec, factored.prec, rtol=1e-9, atol=1e-9)

    def test_factored_matches_direct_solve(self):
        # d=1, ny=1: one 2x2 linear system checked by hand
        rng = np.random.default_rng(6)
        stats = stats_for(rng, 2, 1)
        qy = random_qy(rng, 2, 1)
        aggs = y_aggregates(qy, stats)
        prior = v1_prior(1, mdl.V2_GAMMA_DIAGONAL, mu0=0.7, beta=2.0).validate(1, 1)
        qalpha = QAlpha(a=2.0, b=np.array([4.0]))
        qw = QWGamma(a=3.0, b=np.array([1.5]), dim=1)
        qv = update_qvtilde(aggs, random_qv(rng, 1, 1), qw, prior, qalpha)
        wrr = qw.mean_diag[0]
        prec = np.diag([qalpha.mean[0], prior.beta[0]]) + wrr * aggs.R
        rhs = wrr * aggs.C[0] + np.array([0.0, prior.beta[0] * prior.mu0[0]])
        np.testing.assert_allclose(qv.prec[0], prec, rtol=1e-12)
        np.testing.assert_allclose(qv.mean[0], np.linalg.solve(prec, rhs), rtol=1e-10)

    def test_v3_reproduces_v1_update_given_matched_priors(self):
        rng = np.random.default_rng(7)
        d, ny = 3, 2
        k = ny + 1
        stats = stats_for(rng, 4, d)
        qy = random_qy(rng, 4, ny)
        aggs = y_aggregates(qy, stats)
        qv0 = random_qv(rng, d, ny)
        qw = QWWishart.from_psi(psi=random_spd(rng, d, 0.2), nu=d + 5.0)
        qalpha = QAlpha(a=2.0, b=rng.uniform(0.5, 2.0, size=ny))
        beta = rng.uniform(0.5, 2.0, size=d)
        prior1 = v1_prior(d, mdl.V1_WISHART_INFORMATIVE, mu0=0.0, beta=beta).validate(d, ny)
        row_means = np.zeros((d, k))
        row_precs = np.stack([np.diag(np.append(qalpha.mean, beta[r])) for r in range(d)])
        prior3 = PriorConfig(variant=mdl.V3_GAUSSV_WISHART, v_row_means=row_means,
                             v_row_precisions=row_precs, psi0=np.eye(d), nu_d=d + 2.0).validate(d, ny)
        out1 = update_qvtilde(aggs, qv0, qw, prior1, qalpha)
        out3 = update_qvtilde(aggs, qv0, qw, prior3, None)
        np.testing.assert_allclose(out1.mean, out3.mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(out1.prec, out3.prec, rtol=1e-10, atol=1e-12)

    def test_coupled_sweep_does_not_decrease_elbo(self):
        rng = np.random.default_rng(8)
        d, ny = 2, 1
        stats = stats_for(rng, 3, d)
        prior = v1_prior(d, mdl.V1_WISHART_INFORMATIVE).validate(d, ny)
        qalpha = QAlpha(a=1.0, b=np.ones(ny))
        qw = QWWishart.from_psi(psi=random_spd(rng, d, 0.2), nu=d + 4.0)
        qy = random_qy(rng, 3, ny)
        qv0 = random_qv(rng, d, ny)
        before = elbo_total(stats, qy, qv0, qw, qalpha, prior).total
        qv1 = update_qvtilde(y_aggregates(qy, stats), qv0, qw, prior, qalpha)
        after = elbo_total(stats, qy, qv1, qw, qalpha, prior).total
        assert after >= before - 1e-8 * abs(before)


def row_prior_reference(prior, qalpha, row):
    """(L0, L0 m0) of one loading row, from the prior's fields: the row prior of
    V3/V4, or diag(E[alpha], beta_r) and the mean (0, mu0_r) of V1/V2."""
    if qalpha is None:
        l0 = prior.v_row_precisions[row]
        return l0, l0 @ prior.v_row_means[row]
    l0 = np.diag(np.append(qalpha.mean, prior.beta[row]))
    return l0, l0 @ np.append(np.zeros(qalpha.mean.size), prior.mu0[row])


def per_row_solve_reference(aggregates, qv, qw, prior, qalpha):
    """The row update as one Cholesky solve per row, rows swept in ascending order.

    With diagonal W the coupling term is exactly zero and the sweep reduces to
    independent row solves.
    """
    d, k = qv.mean.shape
    wbar = qw.mean
    c, r_yt = aggregates.C, aggregates.R
    means = qv.mean.copy()
    precs = np.empty((d, k, k))
    cross = c - means @ r_yt
    for row in range(d):
        prior_prec, prior_rhs = row_prior_reference(prior, qalpha, row)
        coupling = wbar[row] @ cross - wbar[row, row] * cross[row]
        rhs = prior_rhs + wbar[row, row] * c[row] + coupling
        prec = prior_prec + wbar[row, row] * r_yt
        precs[row] = 0.5 * (prec + prec.T)
        chol = scipy.linalg.cholesky(precs[row], lower=True)
        means[row] = scipy.linalg.cho_solve((chol, True), rhs)
        cross[row] = c[row] - means[row] @ r_yt
    return means, precs


def row_update_problem(variant, rng, d=12, ny=3):
    """(aggregates, qv0, qw, prior, qalpha) with one ARD or row-prior precision near 1e10."""
    k = ny + 1
    aggs = y_aggregates(random_qy(rng, 20, ny), stats_for(rng, 20, d))
    qv0 = random_qv(rng, d, ny)
    qalpha = QAlpha(a=2.0, b=np.array([2e-10, 0.5, 1.0]))  # E[alpha] = 1e10, 4, 2
    if isinstance(mdl.SCHEMES[variant][1], mdl.WishartArm):
        qw = QWWishart.from_psi(psi=random_spd(rng, d, 0.05), nu=d + 5.0)
        arm_prior = dict(psi0=np.eye(d), nu_d=d + 2.0)
    else:
        qw = QWGamma(a=50.0, b=rng.uniform(10.0, 100.0, size=d), dim=d)
        arm_prior = dict(a_w=50.0, b_w=qw.b)
    if not mdl.SCHEMES[variant][0].has_alpha:  # the row-prior (adaptation) schemes
        precs = np.stack([random_spd(rng, k) for _ in range(d)])
        precs[3, 1, 1] += 1e10
        prior = PriorConfig(variant=variant, v_row_means=rng.normal(size=(d, k)),
                            v_row_precisions=precs, **arm_prior)
        qalpha = None
    else:
        prior = v1_prior(d, variant)
    return aggs, qv0, qw, prior.validate(d, ny), qalpha


@pytest.mark.parametrize(
    "variant, d",
    [pytest.param(variant, 12, id=variant) for variant in (
        mdl.V1_WISHART_INFORMATIVE, mdl.V2_GAMMA_DIAGONAL, mdl.V3_GAUSSV_WISHART,
        mdl.V4_GAUSSV_GAMMA_DIAGONAL)]
    + [pytest.param(mdl.V3_GAUSSV_WISHART, 40, id="V3-GaussV-Wishart-d40")],
)
def test_row_update_matches_per_row_solve(variant, d, monkeypatch):
    rng = np.random.default_rng(mdl.VARIANTS.index(variant))
    aggs, qv0, qw, prior, qalpha = row_update_problem(variant, rng, d)
    ref_mean, ref_prec = per_row_solve_reference(aggs, qv0, qw, prior, qalpha)

    calls = counted_cholesky(monkeypatch)
    qv = update_qvtilde(aggs, qv0, qw, prior, qalpha)
    qv.cov, qv.prec_logdets  # what update_qw and the bound read
    # the row-prior schemes factorize their d row precisions in one batch; the
    # ARD schemes eigendecompose one k x k matrix and factorize nothing
    assert calls == ([] if mdl.SCHEMES[variant][0].has_alpha else [ref_prec.shape])

    np.testing.assert_array_equal(qv.prec, ref_prec)
    assert np.max(np.abs(qv.mean - ref_mean)) <= 1e-12 * np.max(np.abs(ref_mean))
    assert np.max(qv.prec) > 1e9


@pytest.mark.parametrize("d", [2, 5, 60])
def test_arm_row_means_agree_bit_for_bit_on_a_diagonal_w(d):
    # the Gauss-Seidel sweep of the Wishart arms meets only exact zeros off the
    # diagonal of E[W], so it returns the decoupled solve's bits
    rng = np.random.default_rng(d)
    k = 4
    wbar = np.diag(rng.uniform(0.1, 10.0, size=d))
    cov = np.stack([np.linalg.inv(random_spd(rng, k)) for _ in range(d)])
    args = (wbar, rng.normal(size=(d, k)), random_spd(rng, k), rng.normal(size=(d, k)), cov,
            rng.normal(size=(d, k)))
    want = mdl.GAMMA_DIAGONAL.row_means(*args)
    for arm in (mdl.WISHART, mdl.FLAT_WISHART, mdl.GAMMA_ISOTROPIC):
        np.testing.assert_array_equal(arm.row_means(*args), want)
    dense = wbar + 1e-3 * random_spd(rng, d)  # a full W couples the rows
    args = (dense,) + args[1:]
    assert not np.array_equal(mdl.WISHART.row_means(*args), mdl.GAMMA_DIAGONAL.row_means(*args))


@pytest.mark.parametrize("variant", [mdl.V1_WISHART_INFORMATIVE, mdl.V2_GAMMA_DIAGONAL],
                         ids=["coupled", "decoupled"])
def test_row_update_rejects_indefinite_precision(variant):
    # R = diag(1, -50, 1) makes every row precision indefinite; neither arm
    # regularizes it, both signal a numerical failure (exit 3 from the CLI)
    d, ny = 3, 2
    rng = np.random.default_rng(mdl.VARIANTS.index(variant))
    aggs = YAggregates(C=rng.normal(size=(d, ny + 1)), R=np.diag([1.0, -50.0, 1.0]))
    qalpha = QAlpha(a=2.0, b=np.ones(ny))
    if variant == mdl.V1_WISHART_INFORMATIVE:
        qw = QWWishart.from_psi(psi=np.eye(d) / (d + 2.0), nu=d + 2.0)
    else:
        qw = QWGamma(a=2.0, b=np.full(d, 2.0), dim=d)
    prior = v1_prior(d, variant).validate(d, ny)
    with pytest.raises(FactorizationError):
        update_qvtilde(aggs, random_qv(rng, d, ny), qw, prior, qalpha)


def ard_row_problem(variant, rng, d=40):
    """(aggregates, qv0, qw, prior, qalpha): E[alpha] spans e^-3 to 1e10 and
    every row has its own beta, from 1e-2 to 1e3, so the mean coordinates'
    Schur complements differ from row to row."""
    ny = 6
    aggs = y_aggregates(random_qy(rng, 30, ny), stats_for(rng, 30, d))
    e_alpha = np.array([math.exp(-3.0), 1.0, 10.0, 1e3, 1e6, 1e10])
    qalpha = QAlpha(a=2.0, b=2.0 / e_alpha)
    beta = 10.0 ** rng.uniform(-2.0, 3.0, size=d)
    beta[:3] = (1e-2, 1e3, 1.0)
    if isinstance(mdl.SCHEMES[variant][1], mdl.WishartArm):
        qw = QWWishart.from_psi(psi=random_spd(rng, d, 0.05), nu=d + 5.0)
    else:
        qw = QWGamma(a=50.0, b=rng.uniform(10.0, 100.0, size=d), dim=d)
    prior = v1_prior(d, variant, beta=beta).validate(d, ny)
    return aggs, random_qv(rng, d, ny), qw, prior, qalpha


# betas that are small against w N or span many decades, and an E[alpha] far
# below w R: the pencil sees only the loading block, beta only the Schur complement
VAGUE_BETA = np.full(40, 1e-12)
MIXED_BETA = np.append(1e160, np.ones(39))
TINY_MIXED_BETA = np.append(1e-200, np.ones(39))
VAGUE_ALPHA = np.array([1e-12, 1.0, 10.0, 1e3, 1e6, 1e10])


@pytest.mark.parametrize("variant, beta, e_alpha", [
    pytest.param(mdl.V1_WISHART_INFORMATIVE, None, None, id="coupled"),
    pytest.param(mdl.V2_GAMMA_DIAGONAL, None, None, id="decoupled"),
    pytest.param(mdl.V1_WISHART_INFORMATIVE, VAGUE_BETA, None, id="coupled-vague-beta"),
    pytest.param(mdl.V2_GAMMA_DIAGONAL, VAGUE_BETA, None, id="decoupled-vague-beta"),
    pytest.param(mdl.V1_WISHART_INFORMATIVE, MIXED_BETA, None, id="coupled-mixed-beta"),
    pytest.param(mdl.V2_GAMMA_DIAGONAL, MIXED_BETA, None, id="decoupled-mixed-beta"),
    pytest.param(mdl.V1_WISHART_INFORMATIVE, TINY_MIXED_BETA, None, id="coupled-tiny-mixed-beta"),
    pytest.param(mdl.V2_GAMMA_DIAGONAL, TINY_MIXED_BETA, None, id="decoupled-tiny-mixed-beta"),
    pytest.param(mdl.V1_WISHART_INFORMATIVE, None, VAGUE_ALPHA, id="coupled-vague-alpha"),
    pytest.param(mdl.V2_GAMMA_DIAGONAL, None, VAGUE_ALPHA, id="decoupled-vague-alpha"),
])
def test_ard_row_inverses_match_batched_cholesky(variant, beta, e_alpha):
    rng = np.random.default_rng(mdl.VARIANTS.index(variant) + 20)
    aggs, qv0, qw, prior, qalpha = ard_row_problem(variant, rng)
    if beta is not None:
        prior = replace(prior, beta=beta)
    if e_alpha is not None:
        qalpha = QAlpha(a=2.0, b=2.0 / e_alpha)
    qv = update_qvtilde(aggs, qv0, qw, prior, qalpha)
    ref_cov, ref_logdets = linalg.spd_inverse_logdet(qv.prec)
    for cov, ref in zip(qv.cov, ref_cov):
        assert np.abs(cov - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.abs(qv.prec_logdets - ref_logdets).max() <= 1e-9
    np.testing.assert_array_equal(qv.cov, np.swapaxes(qv.cov, 1, 2))
    ref_mean, _ = per_row_solve_reference(aggs, qv0, qw, prior, qalpha)
    assert np.abs(qv.mean - ref_mean).max() <= 1e-10 * np.abs(ref_mean).max()


@pytest.mark.parametrize("variant", [mdl.V1_WISHART_INFORMATIVE, mdl.V2_GAMMA_DIAGONAL],
                         ids=["coupled", "decoupled"])
def test_ard_row_inverses_reject_an_indefinite_mean_schur_complement(variant):
    # E[W] = I, E[alpha] = 2 and R = diag(1, 1, -0.5): every loading block
    # 2 I + R_yy is positive definite, and the mean coordinate's Schur complement
    # is s_r = beta_r - 0.5. It is positive for beta = (1, 100), so those rows
    # pass, and negative for beta_0 = 0.01, so only s_0 finds row 0 indefinite.
    d, ny = 2, 2
    rng = np.random.default_rng(mdl.VARIANTS.index(variant))
    aggs = YAggregates(C=rng.normal(size=(d, ny + 1)), R=np.diag([1.0, 1.0, -0.5]))
    qalpha = QAlpha(a=2.0, b=np.ones(ny))
    if variant == mdl.V1_WISHART_INFORMATIVE:
        qw = QWWishart.from_psi(psi=np.eye(d) / (d + 2.0), nu=d + 2.0)
    else:
        qw = QWGamma(a=2.0, b=np.full(d, 2.0), dim=d)
    prior = v1_prior(d, variant, beta=np.array([0.01, 100.0])).validate(d, ny)
    assert np.linalg.eigvalsh(np.diag([2.0, 2.0]) + aggs.R[:-1, :-1]).min() > 0.0
    assert np.linalg.eigvalsh(np.diag([2.0, 2.0, 0.01]) + aggs.R).min() < 0.0
    update_qvtilde(aggs, random_qv(rng, d, ny), qw, replace(prior, beta=np.array([1.0, 100.0])), qalpha)
    with pytest.raises(FactorizationError):
        update_qvtilde(aggs, random_qv(rng, d, ny), qw, prior, qalpha)


@pytest.mark.parametrize("variant", [
    mdl.V1_WISHART_INFORMATIVE, mdl.V2_GAMMA_DIAGONAL, mdl.V3_GAUSSV_WISHART,
    mdl.V4_GAUSSV_GAMMA_DIAGONAL])
def test_row_precisions_are_the_prior_part_plus_weighted_r(variant):
    # bit for bit: L0_r + E[W]_rr R, the ARD rows with a beta of their own
    rng = np.random.default_rng(mdl.VARIANTS.index(variant) + 40)
    if mdl.SCHEMES[variant][0].has_alpha:
        aggs, qv0, qw, prior, qalpha = ard_row_problem(variant, rng)
    else:
        aggs, qv0, qw, prior, qalpha = row_update_problem(variant, rng)
    qv = update_qvtilde(aggs, qv0, qw, prior, qalpha)
    wdiag = np.diagonal(qw.mean)
    want = [row_prior_reference(prior, qalpha, r)[0] + wdiag[r] * aggs.R for r in range(qv.dim)]
    np.testing.assert_array_equal(qv.prec, np.stack(want))


def test_qy_precisions_are_identity_plus_count_times_quadratic():
    # the covariances and log-determinants of I + N_i A for every speaker,
    # A = E[V^T W V]; no precision is formed
    rng = np.random.default_rng(41)
    d, ny = 6, 4
    counts = np.array([1.0, 3.0, 3.0, 7.0, 50.0, 1.0, 1000.0])
    stats = SuffStats(counts=counts, spk_sums=rng.normal(size=(counts.size, d)),
                      scatter_total=random_spd(rng, d))
    qv = random_qv(rng, d, ny)
    qw = QWWishart.from_psi(psi=random_spd(rng, d, 0.05), nu=d + 4.0)
    qy = update_qy(stats, vtw_moments(qv, qw))
    quad = posterior.vtw_moments(qv, qw)[1][:ny, :ny]
    want = np.stack([np.eye(ny) + n * quad for n in counts])
    cov, logdets = np.linalg.inv(want), np.linalg.slogdet(want)[1]
    assert np.abs(qy.cov[qy.group] - cov).max() <= 1e-10 * np.abs(cov).max()
    assert np.abs(qy.prec_logdets[qy.group] - logdets).max() <= 1e-10 * np.abs(logdets).max()
    assert qy.cov.shape == (np.unique(counts).size, ny, ny)
    assert not hasattr(qy, "prec")


class TestUpdateQAlphaQW:
    def test_qalpha_substitution_example(self):
        qv = point_qv(np.zeros((10, 3)))
        # E[v_q^T v_q] = 2 for both columns
        vt = np.zeros((10, 3))
        vt[0, 0] = vt[0, 1] = math.sqrt(2.0)
        qv = point_qv(vt)
        prior = v1_prior(10).validate(10, 2)
        qa = update_qalpha(qv, prior)
        assert qa.a == pytest.approx(5.001, rel=1e-12)
        np.testing.assert_allclose(qa.b, [1.001, 1.001], rtol=1e-6)

    def test_qalpha_switchoff_and_ordering(self):
        rng = np.random.default_rng(9)
        d, ny = 6, 3
        vt = np.zeros((d, ny + 1))
        vt[:, 0] = 3.0   # large column
        vt[:, 1] = 0.5   # small column
        qv = point_qv(vt)
        prior = v1_prior(d).validate(d, ny)
        qa = update_qalpha(qv, prior)
        assert qa.b[2] == pytest.approx(prior.b_alpha, rel=1e-6)  # zero-norm column
        means = qa.mean
        assert means[2] > means[1] > means[0]  # E[alpha] inverse to column norms

    def test_qw_noninformative_scalar_example(self):
        stats = SuffStats(counts=np.array([10.0]), spk_sums=np.zeros((1, 1)), scatter_total=np.array([[5.0]]))
        qy = qy_from_precisions(np.zeros((1, 1)), np.full((1, 1, 1), 1e14), np.arange(1))
        qv = point_qv(np.zeros((1, 2)))
        aggs = y_aggregates(qy, stats)
        prior = v1_prior(1).validate(1, 1)
        qw = update_qw(stats, aggs, qv, prior)
        assert isinstance(qw, QWWishart)
        assert qw.nu == pytest.approx(10.0)
        assert qw.psi[0, 0] == pytest.approx(0.2, rel=1e-6)
        assert qw.mean[0, 0] == pytest.approx(2.0, rel=1e-6)

    def test_qw_informative_interpolation(self):
        rng = np.random.default_rng(10)
        d = 2
        stats = stats_for(rng, 3, d)
        qy = random_qy(rng, 3, 1)
        qv = random_qv(rng, d, 1)
        aggs = y_aggregates(qy, stats)
        psi0 = random_spd(rng, d, 0.3)
        prior = v1_prior(d, mdl.V1_WISHART_INFORMATIVE, psi0=psi0, nu_d=d + 3.0).validate(d, 1)
        qw = update_qw(stats, aggs, qv, prior)
        assert qw.nu == pytest.approx(prior.nu_d + stats.n_total)
        # E[Vt R Vt^T]: the row covariances meet R only on the diagonal
        evrvt = qv.mean @ aggs.R @ qv.mean.T + np.diag(np.einsum("rab,ab->r", qv.cov, aggs.R))
        k_mat = stats.scatter_total - aggs.C @ qv.mean.T - qv.mean @ aggs.C.T + evrvt
        expected_mean = qw.nu * np.linalg.inv(np.linalg.inv(psi0) + k_mat)
        np.testing.assert_allclose(qw.mean, expected_mean, rtol=1e-8)

    def test_qw_isotropic_shape(self):
        rng = np.random.default_rng(11)
        d = 3
        stats = stats_for(rng, 2, d)
        qy = random_qy(rng, 2, 1)
        qv = random_qv(rng, d, 1)
        prior = v1_prior(d, mdl.V2_GAMMA_ISOTROPIC, a_w=0.5, b_w=0.25).validate(d, 1)
        qw = update_qw(stats, y_aggregates(qy, stats), qv, prior)
        assert isinstance(qw, QWGamma) and qw.b.shape == (1,)
        assert qw.a == pytest.approx(0.5 + 0.5 * stats.n_total * d)

    def test_qw_noninformative_needs_enough_data(self):
        stats = SuffStats(counts=np.array([2.0]), spk_sums=np.zeros((1, 3)), scatter_total=np.eye(3))
        qy = qy_from_precisions(np.zeros((1, 1)), np.ones((1, 1, 1)), np.arange(1))
        qv = point_qv(np.zeros((3, 2)))
        prior = v1_prior(3).validate(3, 1)
        with pytest.raises(ValueError, match="requires N > d"):
            update_qw(stats, y_aggregates(qy, stats), qv, prior)


class TestResidualScatterCheck:
    """K is certified PSD by a Cholesky of K + tau I; eigvalsh decides only when that fails."""

    d = 50

    def scatter(self, k_mat, monkeypatch):
        """_residual_scatter with C = 0, R = 0, so K = S, then check_psd on that K;
        returns (K, eigvalsh calls)."""
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        d, k = self.d, 3
        stats = SuffStats(counts=np.zeros(0), spk_sums=np.zeros((0, d)), scatter_total=k_mat)
        aggs = YAggregates(C=np.zeros((d, k)), R=np.zeros((k, k)))
        out = engine._residual_scatter(stats, aggs, point_qv(np.ones((d, k))))
        linalg.check_psd(out, "residual scatter")
        return out, len(calls)

    def with_eigenvalues(self, low):
        # lambda_max = 1e4 and the rest 1: tau = 1e-8 tr K / d ~ 2.0e-6, floor = -1e-4
        eigs = np.ones(self.d)
        eigs[0], eigs[-1] = 1e4, low
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(self.d, self.d)))
        return (q * eigs) @ q.T

    def test_psd_scatter_is_certified_without_eigenvalues(self, monkeypatch):
        x = np.random.default_rng(1).normal(size=(self.d, 30))
        k_mat = x @ x.T  # PSD and singular
        out, eig_calls = self.scatter(k_mat, monkeypatch)
        assert eig_calls == 0
        np.testing.assert_array_equal(out, 0.5 * (k_mat + k_mat.T))

    def test_eigenvalues_decide_between_tau_and_the_floor(self, monkeypatch):
        _, eig_calls = self.scatter(self.with_eigenvalues(-1e-5), monkeypatch)
        assert eig_calls == 1

    def test_eigenvalue_below_the_floor_is_a_factorization_error(self, monkeypatch):
        with pytest.raises(FactorizationError, match="positive semidefiniteness"):
            self.scatter(self.with_eigenvalues(-1e-3), monkeypatch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scatter_is_a_numerical_failure(self, monkeypatch, bad):
        k_mat = np.eye(self.d)
        k_mat[3, 7] = bad
        with pytest.raises(FactorizationError, match="non-finite"):
            self.scatter(k_mat, monkeypatch)


class TestScatterCertificate:
    """A Wishart q(W) step certifies K with the factorization it makes anyway;
    the ladder of check_psd runs only when that certificate is not given."""

    d = 50

    def update(self, variant, k_mat, monkeypatch=None, **overrides):
        """update_qw with C = 0, R = 0, so K = S, from 2d vectors; with
        `monkeypatch`, returns (q(W), the Cholesky calls of the step alone)."""
        d, k = self.d, 3
        stats = SuffStats(counts=np.array([2.0 * d]), spk_sums=np.zeros((1, d)), scatter_total=k_mat)
        aggs = YAggregates(C=np.zeros((d, k)), R=np.zeros((k, k)))
        qv = point_qv(np.ones((d, k)))
        prior = v1_prior(d, variant, **overrides).validate(d, k - 1)
        if monkeypatch is None:
            return update_qw(stats, aggs, qv, prior)
        qv.cov, prior.psi0 is None or prior.psi0_inv_logdet  # once per factor and per prior
        calls = counted_cholesky(monkeypatch)
        return update_qw(stats, aggs, qv, prior), calls

    def k_with_min_eigenvalue(self, low):
        # lambda_max = 1e4 and the rest 1; the floor is -1e-8 * 1e4 = -1e-4
        eigs = np.ones(self.d)
        eigs[0], eigs[-1] = 1e4, low
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(self.d, self.d)))
        return (q * eigs) @ q.T

    @pytest.mark.parametrize("variant", [mdl.V1_WISHART_INFORMATIVE, mdl.V1_WISHART_NONINFORMATIVE])
    def test_certified_step_runs_one_factorization(self, variant, monkeypatch):
        x = np.random.default_rng(2).normal(size=(self.d, 3 * self.d))
        qw, calls = self.update(variant, x @ x.T, monkeypatch)
        assert calls == [(self.d, self.d)]
        if variant == mdl.V1_WISHART_INFORMATIVE:
            assert np.trace(qw.psi) <= 0.5  # tr(psi0^-1 psi) with psi0 = I

    @pytest.mark.parametrize("variant", [mdl.V1_WISHART_INFORMATIVE, mdl.V1_WISHART_NONINFORMATIVE,
                                         mdl.V2_GAMMA_DIAGONAL, mdl.V2_GAMMA_ISOTROPIC])
    @pytest.mark.parametrize("low", [-1e-3, -10.0], ids=["below-floor", "indefinite-update"])
    def test_eigenvalue_below_the_floor_is_a_factorization_error(self, variant, low):
        # at -10 the informative arm's psi0^-1 + K = I + K itself fails to
        # factorize; the ladder names the lost semidefiniteness before that error
        with pytest.raises(FactorizationError, match="positive semidefiniteness"):
            self.update(variant, self.k_with_min_eigenvalue(low))

    @pytest.mark.parametrize("variant", [mdl.V1_WISHART_INFORMATIVE, mdl.V1_WISHART_NONINFORMATIVE])
    def test_indefinite_update_above_the_schur_leaf_names_the_scatter(self, variant):
        # at d = 300 the update's inverse fails in a Schur leaf, not in one
        # Cholesky factorization; the ladder still names K
        self.d = 300
        assert self.d > linalg.SCHUR_LEAF
        with pytest.raises(FactorizationError, match="residual scatter lost positive semidefiniteness"):
            self.update(variant, self.k_with_min_eigenvalue(-10.0))

    def test_uncertified_informative_step_runs_the_ladder(self, monkeypatch):
        # psi0 = I and K = I: tr(psi0^-1 psi) = d / 2 > 1/2, so the update's
        # factor does not certify K and the ladder does
        qw, calls = self.update(mdl.V1_WISHART_INFORMATIVE, np.eye(self.d), monkeypatch)
        assert calls == [(self.d, self.d)] * 2  # psi0^-1 + K, then K + tau I
        assert np.trace(qw.psi) == pytest.approx(self.d / 2)


class TestAnnealing:
    """Tempering is a method of each factor; fit_stats applies it to every factor."""

    def factors(self, rng):
        d, ny, m = 3, 2, 4
        return dict(
            qy=random_qy(rng, m, ny),
            qv=random_qv(rng, d, ny),
            qw=QWWishart.from_psi(psi=random_spd(rng, d, 0.2), nu=d + 3.0),
            qalpha=QAlpha(a=2.0, b=rng.uniform(0.5, 2.0, size=ny)),
        )

    def every_factor_type(self, rng):
        factors = list(self.factors(rng).values()) + [
            QAlpha(a=0.1, b=np.array([0.3, 2.0])),  # where 1.0 * (a - 1) + 1 != a
            QWGamma(a=1.7, b=rng.uniform(0.5, 2.0, size=3), dim=3),
            QWGamma(a=0.1, b=0.4, dim=3),
        ]
        assert {type(f) for f in factors} == {QY, QVtilde, QAlpha, QWWishart, QWGamma}
        return factors

    def test_identity_at_kappa_one(self):
        assert 1.0 * (0.1 - 1.0) + 1.0 != 0.1
        for f in self.every_factor_type(np.random.default_rng(12)):
            assert f.anneal(1.0) is f

    def test_kappa_outside_unit_interval(self):
        for f in self.every_factor_type(np.random.default_rng(22)):
            for kappa in (0.0, -0.5, 1.5, math.nan):
                with pytest.raises(ValueError, match="kappa"):
                    f.anneal(kappa)

    def test_annealing_carries_the_inverse(self, monkeypatch):
        f = self.factors(np.random.default_rng(16))
        precisions = {"qy": linalg.spd_inverse_logdet(f["qy"].cov)[0], "qv": f["qv"].prec}
        for name in ("qy", "qv"):
            calls = counted_cholesky(monkeypatch)
            out = f[name].anneal(0.3)
            cov, logdets = out.cov, out.prec_logdets
            assert calls == []
            monkeypatch.undo()
            fresh_cov, fresh_logdets = linalg.spd_inverse_logdet(0.3 * precisions[name])
            for got, want in ((cov, fresh_cov), (logdets, fresh_logdets)):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_covariance_doubles_at_half(self):
        f = self.factors(np.random.default_rng(13))
        for name in ("qy", "qv"):
            out = f[name].anneal(0.5)
            np.testing.assert_array_equal(out.mean, f[name].mean)
            np.testing.assert_allclose(out.cov, 2.0 * f[name].cov, rtol=1e-10)
        np.testing.assert_array_equal(f["qy"].anneal(0.5).group, f["qy"].group)

    def test_wishart_dof_formula(self):
        d = 3
        out = QWWishart.from_psi(psi=np.eye(d), nu=d + 3.0).anneal(0.5)
        assert out.nu == pytest.approx(d + 2.0)
        np.testing.assert_allclose(out.psi, 2.0 * np.eye(d))

    def test_alpha_reshape(self):
        rng = np.random.default_rng(15)
        gammas = [
            self.factors(rng)["qalpha"],
            QWGamma(a=1.7, b=rng.uniform(0.5, 2.0, size=3), dim=3),
            QWGamma(a=2.5, b=0.4, dim=3),
        ]
        for f in gammas:
            out = f.anneal(0.25)
            assert type(out) is type(f)
            assert out.a == pytest.approx(0.25 * (f.a - 1.0) + 1.0)
            np.testing.assert_allclose(out.b, 0.25 * np.asarray(f.b))

    def test_dof_condition_violation(self):
        qw = QWWishart.from_psi(psi=np.eye(3), nu=2.5)
        # kappa (nu - d - 1) + 1 = kappa (-1.5) + 1 <= 0 for kappa >= 2/3
        with pytest.raises(ValueError):
            qw.anneal(0.9)


class TestMinimumDivergence:
    def make_pair(self, rng, m=6, ny=2, d=4, standard=False):
        if standard:
            qy = qy_from_precisions(np.zeros((m, ny)), np.tile(np.eye(ny), (m, 1, 1)), np.arange(m))
        else:
            qy = random_qy(rng, m, ny)
        return qy, random_qv(rng, d, ny)

    def test_identity_when_already_standard(self):
        rng = np.random.default_rng(17)
        m, ny = 5, 2
        means = np.concatenate([0.2 * rng.normal(size=(m - 1, ny)), np.zeros((1, ny))])
        means[-1] = -means[:-1].sum(axis=0)  # zero pooled mean
        # scale so pooled second moment is I: construct covariances accordingly
        pooled = means.T @ means / m
        cov = np.eye(ny) - pooled
        qy = QY(mean=means, cov=np.tile(cov, (m, 1, 1)),
                prec_logdets=np.full(m, -np.linalg.slogdet(cov)[1]), group=np.arange(m))
        qv = random_qv(rng, 3, ny)
        qy2, qv2, j_mat = minimum_divergence(qy, qv)
        np.testing.assert_allclose(j_mat, np.eye(ny + 1), atol=1e-8)
        np.testing.assert_allclose(qv2.mean, qv.mean, atol=1e-8)

    def test_mean_shift_moves_mu_column(self):
        rng = np.random.default_rng(18)
        m, ny, d = 64, 2, 3
        shift = np.array([0.8, -0.3])
        means = rng.normal(size=(m, ny)) * 0.0 + shift  # all means equal: Sigma_y from covariances
        qy = qy_from_precisions(means, np.tile(np.eye(ny), (m, 1, 1)), np.arange(m))
        qv = random_qv(rng, d, ny)
        _, qv2, j_mat = minimum_divergence(qy, qv)
        np.testing.assert_allclose(j_mat[:ny, -1], shift, atol=1e-10)
        np.testing.assert_allclose(qv2.mu, qv.mu + qv.V @ shift, rtol=1e-9, atol=1e-10)

    def test_standardizes_pooled_moments(self):
        rng = np.random.default_rng(19)
        qy, qv = self.make_pair(rng)
        qy2, qv2, _ = minimum_divergence(qy, qv)
        np.testing.assert_allclose(qy2.mean.mean(axis=0), 0.0, atol=1e-10)
        pooled = qy2.second_moment_sum / qy2.n_speakers
        assert np.abs(pooled - np.eye(qy.rank)).max() < 1e-8

    def test_transformed_qy_inverts_the_transformed_precisions(self):
        # q(Y') is formed from the covariances: L^-1 Sigma_g L^-T and
        # ln|P_g| + 2 ln|L|, the inverse of the transformed precision L^T P_g L
        rng = np.random.default_rng(24)
        for _ in range(200):
            m, ny, groups = int(rng.integers(2, 12)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
            prec = np.stack([random_spd(rng, ny, rng.uniform(0.1, 10.0)) for _ in range(groups)])
            qy = qy_from_precisions(rng.normal(size=(m, ny)), prec, rng.integers(0, groups, size=m))
            qy2, _, j_mat = minimum_divergence(qy, random_qv(rng, 2, ny))
            chol = j_mat[:ny, :ny]
            cov, logdets = linalg.spd_inverse_logdet(chol.T @ prec @ chol)
            np.testing.assert_array_equal(qy2.cov, np.swapaxes(qy2.cov, 1, 2))
            assert np.abs(qy2.cov - cov).max() <= 1e-12 * np.abs(cov).max()
            assert np.abs(qy2.prec_logdets - logdets).max() <= 1e-12 * max(np.abs(logdets).max(), 1.0)
            np.testing.assert_array_equal(qy2.group, qy.group)

    @pytest.mark.parametrize("d", [40, 300])
    def test_transformed_qv_inverts_the_transformed_precisions(self, d):
        # q(Vtilde') is formed from the covariances: J^T cov_r J and
        # ln|P_r| - 2 ln|L|, the inverse of the transformed precision G^T P_r G
        rng = np.random.default_rng(d)
        ny = 15
        _, qv2, _ = minimum_divergence(random_qy(rng, 50, ny), random_qv(rng, d, ny))
        ref = QVtilde.from_precisions(qv2.mean, qv2.prec)
        np.testing.assert_array_equal(qv2.cov, np.swapaxes(qv2.cov, 1, 2))
        assert np.abs(qv2.cov - ref.cov).max() <= 1e-12 * np.abs(ref.cov).max()
        logdets = ref.prec_logdets
        assert np.abs(qv2.prec_logdets - logdets).max() <= 1e-12 * np.abs(logdets).max()

    def test_data_term_invariant(self):
        rng = np.random.default_rng(20)
        m, ny, d = 6, 2, 4
        qy, qv = self.make_pair(rng, m=m, ny=ny, d=d)
        stats = stats_for(rng, m, d)
        qw = QWWishart.from_psi(psi=random_spd(rng, d, 0.2), nu=d + 4.0)
        before = elbo_data_term(stats, y_aggregates(qy, stats), qw, vtw_moments(qv, qw))
        qy2, qv2, _ = minimum_divergence(qy, qv)
        after = elbo_data_term(stats, y_aggregates(qy2, stats), qw, vtw_moments(qv2, qw))
        assert after == pytest.approx(before, rel=1e-9)

    def test_requires_multiple_speakers_and_nonsingular(self):
        rng = np.random.default_rng(21)
        qy, qv = self.make_pair(rng, m=1)
        with pytest.raises(ValueError):
            minimum_divergence(qy, qv)
        # identical degenerate means, tiny covariance: singular Sigma_y
        qy = qy_from_precisions(np.ones((3, 2)), np.tile(1e18 * np.eye(2), (3, 1, 1)), np.arange(3))
        with pytest.raises(FactorizationError):
            minimum_divergence(qy, random_qv(rng, 3, 2))


@pytest.mark.parametrize(
    "bad",
    [
        dict(elbo_rel_tol=math.nan),
        dict(elbo_rel_tol=0.0),
        dict(elbo_rel_tol=-1e-7),
        dict(elbo_rel_tol=math.inf),
        dict(hyperopt_every=-1),
        dict(mindiv_every=-1),
        dict(max_iterations=-1),
        dict(anneal_schedule=((1.5, 2), (1.0, 1))),
        dict(anneal_schedule=((0.0, 2), (1.0, 1))),
        dict(anneal_schedule=((0.5, 0), (1.0, 1))),
        dict(anneal_schedule=((0.5, 2), (0.8, 1))),
        dict(max_iterations=10.0),
        dict(max_iterations=math.nan),
        dict(hyperopt_every=2.5),
        dict(mindiv_every=0.5),
        dict(seed=1.0),
        dict(anneal_schedule=((0.5, 2.7), (1.0, 1))),
    ],
    ids=["tol-nan", "tol-zero", "tol-negative", "tol-inf", "hyperopt-negative", "mindiv-negative",
         "iterations-negative", "kappa-above-1", "kappa-zero", "span-zero", "schedule-ends-below-1",
         "iterations-float", "iterations-nan", "hyperopt-fraction", "mindiv-fraction", "seed-float",
         "span-fraction"],
)
def test_fit_config_rejects_invalid_values(bad):
    # a NaN tolerance never converges and an infinite one stops after two
    # sweeps at any change; a negative period fires every sweep, and a
    # fractional one at multiples of itself
    with pytest.raises(ValueError, match=next(iter(bad))):
        FitConfig(**bad)


def test_fit_config_rejects_a_budget_that_ends_tempered():
    # the final kappa = 1 span of this schedule starts at sweep 8; a fit that
    # stops before it would save tempered factors and a bound `elbo` cannot reproduce
    schedule = ((0.5, 5), (0.8, 2), (1.0, 1))
    for iterations in (1, 2, 7):
        with pytest.raises(ValueError, match="max_iterations .* starts at iteration 8"):
            FitConfig(max_iterations=iterations, anneal_schedule=schedule)
    for iterations in (0, 8, 9):
        assert FitConfig(max_iterations=iterations, anneal_schedule=schedule).kappa_for(8) == 1.0
    FitConfig(max_iterations=1, anneal_schedule=((1.0, 3),))


def synthetic_problem(rng_seed, d=4, ny=2, m=12, per=3, noise=1.0):
    rng = np.random.default_rng(rng_seed)
    params = ModelParams(mu=rng.normal(size=d), V=rng.normal(size=(d, ny)), W=noise * np.eye(d))
    return sample(GenSpec(params=params, counts=(per,) * m, seed=rng_seed))


@pytest.mark.parametrize("variant", [mdl.V1_WISHART_INFORMATIVE, mdl.V1_WISHART_NONINFORMATIVE,
                                     mdl.V2_GAMMA_DIAGONAL, mdl.V2_GAMMA_ISOTROPIC])
def test_fit_rebuilds_qw_as_the_model_reader_does(variant, tmp_path, monkeypatch):
    # the last bound of a fit reads the q(W) that read_qw builds from write_qw's
    # numbers, which is what `elbo` on the model file reads
    import bsplda.io as mio
    from functools import partial

    ds, part, _ = synthetic_problem(17, d=5, ny=2, m=30, per=4)
    stats = accumulate(ds, part)
    seen = []
    real = engine.stored_bound
    monkeypatch.setattr(engine, "stored_bound",
                        lambda stats, qv, qw, *rest: seen.append(qw) or real(stats, qv, qw, *rest))
    arm = mdl.SCHEMES[variant][1]
    if isinstance(arm, mdl.WishartArm):
        # a carried ln|psi| off in its last bits, which only a rebuild from psi corrects
        update = type(arm).update_qw

        def nudged(self, *args):
            qw = update(self, *args)
            return replace(qw, logdet_psi=qw.logdet_psi * (1.0 + 1e-14))

        monkeypatch.setattr(type(arm), "update_qw", nudged)
    state, _, report = fit_stats(stats, v1_prior(5, variant), FitConfig(max_iterations=6), 2)
    path = tmp_path / "qw.bin"
    with open(path, "wb") as f:
        arm.write_qw(state.qw, partial(mio._write_f64, f))
    with open(path, "rb") as f:
        want = arm.read_qw(partial(mio._read_finite, f), stats.dim)
    (got,) = seen
    assert type(got) is type(want)
    for field in ("psi", "nu", "logdet_psi") if isinstance(want, QWWishart) else ("a", "b", "dim"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    qv = QVtilde.from_precisions(state.qv.mean, state.qv.prec)
    assert report.elbo_trace[-1] == real(stats, qv, want, state.qalpha, report.final_prior).total


def duplicated_dimension_problem():
    """80 speakers x 5 vectors at d = 6 whose last dimension copies the first, so every
    scatter of the data is singular."""
    ds, part, _ = synthetic_problem(51, d=6, m=80, per=5)
    vectors = ds.vectors.copy()
    vectors[:, -1] = vectors[:, 0]
    return replace(ds, vectors=vectors), part


def test_rank_deficient_data_stops_the_flat_wishart_fit_at_its_qw_step(monkeypatch):
    # the flat arm's q(W) scale is the inverse of the residual scatter K, which
    # loses rank as the loading takes up the duplicated direction; the exact
    # step has no answer, and no ridge stands in for it
    ds, part = duplicated_dimension_problem()
    calls = []
    update = engine.update_qw
    monkeypatch.setattr(engine, "update_qw", lambda *args: calls.append(1) or update(*args))
    with pytest.raises(FactorizationError, match="not positive definite") as info:
        fit(ds, part, v1_prior(6), FitConfig(max_iterations=50, seed=1), n_y=2)
    assert any(entry.name == "spd_inverse_logdet" for entry in info.traceback)
    assert len(calls) < 50


@pytest.mark.parametrize("scale", [1e6, 1e-6])
@pytest.mark.parametrize("variant", [mdl.V1_WISHART_INFORMATIVE, mdl.V1_WISHART_NONINFORMATIVE,
                                     mdl.V2_GAMMA_DIAGONAL, mdl.V2_GAMMA_ISOTROPIC])
def test_fit_of_scaled_data_converges_with_an_ascending_bound(variant, scale):
    # data scaled by 1e6 or 1e-6: every bound term stays finite, no sweep
    # without an event before it lowers the bound beyond rounding, and the fit
    # converges within its budget
    ds, part, _ = synthetic_problem(71, d=20, ny=5, m=200, per=6)
    ds = replace(ds, vectors=scale * ds.vectors)
    mindiv_every = 10
    config = FitConfig(max_iterations=200, elbo_rel_tol=1e-9, mindiv_every=mindiv_every, seed=2)
    _, _, report = fit(ds, part, v1_prior(20, variant), config, n_y=5)
    assert all(math.isfinite(v) for bd in report.breakdown_trace for v in bd.as_dict().values())
    trace = report.elbo_trace
    for sweep in range(1, len(trace)):  # sweep and sweep + 1, 1-based
        if sweep % mindiv_every:
            assert trace[sweep - 1] - trace[sweep] <= 1e-12 * abs(trace[sweep - 1])
    # the slowest, V1-noninformative at 1e-6, converges at sweep 15 of 200
    assert report.converged


# two speakers of one vector and one each of 2 to 10^4, among 40 speakers of 5
SPREAD_COUNTS = (1, 1, 2, 3, 10, 100, 1000, 10_000) + (5,) * 40


@pytest.mark.parametrize("variant", [mdl.V1_WISHART_INFORMATIVE, mdl.V1_WISHART_NONINFORMATIVE,
                                     mdl.V2_GAMMA_DIAGONAL, mdl.V2_GAMMA_ISOTROPIC])
def test_fit_over_counts_from_one_to_ten_thousand(variant):
    # every bound term stays finite, no sweep of 500 without events lowers the
    # bound beyond rounding, and with MD every 10 sweeps the fit converges
    # within its budget (each variant at sweep 25 or 26 of 500)
    d, ny = 5, 4
    rng = np.random.default_rng(81)
    params = ModelParams(mu=rng.normal(size=d), V=rng.normal(size=(d, ny)), W=np.eye(d))
    ds, part, _ = sample(GenSpec(params=params, counts=SPREAD_COUNTS, seed=81))
    prior = v1_prior(d, variant)
    free = FitConfig(max_iterations=500, elbo_rel_tol=1e-300, seed=2)
    with_md = FitConfig(max_iterations=500, elbo_rel_tol=1e-7, mindiv_every=10, seed=2)
    reports = [fit(ds, part, prior, config, n_y=ny)[2] for config in (free, with_md)]
    for report in reports:
        assert all(math.isfinite(v) for bd in report.breakdown_trace for v in bd.as_dict().values())
    trace = reports[0].elbo_trace
    assert len(trace) == 500
    assert all(prev - cur <= 1e-12 * abs(prev) for prev, cur in zip(trace, trace[1:]))
    assert reports[1].converged


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20: the default hyperpriors are absolute numbers, "
                                       "so at 1e-6 or 1e6 the loading collapses to zero")
@pytest.mark.parametrize("scale", [1e6, 1e-6])
@pytest.mark.parametrize("variant", [mdl.V1_WISHART_INFORMATIVE, mdl.V1_WISHART_NONINFORMATIVE,
                                     mdl.V2_GAMMA_DIAGONAL, mdl.V2_GAMMA_ISOTROPIC])
def test_fit_of_scaled_data_learns_the_loading_of_unscaled_data(variant, scale):
    # the same corpus and config as the test above: in data units, the fitted
    # loading's norm at 1e6 or 1e-6 lies within 10x of the unscaled fit's
    ds, part, _ = synthetic_problem(71, d=20, ny=5, m=200, per=6)
    config = FitConfig(max_iterations=200, elbo_rel_tol=1e-9, mindiv_every=10, seed=2)
    norms = []
    for c in (1.0, scale):
        _, params, _ = fit(replace(ds, vectors=c * ds.vectors), part, v1_prior(20, variant), config, n_y=5)
        norms.append(np.linalg.norm(params.V) / c)
    assert 0.1 <= norms[1] / norms[0] <= 10.0


def test_within_class_covariance_is_one_product_up_to_a_block():
    # 4000 speakers at d = 300 fit one block: the bits of the whole product
    rng = np.random.default_rng(5)
    counts = rng.integers(1, 30, size=4000).astype(float)
    sums = rng.normal(size=(4000, 300)) * counts[:, None]
    stats = SuffStats(counts=counts, spk_sums=sums, scatter_total=sums.T @ sums)
    inv_counts = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    whole = (inv_counts[:, None] * sums).T @ sums
    expected = linalg.sym((stats.scatter_total - whole) / stats.n_total)
    assert np.array_equal(engine._within_class_covariance(stats), expected)


def test_within_class_covariance_sums_its_blocks(monkeypatch):
    # blocks of 7 speakers (and a short last one) add up to the whole product
    rng = np.random.default_rng(6)
    counts = np.concatenate([rng.integers(1, 9, size=60), [0.0]]).astype(float)
    sums = rng.normal(size=(61, 4)) * counts[:, None]
    stats = SuffStats(counts=counts, spk_sums=sums, scatter_total=4.0 * sums.T @ sums)
    whole = engine._within_class_covariance(stats)
    monkeypatch.setattr(engine, "WITHIN_BLOCK_ENTRIES", 28)
    np.testing.assert_allclose(engine._within_class_covariance(stats), whole, rtol=1e-13, atol=0)


def test_within_class_covariance_copies_no_speaker_sums():
    # 2^24 numbers of sums (128 MiB): the start's product allocates one block
    # of WITHIN_BLOCK_ENTRIES numbers, and the M-sized count vectors
    m, d = 1 << 18, 64
    stats = SuffStats(counts=np.full(m, 2.0), spk_sums=np.ones((m, d)), scatter_total=4.0 * m * np.eye(d))
    tracemalloc.start()
    try:
        engine._within_class_covariance(stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * engine.WITHIN_BLOCK_ENTRIES + 8 * 4 * m + 8 * 4 * d * d  # the sums: 8 m d


class TestFit:
    def test_zero_iterations_returns_init(self, monkeypatch):
        # a zero-sweep fit evaluates one bound: the stored_bound of its start,
        # on q(Vtilde) and q(W) rebuilt from the numbers a model file stores
        ds, part, _ = synthetic_problem(31)
        prior = v1_prior(4)
        bounds = []
        real = engine.elbo_total
        monkeypatch.setattr(engine, "elbo_total", lambda *args: bounds.append(args) or real(*args))
        state, params, report = fit(ds, part, prior, FitConfig(max_iterations=0, seed=1), n_y=2)
        assert report.iterations == 0
        assert report.elbo_trace == ()
        assert len(bounds) == 1
        qv = QVtilde.from_precisions(state.qv.mean, state.qv.prec)
        qw = QWWishart.from_psi(state.qw.psi, state.qw.nu)
        stored = engine.stored_bound(accumulate(ds, part), qv, qw, state.qalpha, report.final_prior)
        assert report.final_breakdown == stored

    def test_fit_leaves_its_prior_unchanged(self):
        # validate broadcasts mu0 and beta onto a copy, so one prior serves fits at any d
        prior = v1_prior(3, mdl.V2_GAMMA_DIAGONAL)
        for d in (3, 4):
            ds, part, _ = synthetic_problem(41, d=d)
            _, _, report = fit(ds, part, prior, FitConfig(max_iterations=3, seed=1), n_y=2)
            assert report.final_prior.mu0.shape == report.final_prior.beta.shape == (d,)
        assert prior.mu0.shape == prior.beta.shape == prior.b_w.shape == ()

    def test_start_scale_reads_the_centered_scatter_trace(self):
        d, n_y = 5, 2
        ds, part, _ = synthetic_problem(42, d=d, m=10, per=4)
        stats = accumulate(ds, part)
        state = _init_state(stats, v1_prior(d), n_y, seed=3)
        centered = ds.vectors - ds.vectors.mean(axis=0)
        scale = 0.5 * math.sqrt(np.sum(centered**2) / (stats.n_total * d * n_y))
        expected = scale * CounterRng(3).gaussians(d * n_y).reshape(d, n_y)
        np.testing.assert_allclose(state.qv.V, expected, rtol=1e-12, atol=0)
        np.testing.assert_allclose(state.qv.mu, stats.sum_total / stats.n_total, rtol=1e-15, atol=0)

    def test_trace_length_matches_iterations(self):
        ds, part, _ = synthetic_problem(32)
        state, params, report = fit(ds, part, v1_prior(4), FitConfig(max_iterations=7, elbo_rel_tol=1e-16, seed=1), n_y=2)
        assert report.iterations == 7
        assert len(report.elbo_trace) == 7
        assert len(report.breakdown_trace) == 7

    def test_annealing_all_ones_identical_to_plain(self):
        ds, part, _ = synthetic_problem(33)
        cfg_plain = FitConfig(max_iterations=10, elbo_rel_tol=1e-16, seed=2)
        cfg_anneal = FitConfig(max_iterations=10, elbo_rel_tol=1e-16, seed=2, anneal_schedule=((1.0, 10),))
        _, _, rep_a = fit(ds, part, v1_prior(4), cfg_plain, n_y=2)
        _, _, rep_b = fit(ds, part, v1_prior(4), cfg_anneal, n_y=2)
        np.testing.assert_array_equal(np.array(rep_a.elbo_trace), np.array(rep_b.elbo_trace))

    def test_annealed_schedule_reaches_unannealed_fixed_point(self):
        # convex toy instance d=2, ny=1
        ds, part, _ = synthetic_problem(34, d=2, ny=1, m=16, per=4)
        prior = v1_prior(2)
        cfg_plain = FitConfig(max_iterations=200, elbo_rel_tol=1e-12, seed=3)
        cfg_anneal = FitConfig(
            max_iterations=200, elbo_rel_tol=1e-12, seed=3,
            anneal_schedule=((0.4, 5), (0.7, 5), (1.0, 5)),
        )
        _, _, rep_a = fit(ds, part, prior, cfg_plain, n_y=1)
        _, _, rep_b = fit(ds, part, prior, cfg_anneal, n_y=1)
        assert rep_b.elbo_trace[-1] == pytest.approx(rep_a.elbo_trace[-1], rel=1e-6)

    def test_monotonicity_with_events_reset(self):
        ds, part, _ = synthetic_problem(35)
        cfg = FitConfig(max_iterations=40, elbo_rel_tol=1e-16, seed=4, hyperopt_every=7)
        _, _, report = fit(ds, part, v1_prior(4), cfg, n_y=2)
        trace = np.array(report.elbo_trace)
        deltas = np.diff(trace)
        # deltas crossing a hyperopt boundary may jump; all others ascend
        for i, delta in enumerate(deltas, start=1):
            if i % 7 != 0:
                assert delta >= -1e-8 * abs(trace[i - 1])

    def test_empty_data_prior_recovery_v3_v4(self):
        rng = np.random.default_rng(36)
        d, ny = 3, 2
        k = ny + 1
        means = rng.normal(size=(d, k))
        precs = np.stack([random_spd(rng, k) for _ in range(d)])
        for variant, extra in [
            (mdl.V3_GAUSSV_WISHART, dict(psi0=random_spd(rng, d, 0.3), nu_d=d + 2.5)),
            (mdl.V4_GAUSSV_GAMMA_DIAGONAL, dict(a_w=1.5, b_w=rng.uniform(0.5, 2.0, size=d))),
            (mdl.V4_GAUSSV_GAMMA_ISOTROPIC, dict(a_w=1.5, b_w=0.8)),
        ]:
            prior = PriorConfig(variant=variant, v_row_means=means, v_row_precisions=precs, **extra)
            empty = SuffStats(counts=np.zeros(0), spk_sums=np.zeros((0, d)), scatter_total=np.zeros((d, d)))
            state, _, report = fit_stats(empty, prior, FitConfig(max_iterations=2, seed=0), n_y=ny)
            assert abs(report.elbo_trace[-1]) < 1e-10
            np.testing.assert_allclose(state.qv.mean, means, atol=1e-9)
            np.testing.assert_allclose(state.qv.prec, precs, atol=1e-9)

    def test_whitening_requires_v2(self):
        ds, part, _ = synthetic_problem(37)
        with pytest.raises(ValueError):
            fit(ds, part, v1_prior(4), FitConfig(max_iterations=2, whiten=True), n_y=2)

    def test_whitening_rotation_diagonalizes(self):
        ds, part, _ = synthetic_problem(38, d=3, m=20, per=4)
        stats = accumulate(ds, part)
        rot = whitening_rotation(stats)
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-10)
        prior = v1_prior(3, mdl.V2_GAMMA_DIAGONAL)
        state, params, report = fit(ds, part, prior, FitConfig(max_iterations=10, whiten=True, seed=1), n_y=2)
        assert report.rotation is not None

    def test_heldout_bound_prefers_matched_model(self):
        ds, part, _ = synthetic_problem(39, d=3, ny=1, m=30, per=4)
        prior = v1_prior(3)
        state, params, report = fit(ds, part, prior, FitConfig(max_iterations=60, seed=5), n_y=1)
        held_ds, held_part, _ = synthetic_problem(40, d=3, ny=1, m=10, per=4)
        stats_held = accumulate(held_ds, held_part)
        good = heldout_bound(state.qv, state.qw, stats_held)
        # a clearly wrong mean should score worse
        bad_qv = QVtilde.from_precisions(state.qv.mean + np.append(np.zeros(1), 25.0)[None, :],
                                         state.qv.prec)
        bad = heldout_bound(bad_qv, state.qw, stats_held)
        assert good > bad


@pytest.mark.parametrize("variant", [mdl.V1_WISHART_INFORMATIVE, mdl.V4_GAUSSV_GAMMA_DIAGONAL])
def test_heldout_bound_on_the_fit_data_is_the_stored_bound_q_y_side(variant):
    # both bounds take q(Y), its aggregates and the pair's moments from one
    # qy_step, so on the fit's own statistics they agree bit for bit
    ds, part, _ = synthetic_problem(44, d=4, ny=2, m=30, per=4)
    stats = accumulate(ds, part)
    if variant == mdl.V1_WISHART_INFORMATIVE:
        prior = v1_prior(4, variant)
    else:
        rng = np.random.default_rng(44)
        prior = PriorConfig(variant=variant, v_row_means=rng.normal(size=(4, 3)),
                            v_row_precisions=np.stack([random_spd(rng, 3) for _ in range(4)]),
                            a_w=1.5, b_w=rng.uniform(0.5, 2.0, size=4))
    state, _, report = fit_stats(stats, prior, FitConfig(max_iterations=20, seed=3), n_y=2)
    b = stored_bound(stats, state.qv, state.qw, state.qalpha, report.final_prior)
    assert heldout_bound(state.qv, state.qw, stats) == b.data_term + b.y_prior - b.y_entropy_neg


def two_refresh_reference(stats, prior, config, n_y):
    """The sweep with q(Y) computed at both of its ends, on a fixed budget.

    It refreshes q(Y) from the previous global factors before q(Vtilde) in
    every sweep, tempers each factor behind its own kappa test and lets the
    bound form its own aggregates. A budget that ends at kappa = 1 has its
    last bound evaluated again as `elbo` would, on factors built from their
    stored numbers alone.
    """
    prior = prior.validate(stats.dim, n_y)
    state = _init_state(stats, prior, n_y, config.seed)
    trace, kappa_log = [], []
    for iteration in range(1, config.max_iterations + 1):
        kappa = config.kappa_for(iteration)
        qy = update_qy(stats, vtw_moments(state.qv, state.qw))
        if kappa != 1.0:
            qy = qy.anneal(kappa)
        aggregates = y_aggregates(qy, stats)
        qv = update_qvtilde(aggregates, state.qv, state.qw, prior, state.qalpha)
        if kappa != 1.0:
            qv = qv.anneal(kappa)
        qw = update_qw(stats, aggregates, qv, prior)
        if kappa != 1.0:
            qw = qw.anneal(kappa)
        qalpha = state.qalpha
        if qalpha is not None:
            qalpha = update_qalpha(qv, prior)
            if kappa != 1.0:
                qalpha = qalpha.anneal(kappa)
        qy = update_qy(stats, vtw_moments(qv, qw))
        if kappa != 1.0:
            qy = qy.anneal(kappa)
        state = VariationalState(
            variant=prior.variant, qy=qy, qv=qv, qw=qw, qalpha=qalpha, iteration=iteration, kappa=kappa
        )
        trace.append(elbo_total(stats, qy, qv, qw, qalpha, prior).total)
        kappa_log.append(kappa)
        if iteration < config.max_iterations:
            if config.hyperopt_every and iteration % config.hyperopt_every == 0:
                _, prior, _ = _hyperopt(state, prior, stats)
            if config.mindiv_every and iteration % config.mindiv_every == 0:
                qy_new, qv_new, _ = minimum_divergence(state.qy, state.qv)
                state = replace(state, qy=qy_new, qv=qv_new)
    if trace and state.kappa == 1.0:
        qv = QVtilde.from_precisions(state.qv.mean, state.qv.prec)
        qw = state.qw
        if isinstance(qw, QWWishart):
            qw = QWWishart.from_psi(qw.psi, qw.nu)
        qy = update_qy(stats, vtw_moments(qv, qw))
        trace[-1] = elbo_total(stats, qy, qv, qw, state.qalpha, prior).total
    return state, trace, kappa_log


@pytest.mark.parametrize("variant", [mdl.V1_WISHART_INFORMATIVE, mdl.V2_GAMMA_DIAGONAL])
def test_sweep_matches_two_refresh_reference(variant, monkeypatch):
    # coupled (Wishart) and decoupled (diagonal Gamma) rows; kappa changes
    # before sweeps 4 and 7, re-standardization after sweeps 4, 8 and 12
    ds, part, _ = synthetic_problem(42, d=4, ny=2, m=30, per=4)
    stats = accumulate(ds, part)
    config = FitConfig(
        max_iterations=14, elbo_rel_tol=1e-300, seed=7,
        anneal_schedule=((0.5, 3), (0.8, 3), (1.0, 1)), hyperopt_every=5, mindiv_every=4,
    )
    ref_state, ref_trace, ref_kappas = two_refresh_reference(stats, v1_prior(4, variant), config, 3)

    calls = []

    def counted_update_qy(*args):
        calls.append(1)
        return update_qy(*args)

    monkeypatch.setattr(engine, "update_qy", counted_update_qy)
    state, _, report = fit_stats(stats, v1_prior(4, variant), config, 3)

    assert not report.converged and report.iterations == config.max_iterations
    np.testing.assert_array_equal(np.array(report.elbo_trace), np.array(ref_trace))
    assert report.kappa_log == tuple(ref_kappas)
    np.testing.assert_array_equal(state.qv.mean, ref_state.qv.mean)
    np.testing.assert_array_equal(state.qw.mean, ref_state.qw.mean)
    np.testing.assert_array_equal(state.qy.mean, ref_state.qy.mean)
    sweeps = config.max_iterations
    kappa_changes = sum(a != b for a, b in zip(report.kappa_log, report.kappa_log[1:]))
    mindiv_events = (sweeps - 1) // config.mindiv_every
    assert (kappa_changes, mindiv_events) == (2, 3)
    final_evaluation = 1  # the budget ends at kappa = 1
    assert len(calls) == sweeps + 1 + kappa_changes + mindiv_events + final_evaluation


def test_a_refresh_of_an_adaptation_prior_keeps_the_baseline():
    # an adaptation prior has no hyperparameters to refresh, so a refresh every
    # sweep changes no objective: it neither moves the fit nor delays the stop
    ds, part, _ = synthetic_problem(81, d=4, ny=2, m=40, per=5)
    config = FitConfig(max_iterations=30, seed=1)
    trained, _, _ = fit(ds, part, v1_prior(4, mdl.V2_GAMMA_DIAGONAL), config, n_y=2)
    arm = mdl.SCHEMES[mdl.V2_GAMMA_DIAGONAL][1]
    prior = PriorConfig(variant=arm.adapted_variant, v_row_means=trained.qv.mean,
                        v_row_precisions=trained.qv.prec, **arm.adaptation_prior(trained.qw))
    ads, apart, _ = synthetic_problem(82, d=4, ny=2, m=15, per=4)
    report, hyperopt_report = (
        fit(ads, apart, prior, FitConfig(max_iterations=200, elbo_rel_tol=1e-9, hyperopt_every=every, seed=2),
            n_y=2)[2]
        for every in (0, 1)
    )
    assert report.converged and report.iterations < 200
    assert (hyperopt_report.elbo_trace, hyperopt_report.converged, hyperopt_report.iterations) == \
        (report.elbo_trace, report.converged, report.iterations)


@pytest.mark.parametrize("variant", [mdl.V1_WISHART_NONINFORMATIVE, mdl.V2_GAMMA_DIAGONAL])
def test_minimum_divergence_skips_a_one_speaker_fit(variant):
    # one speaker has no pooled latent covariance to fold into the loading, so
    # re-standardization every sweep leaves the fit, and when it stops, as it is
    ds, part, _ = synthetic_problem(83, d=3, ny=1, m=1, per=40)
    (state, _, report), (md_state, _, md_report) = (
        fit(ds, part, v1_prior(3, variant),
            FitConfig(max_iterations=100, elbo_rel_tol=1e-7, mindiv_every=every, seed=3), n_y=2)
        for every in (0, 1)
    )
    assert report.converged and report.iterations < 100
    assert (md_report.elbo_trace, md_report.converged, md_report.iterations) == \
        (report.elbo_trace, report.converged, report.iterations)
    np.testing.assert_array_equal(md_state.qv.mean, state.qv.mean)
    np.testing.assert_array_equal(md_state.qy.mean, state.qy.mean)


@pytest.mark.parametrize("variant, fixed", [
    # psi0's check and inverse, the within-class inverse, the stored bound's psi, ModelParams' W
    (mdl.V1_WISHART_INFORMATIVE, 5),
    # the within-class inverse, the stored bound's psi, ModelParams' W
    (mdl.V1_WISHART_NONINFORMATIVE, 3),
])
def test_fit_factorizes_no_known_inverse(variant, fixed, monkeypatch):
    # the start's identity row and latent precisions carry themselves as inverses
    # and its ln|psi| comes from the within-class factorization, so a fit
    # factorizes one order-d matrix per q(W) step plus `fixed`, and one row stack:
    # the stored bound's, rebuilt from the stored numbers
    ds, part, _ = synthetic_problem(61, d=4, m=40, per=5)
    stats = accumulate(ds, part)
    sweeps = 6
    calls = counted_cholesky(monkeypatch)
    fit_stats(stats, v1_prior(4, variant), FitConfig(max_iterations=sweeps, elbo_rel_tol=1e-300, seed=1), 2)
    assert sorted(set(calls)) == [(4, 3, 3), (4, 4)]
    assert calls.count((4, 4)) == sweeps + fixed
    assert calls.count((4, 3, 3)) == 1


def test_minimum_divergence_factorizes_no_row_stack(monkeypatch):
    # each event carries the row covariances and log-determinants through its
    # transform, so a fit with three events factorizes the (d, k, k) row stack
    # once: the stored bound's
    ds, part, _ = synthetic_problem(63, d=5, m=40, per=5)
    stats = accumulate(ds, part)
    config = FitConfig(max_iterations=20, elbo_rel_tol=1e-300, mindiv_every=5, seed=1)
    calls = counted_cholesky(monkeypatch)
    _, _, report = fit_stats(stats, v1_prior(5, mdl.V1_WISHART_INFORMATIVE), config, 2)
    assert report.iterations == 20 and not report.converged
    assert calls.count((5, 3, 3)) == 1


def test_fit_forms_each_pair_moments_once_and_groups_counts_once(monkeypatch):
    # q(Y) and the bound of a sweep share one vtw_moments of (q(Vtilde), q(W)):
    # the start's q(Y) refresh, one per sweep and the stored bound's, each on its own pair.
    # Both module globals that can form the moments are counted: engine's and
    # the fallback of elbo_total when it is not handed them
    ds, part, _ = synthetic_problem(62, d=4, m=30, per=4)
    stats = accumulate(ds, part)
    unique, moments = np.unique, posterior.vtw_moments
    groupings, pairs = [], []
    monkeypatch.setattr(np, "unique", lambda *a, **k: groupings.append(1) or unique(*a, **k))
    for module in (engine, elbo):
        monkeypatch.setattr(module, "vtw_moments",
                            lambda qv, qw: pairs.append((qv, qw)) or moments(qv, qw))
    stats = SuffStats(counts=stats.counts, spk_sums=stats.spk_sums, scatter_total=stats.scatter_total)
    sweeps = 7
    fit_stats(stats, v1_prior(4), FitConfig(max_iterations=sweeps, elbo_rel_tol=1e-300, seed=1), 2)
    assert len(groupings) == 1  # the statistics group their counts; update_qy reads the groups
    assert len(pairs) == sweeps + 2
    assert len({id(qv) for qv, _ in pairs}) == len(pairs)  # pairs holds every qv, so ids are unique


class TestArdRankRecoverySmall:
    def test_two_active_columns_survive(self):
        rng = np.random.default_rng(41)
        d, true_ny, model_ny, m, per = 8, 1, 3, 60, 4
        v = rng.normal(size=(d, true_ny)) * 1.5
        params = ModelParams(mu=rng.normal(size=d), V=v, W=2.0 * np.eye(d))
        ds, part, _ = sample(GenSpec(params=params, counts=(per,) * m, seed=99))
        prior = v1_prior(d)
        state, _, report = fit(ds, part, prior, FitConfig(max_iterations=150, seed=6), n_y=model_ny)
        e_alpha = np.sort(report.e_alpha)
        assert e_alpha[0] < 10.0           # one active column
        assert np.all(e_alpha[1:] > 1e3)   # the rest switched off
