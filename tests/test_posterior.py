import math

import numpy as np
import pytest
from dataclasses import replace

from bsplda.data import SuffStats
from bsplda.linalg import FactorizationError, spd_inverse_logdet, spd_logdet
from bsplda.posterior import (
    QY,
    QAlpha,
    QVtilde,
    QWGamma,
    QWWishart,
    YAggregates,
    expected_vtw_quadratic,
    y_aggregates,
)

EULER_GAMMA = 0.5772156649015329


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T + d * np.eye(d))


def random_qv(rng, d, ny):
    k = ny + 1
    return QVtilde.from_precisions(
        mean=rng.normal(size=(d, k)),
        prec=np.stack([random_spd(rng, k) for _ in range(d)]),
    )


def expected_vrv(qv, r):
    """E[Vt R Vt^T]: the residual scatter K = S - C Vt^T - Vt C^T + E[Vt R Vt^T] at S = C = 0."""
    from bsplda.engine import _residual_scatter

    d, k = qv.mean.shape
    empty = SuffStats(counts=np.zeros(0), spk_sums=np.zeros((0, d)), scatter_total=np.zeros((d, d)))
    return _residual_scatter(empty, YAggregates(C=np.zeros((d, k)), R=r), qv)


def qy_from_precisions(mean, prec, group):
    """q(Y) whose group g has the precision prec[g], inverted here."""
    cov, logdets = spd_inverse_logdet(np.asarray(prec, dtype=float))
    return QY(mean=mean, cov=cov, prec_logdets=logdets, group=group)


def random_qy(rng, m, ny):
    """q(Y) with random means and one random precision per speaker (a group each)."""
    mean = rng.normal(size=(m, ny))
    return qy_from_precisions(mean, np.stack([random_spd(rng, ny) for _ in range(m)]), np.arange(m))


def stats_for(rng, m, d):
    counts = rng.integers(1, 5, size=m).astype(float)
    return SuffStats(
        counts=counts,
        spk_sums=rng.normal(size=(m, d)),
        scatter_total=sum(random_spd(rng, d) for _ in range(m)),
    )


def test_aggregates_identity_example():
    # M=1, ybar=0, L=I, N1=2: R = 2 I (bottom-right = N), C from outer product
    qy = QY(mean=np.zeros((1, 2)), cov=np.eye(2)[None], prec_logdets=np.zeros(1), group=np.arange(1))
    stats = SuffStats(counts=np.array([2.0]), spk_sums=np.array([[1.0, 0.0, 0.0]]),
                      scatter_total=np.zeros((3, 3)))
    aggs = y_aggregates(qy, stats)
    np.testing.assert_allclose(aggs.R, 2.0 * np.eye(3))
    assert aggs.R[-1, -1] == stats.n_total
    np.testing.assert_allclose(qy.second_moment_sum, np.eye(2))


def test_aggregates_outer_product_example():
    # M=1, F1=(1,0), E[ytilde]=(1,1): C = [[1,1],[0,0]]
    qy = qy_from_precisions(np.ones((1, 1)), np.full((1, 1, 1), 1e12), np.arange(1))
    stats = SuffStats(counts=np.array([1.0]), spk_sums=np.array([[1.0, 0.0]]),
                      scatter_total=np.zeros((2, 2)))
    aggs = y_aggregates(qy, stats)
    np.testing.assert_allclose(aggs.C, np.array([[1.0, 1.0], [0.0, 0.0]]), atol=1e-9)


def test_aggregates_block_structure_invariant():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m, d, ny = int(rng.integers(1, 6)), 3, int(rng.integers(1, 4))
        qy = random_qy(rng, m, ny)
        stats = stats_for(rng, m, d)
        aggs = y_aggregates(qy, stats)
        assert aggs.R[-1, -1] == pytest.approx(stats.n_total, rel=1e-12)
        np.testing.assert_allclose(
            aggs.R[:-1, -1], (stats.counts[:, None] * qy.mean).sum(axis=0), rtol=1e-12
        )
        np.testing.assert_allclose(aggs.R, aggs.R.T, atol=1e-12)


def test_aggregates_monte_carlo_oracle():
    rng = np.random.default_rng(3)
    m, d, ny = 2, 3, 2
    qy = random_qy(rng, m, ny)
    stats = stats_for(rng, m, d)
    n_samp = 200_000
    r_est = np.zeros((ny + 1, ny + 1))
    for i in range(m):
        cov = qy.cov[qy.group[i]]
        draws = rng.multivariate_normal(qy.mean[i], cov, size=n_samp)
        yt = np.concatenate([draws, np.ones((n_samp, 1))], axis=1)
        r_est += stats.counts[i] * (yt.T @ yt) / n_samp
    aggs = y_aggregates(qy, stats)
    assert np.abs(aggs.R - r_est).max() / np.abs(aggs.R).max() < 0.02


def test_expected_w_wishart_scalar_reduction():
    qw = QWWishart.from_psi(psi=np.array([[0.5]]), nu=2.0)
    wbar, logdet = qw.mean, qw.mean_logdet
    np.testing.assert_allclose(wbar, [[1.0]])
    assert logdet == pytest.approx(-EULER_GAMMA, rel=1e-10)


def test_expected_w_gamma_iso():
    qw = QWGamma(a=2.0, b=2.0, dim=3)
    wbar, logdet = qw.mean, qw.mean_logdet
    np.testing.assert_allclose(wbar, np.eye(3))
    from scipy.special import digamma

    assert logdet == pytest.approx(3 * (float(digamma(2.0)) - math.log(2.0)), rel=1e-12)


def test_expected_w_jensen_inequality():
    rng = np.random.default_rng(5)
    arms = [
        QWWishart.from_psi(psi=random_spd(rng, 3, 0.2), nu=7.5),
        QWGamma(a=3.0, b=rng.uniform(0.5, 2.0, size=4), dim=4),
        QWGamma(a=1.5, b=0.7, dim=2),
    ]
    for qw in arms:
        wbar, logdet = qw.mean, qw.mean_logdet
        sign, logdet_mean = np.linalg.slogdet(wbar)
        assert sign > 0
        assert logdet <= logdet_mean + 1e-12


def test_expected_w_wishart_monte_carlo():
    rng = np.random.default_rng(11)
    psi = random_spd(rng, 2, 0.3)
    nu = 6.0
    qw = QWWishart.from_psi(psi=psi, nu=nu)
    draws = scipy_wishart_draws(rng, psi, nu, 100_000)
    wbar, logdet = qw.mean, qw.mean_logdet
    assert np.abs(draws.mean(axis=0) - wbar).max() / np.abs(wbar).max() < 0.02
    _, logdets = np.linalg.slogdet(draws)
    assert logdets.mean() == pytest.approx(logdet, abs=0.02)


def scipy_wishart_draws(rng, psi, nu, n):
    from scipy.stats import wishart

    return wishart.rvs(df=nu, scale=psi, size=n, random_state=rng)


def test_expected_alpha():
    qa = QAlpha(a=1.0, b=np.ones(2))
    mean, mean_log = qa.mean, qa.mean_log
    np.testing.assert_allclose(mean, np.ones(2))
    np.testing.assert_allclose(mean_log, -EULER_GAMMA * np.ones(2), rtol=1e-10)
    qa = QAlpha(a=5.001, b=np.array([1.001]))
    assert qa.mean[0] == pytest.approx(5.001 / 1.001, rel=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(10):
        qa = QAlpha(a=rng.uniform(0.1, 10), b=rng.uniform(0.1, 10, size=3))
        mean, mean_log = qa.mean, qa.mean_log
        assert np.all(mean_log < np.log(mean))


def test_quadratics_point_estimate_degenerate():
    # huge row precisions: every formula reduces to its point form
    rng = np.random.default_rng(13)
    d, ny = 3, 2
    k = ny + 1
    vt = rng.normal(size=(d, k))
    qv = QVtilde.from_precisions(mean=vt, prec=np.tile(1e14 * np.eye(k), (d, 1, 1)))
    wbar = random_spd(rng, d)
    r = random_spd(rng, k)
    full = vt.T @ wbar @ vt
    np.testing.assert_allclose(expected_vtw_quadratic(qv, wbar), full, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(expected_vrv(qv, r), vt @ r @ vt.T, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(qv.col_sq_norms, (vt[:, :ny] ** 2).sum(axis=0), rtol=1e-6)


def test_quadratics_hadamard_hand_example():
    # d=1, ny=1, cov = I2, R = diag(2,3), Vt = 0: E[Vt R Vt^T] = [5]
    qv = QVtilde.from_precisions(mean=np.zeros((1, 2)), prec=np.eye(2)[None])
    r = np.diag([2.0, 3.0])
    np.testing.assert_allclose(expected_vrv(qv, r), [[5.0]])


def _mc_check(expected, per_sample, n_samp, max_se):
    est = per_sample.reshape(n_samp, -1).mean(axis=0)
    se = per_sample.reshape(n_samp, -1).std(axis=0, ddof=1) / math.sqrt(n_samp)
    flat = expected.ravel()
    band = max_se * np.maximum(se, 1e-12)
    assert np.all(np.abs(est - flat) <= band), (
        f"MC deviation {np.abs(est - flat).max():.3e} outside {max_se}-SE band"
    )


def test_quadratics_monte_carlo_oracle():
    # 20 random instances, standard-error-calibrated bands (fixed seed; the
    # 4-SE width covers the simultaneous comparison over every matrix entry)
    rng = np.random.default_rng(17)
    n_samp = 250_000
    for trial in range(20):
        d, ny = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        k = ny + 1
        qv = random_qv(rng, d, ny)
        wbar = random_spd(rng, d, 0.5)
        r = random_spd(rng, k, 0.5)
        covs = qv.cov
        rows = np.stack(
            [rng.multivariate_normal(qv.mean[i], covs[i], size=n_samp) for i in range(d)],
            axis=1,
        )  # (n_samp, d, k)
        wrows = np.einsum("rs,nsb->nrb", wbar, rows)
        _mc_check(
            expected_vtw_quadratic(qv, wbar), np.einsum("nra,nrb->nab", rows, wrows), n_samp, 4.0
        )
        rrows = rows @ r
        _mc_check(expected_vrv(qv, r), np.einsum("nra,nsa->nrs", rrows, rows), n_samp, 4.0)
        _mc_check(
            qv.col_sq_norms, np.einsum("nrq,nrq->nq", rows[:, :, :ny], rows[:, :, :ny]), n_samp, 4.0
        )


def test_rho_nonnegative_for_psd_inputs():
    rng = np.random.default_rng(19)
    for _ in range(20):
        d, ny = 3, 2
        qv = random_qv(rng, d, ny)
        r = random_spd(rng, ny + 1)
        # at zero means E[Vt R Vt^T] is diag(rho), rho_r = sum_ab (R o cov_r)_ab
        zero_mean = QVtilde.from_precisions(mean=np.zeros_like(qv.mean), prec=qv.prec)
        rho = np.diag(expected_vrv(zero_mean, r))
        assert np.all(rho >= -1e-12)


def test_only_the_stored_number_constructors_factorize(monkeypatch):
    # from_precisions inverts the row stack by one batched Cholesky and from_psi
    # takes ln|psi| from one; a value built from its fields, replaced or
    # tempered factorizes nothing
    rng = np.random.default_rng(23)
    mean, prec = rng.normal(size=(4, 3)), np.stack([random_spd(rng, 3) for _ in range(4)])
    psi = random_spd(rng, 5, 0.3)
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(np.shape(a)) or cholesky(a))
    qv = QVtilde.from_precisions(mean, prec)
    qw = QWWishart.from_psi(psi, 9.0)
    assert calls == [(4, 3, 3), (5, 5)]
    replace(qv, mean=2.0 * mean).anneal(0.5), replace(qw, nu=8.0).anneal(0.5)
    QVtilde(mean=mean, prec=prec, cov=qv.cov, prec_logdets=qv.prec_logdets)
    assert calls == [(4, 3, 3), (5, 5)]
    monkeypatch.undo()
    cov, logdets = spd_inverse_logdet(prec)
    np.testing.assert_array_equal(qv.mean, mean)
    np.testing.assert_array_equal(qv.prec, prec)
    np.testing.assert_array_equal(qv.cov, cov)
    np.testing.assert_array_equal(qv.prec_logdets, logdets)
    assert qw.logdet_psi == spd_logdet(psi)
    qa = QAlpha(a=2.0, b=np.array([4.0]))
    assert qa.mean[0] == pytest.approx(0.5)
    qa2 = replace(qa, b=np.array([1.0]))
    assert qa2.mean[0] == pytest.approx(2.0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        QAlpha(a=-1.0, b=np.ones(2))
    with pytest.raises(ValueError):
        QWWishart.from_psi(psi=np.eye(2), nu=0.5)
    with pytest.raises(ValueError):
        QWGamma(a=1.0, b=np.array([1.0, -2.0]), dim=2)
    with pytest.raises(ValueError, match="rates or one"):
        QWGamma(a=1.0, b=np.ones(3), dim=2)
    with pytest.raises(ValueError, match="inconsistent shapes"):
        QY(mean=np.zeros((2, 2)), cov=np.zeros((2, 3, 3)), prec_logdets=np.zeros(2), group=np.arange(2))
    with pytest.raises(ValueError, match="inconsistent shapes"):
        QY(mean=np.zeros((2, 2)), cov=np.zeros((2, 2, 2)), prec_logdets=np.zeros(3), group=np.arange(2))
    with pytest.raises(ValueError, match="inconsistent shapes"):
        QVtilde(mean=np.zeros((2, 2)), prec=np.zeros((2, 2, 2)), cov=np.zeros((2, 3, 3)),
                prec_logdets=np.zeros(2))


@pytest.mark.parametrize("psi", [[[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, -1.0]]])
def test_wishart_scale_not_positive_definite(psi):
    # ln|psi| comes from one Cholesky factorization that both bound terms read;
    # -I has a positive determinant but no Cholesky factor
    with pytest.raises(FactorizationError, match="not positive definite"):
        QWWishart.from_psi(np.array(psi), 5.0)


def test_wishart_logdet_matches_slogdet():
    rng = np.random.default_rng(29)
    psi = random_spd(rng, 5, 0.3)
    qw = QWWishart.from_psi(psi=psi, nu=9.0)
    assert qw.logdet_psi == pytest.approx(np.linalg.slogdet(qw.psi)[1], rel=1e-13)
