"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail verdicts.
"""

import math
import time

import numpy as np
from scipy import special

import bsplda.model as mdl
from bsplda import io as mio
from bsplda.cli import main as cli_main
from bsplda.data import SuffStats, accumulate
from bsplda.elbo import elbo_data_term, elbo_v_alpha_mu_terms, elbo_w_terms, elbo_y_terms
from bsplda.engine import FitConfig, fit, fit_stats, heldout_bound, minimum_divergence, update_qy
from bsplda.hyperopt import optimize_alpha_hyper, optimize_w_hyper
from bsplda.model import ModelParams, PriorConfig
from bsplda.posterior import (
    QY,
    QVtilde,
    QWGamma,
    QWWishart,
    y_aggregates,
)
from bsplda.synth import GenSpec, sample
from tests.test_elbo import v1_prior_state
from tests.test_io_cli import file_digest, saved_model_for, write_sim_files
from tests.test_model import per_row_loglik, random_instance, stats_of
from tests.test_posterior import random_spd


def report(number, label):
    print(f"criterion {number:02d} PASS: {label}")


def make_prior(variant, d, ny, rng):
    loading, arm = mdl.SCHEMES[variant]
    if loading.has_alpha:
        kwargs = dict(mu0=0.0, beta=1.0, a_alpha=1e-3, b_alpha=1e-3)
        if variant == mdl.V1_WISHART_INFORMATIVE:
            kwargs.update(psi0=np.eye(d), nu_d=d + 2.0)
        if not isinstance(arm, mdl.WishartArm):
            kwargs.update(a_w=1e-3, b_w=1e-3)
    else:
        k = ny + 1
        kwargs = dict(
            v_row_means=0.3 * rng.standard_normal((d, k)),
            v_row_precisions=np.tile(np.eye(k), (d, 1, 1)),
        )
        if variant == mdl.V3_GAUSSV_WISHART:
            kwargs.update(psi0=np.eye(d), nu_d=d + 2.0)
        else:
            kwargs.update(a_w=1.0, b_w=1.0)
    return PriorConfig(variant=variant, **kwargs)


def test_criterion_01_elbo_monotonicity():
    start = time.monotonic()
    grid = [(d, ny, m) for d in (3, 8) for ny in (1, 3) for m in (5, 50)]
    instances = grid + [(3, 1, 5), (8, 3, 50)]
    worst = 0.0
    for variant in mdl.VARIANTS:
        for idx, (d, ny, m) in enumerate(instances):
            rng = np.random.default_rng(1000 + 17 * idx + mdl.VARIANTS.index(variant))
            params = ModelParams(
                mu=rng.standard_normal(d),
                V=rng.standard_normal((d, ny)),
                W=np.eye(d),
            )
            counts = tuple(int(c) for c in rng.integers(3, 6, size=m))
            ds, part, _ = sample(GenSpec(params=params, counts=counts, seed=idx + 1))
            prior = make_prior(variant, d, ny, rng)
            cfg = FitConfig(max_iterations=100, elbo_rel_tol=1e-16, seed=idx)
            _, _, rep = fit(ds, part, prior, cfg, n_y=ny)
            trace = np.array(rep.elbo_trace)
            deltas = np.diff(trace)
            floor = -1e-8 * np.abs(trace[:-1])
            assert np.all(deltas >= floor), (
                f"{variant} instance {idx}: delta {deltas.min():.3e} below floor"
            )
            if deltas.size:
                worst = min(worst, float((deltas - floor).min()))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"monotonicity suite took {elapsed:.1f}s"
    report(1, f"7 variants x 10 instances x 100 iterations monotone ({elapsed:.1f}s)")


class _PointW:
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


def test_criterion_02_conjugacy_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        d, ny = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        params = ModelParams(
            mu=rng.standard_normal(d),
            V=rng.standard_normal((d, ny)),
            W=random_spd(rng, d, 0.4),
        )
        m = int(rng.integers(1, 4))
        counts, sums, scatters = [], [], []
        for _ in range(m):
            n_i = int(rng.integers(1, 6))
            x = rng.standard_normal((n_i, d))
            counts.append(float(n_i))
            sums.append(x.sum(axis=0))
            scatters.append(x.T @ x)
        stats = SuffStats(
            counts=np.array(counts), spk_sums=np.array(sums), scatter_total=sum(scatters)
        )
        k = ny + 1
        qv = QVtilde.from_precisions(
            mean=np.column_stack([params.V, params.mu]),
            prec=np.tile(1e30 * np.eye(k), (d, 1, 1)),
        )
        qy = update_qy(stats, qv, _PointW(params.W))
        for i in range(m):
            prec_exact = np.eye(ny) + counts[i] * params.V.T @ params.W @ params.V
            mean_exact = np.linalg.solve(
                prec_exact, params.V.T @ params.W @ (sums[i] - counts[i] * params.mu)
            )
            # the covariance and log-determinant the sweep and the bound read
            cov_exact = np.linalg.inv(prec_exact)
            logdet_exact = np.linalg.slogdet(prec_exact)[1]
            scale = max(1.0, float(np.abs(cov_exact).max()))
            assert np.abs(qy.cov[qy.group[i]] - cov_exact).max() <= 1e-10 * scale
            assert abs(qy.prec_logdets[qy.group[i]] - logdet_exact) <= 1e-10 * max(
                1.0, abs(logdet_exact)
            )
            assert np.abs(qy.mean[i] - mean_exact).max() <= 1e-10 * max(
                1.0, float(np.abs(mean_exact).max())
            )
    report(2, "q(Y) equals the closed-form Gaussian conditional at point masses (20 instances)")


def test_criterion_03_bound_below_evidence():
    start = time.monotonic()
    phi = 0.7
    a_alpha = b_alpha = 2.0
    a_w = b_w = 2.0
    beta = 4.0
    mu0 = 0.0
    stats = SuffStats(
        counts=np.array([1.0]),
        spk_sums=np.array([[phi]]),
        scatter_total=np.array([[phi * phi]]),
    )
    prior = PriorConfig(
        variant=mdl.V2_GAMMA_ISOTROPIC, mu0=mu0, beta=beta,
        a_alpha=a_alpha, b_alpha=b_alpha, a_w=a_w, b_w=b_w,
    )
    _, _, rep = fit_stats(stats, prior, FitConfig(max_iterations=500, elbo_rel_tol=1e-12, seed=0), n_y=1)
    bound = rep.elbo_trace[-1]

    rng = np.random.default_rng(123456)
    n_total = 10_000_000
    chunk = 1_000_000
    max_ll = -np.inf
    logliks = np.empty(n_total)
    pos = 0
    while pos < n_total:
        size = min(chunk, n_total - pos)
        alpha = rng.gamma(a_alpha, 1.0 / b_alpha, size=size)
        v = rng.standard_normal(size) / np.sqrt(alpha)
        mu = mu0 + rng.standard_normal(size) / math.sqrt(beta)
        w = rng.gamma(a_w, 1.0 / b_w, size=size)
        y = rng.standard_normal(size)
        resid = phi - v * y - mu
        logliks[pos : pos + size] = 0.5 * np.log(w) - 0.5 * math.log(2 * math.pi) - 0.5 * w * resid**2
        pos += size
    shift = logliks.max()
    z = np.exp(logliks - shift)
    log_z = shift + math.log(float(z.mean()))
    se_log_z = float(z.std(ddof=1) / (math.sqrt(n_total) * z.mean()))
    gap = log_z - bound
    elapsed = time.monotonic() - start
    assert gap > 0.0, f"bound {bound:.6f} above IS evidence {log_z:.6f}"
    assert bound <= log_z + 3.0 * se_log_z
    assert elapsed < 30.0, f"bound check took {elapsed:.1f}s"
    report(3, f"ELBO {bound:.4f} <= log evidence {log_z:.4f} (gap {gap:.4f}, 3SE {3*se_log_z:.5f})")


def test_criterion_04_ard_rank_recovery():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    d, true_ny, model_ny, m, per = 10, 2, 5, 200, 5
    v_true = 1.4 * rng.standard_normal((d, true_ny))
    params = ModelParams(mu=rng.standard_normal(d), V=v_true, W=np.eye(d))
    ds, part, _ = sample(GenSpec(params=params, counts=(per,) * m, seed=4040))
    prior = PriorConfig(
        variant=mdl.V1_WISHART_NONINFORMATIVE, mu0=0.0, beta=1.0, a_alpha=1e-3, b_alpha=1e-3
    )
    # the relevance precisions of pruned columns climb slowly, so the budget is generous
    cfg = FitConfig(max_iterations=1000, elbo_rel_tol=1e-9, seed=7)
    _, _, rep = fit(ds, part, prior, cfg, n_y=model_ny)
    e_alpha = rep.e_alpha
    prior_scale = prior.a_alpha / prior.b_alpha
    active = int(np.sum(e_alpha < 10.0 * prior_scale))
    off = int(np.sum(e_alpha > 1e3))
    elapsed = time.monotonic() - start
    assert active == 2, f"expected 2 active columns, got {active} (E[alpha] = {np.sort(e_alpha)})"
    assert off == 3, f"expected 3 switched-off columns, got {off} (E[alpha] = {np.sort(e_alpha)})"
    assert elapsed < 120.0, f"ARD recovery took {elapsed:.1f}s"
    report(4, f"ARD kept 2 of 5 columns, pruned 3 (E[alpha] = {np.sort(e_alpha).round(2)})")


def test_criterion_05_kl_zero_suite():
    rng = np.random.default_rng(505)
    checked = []
    for variant in mdl.VARIANTS:
        d, ny = 3, 2
        k = ny + 1
        loading, arm = mdl.SCHEMES[variant]
        prior = make_prior(variant, d, ny, rng)
        if loading.has_alpha:
            prior = PriorConfig(
                variant=variant,
                mu0=rng.standard_normal(d),
                beta=rng.uniform(0.5, 2.0, size=d),
                a_alpha=1.5,
                b_alpha=0.7,
                psi0=prior.psi0,
                nu_d=prior.nu_d,
                a_w=prior.a_w,
                b_w=prior.b_w,
            )
        prior = prior.validate(d, ny)
        # q(Y) at its prior
        qy = QY(mean=np.zeros((2, ny)), cov=np.tile(np.eye(ny), (2, 1, 1)), prec_logdets=np.zeros(2),
                group=np.arange(2))
        y_prior, y_entropy_neg = elbo_y_terms(qy)
        assert abs(y_prior - y_entropy_neg) < 1e-9
        checked.append((variant, "y"))
        if loading.has_alpha:
            qv, qalpha = v1_prior_state(d, ny, prior)
            v_p, a_p, a_e, mu_p, v_e = elbo_v_alpha_mu_terms(qv, qalpha, prior)
            assert abs(a_p - a_e) < 1e-9
            checked.append((variant, "alpha"))
            # mu slice of the diagonal rows against its Gaussian prior
            mu_entropy_neg = float(
                np.sum(-0.5 * (math.log(2 * math.pi) + 1.0) + 0.5 * np.log(prior.beta))
            )
            assert abs(mu_p - mu_entropy_neg) < 1e-9
            checked.append((variant, "mu"))
            # hierarchical V block: KL equals its closed form, not zero
            closed = -0.5 * d * float(np.sum(np.log(qalpha.mean) - qalpha.mean_log))
            assert abs((v_p + mu_p) - v_e - closed) < 1e-9
            checked.append((variant, "v-hierarchical"))
        else:
            qv = QVtilde.from_precisions(mean=prior.v_row_means, prec=prior.v_row_precisions)
            v_p, a_p, a_e, mu_p, v_e = elbo_v_alpha_mu_terms(qv, None, prior)
            assert abs(v_p - v_e) < 1e-9
            checked.append((variant, "v-rows"))
        if arm is mdl.FLAT_WISHART:
            pass  # improper prior: no KL-zero pair exists
        elif arm is mdl.WISHART:
            qw = QWWishart.from_psi(psi=prior.psi0, nu=prior.nu_d)
            w_p, w_e = elbo_w_terms(qw, prior)
            assert abs(w_p - w_e) < 1e-9
            checked.append((variant, "w-wishart"))
        elif arm is mdl.GAMMA_ISOTROPIC:
            qw = QWGamma(a=prior.a_w, b=prior.b_w, dim=d)
            w_p, w_e = elbo_w_terms(qw, prior)
            assert abs(w_p - w_e) < 1e-9
            checked.append((variant, "w-gamma-iso"))
        else:
            b_w = prior.b_w if prior.b_w.shape == (d,) else np.full(d, float(prior.b_w[0]))
            qw = QWGamma(a=prior.a_w, b=b_w, dim=d)
            w_p, w_e = elbo_w_terms(qw, prior)
            assert abs(w_p - w_e) < 1e-9
            checked.append((variant, "w-gamma-diag"))
    report(5, f"{len(checked)} (prior, entropy) pairs at KL = 0 / closed form across 7 variants")


def test_criterion_06_minimum_divergence_invariance():
    rng = np.random.default_rng(606)
    d, ny, m = 5, 2, 20
    params = ModelParams(
        mu=rng.standard_normal(d), V=rng.standard_normal((d, ny)), W=np.eye(d)
    )
    ds, part, _ = sample(GenSpec(params=params, counts=(4,) * m, seed=66))
    prior = PriorConfig(
        variant=mdl.V1_WISHART_NONINFORMATIVE, mu0=0.0, beta=1.0, a_alpha=1e-3, b_alpha=1e-3
    )
    state, _, _ = fit(ds, part, prior, FitConfig(max_iterations=15, seed=1), n_y=ny)
    stats = accumulate(ds, part)
    before = elbo_data_term(stats, y_aggregates(state.qy, stats), state.qv, state.qw)
    qy2, qv2, _ = minimum_divergence(state.qy, state.qv)
    after = elbo_data_term(stats, y_aggregates(qy2, stats), qv2, state.qw)
    assert abs(after - before) <= 1e-9 * max(1.0, abs(before))
    pooled_mean = qy2.mean.mean(axis=0)
    pooled_second = qy2.second_moment_sum / qy2.n_speakers
    assert np.abs(pooled_mean).max() < 1e-10
    assert np.abs(pooled_second - np.eye(ny)).max() < 1e-8
    report(6, f"data term invariant ({before:.6f}) and pooled moments standardized")


def test_criterion_07_hyperopt_consistency():
    for a_star in (0.5, 1.0, 3.0, 20.0):
        for b_star in (0.4, 1.0, 6.0):
            mean_log = np.full(5, float(special.digamma(a_star)) - math.log(b_star))
            mean = np.full(5, a_star / b_star)
            a, b = optimize_alpha_hyper(mean_log, mean, a_alpha=1.0)
            assert abs(a - a_star) <= 1e-6 * a_star
            assert abs(b - b_star) <= 1e-6 * b_star
            a, b = optimize_w_hyper(mean_log[:1], mean[:1], a_w=2.0)
            assert abs(a - a_star) <= 1e-6 * a_star
            assert abs(b - b_star) <= 1e-6 * b_star
    report(7, "Gamma hyperparameters recovered from exact moments, a* in {0.5, 1, 3, 20}")


def test_criterion_08_adaptation_sanity():
    start = time.monotonic()
    d, ny = 10, 3
    wins = 0
    for seed in range(5):
        rng = np.random.default_rng(8000 + seed)
        v_true = rng.standard_normal((d, ny))
        mu_a = rng.standard_normal(d)
        # moderate mean shift against noise std sqrt(2): the regime adaptation targets
        shift = rng.standard_normal(d) / math.sqrt(d)
        mu_b = mu_a + shift
        w_true = 0.5 * np.eye(d)
        big_params = ModelParams(mu=mu_a, V=v_true, W=w_true)
        small_params = ModelParams(mu=mu_b, V=v_true, W=w_true)

        big_ds, big_part, _ = sample(GenSpec(params=big_params, counts=(20,) * 500, seed=10 * seed + 1))
        adapt_ds, adapt_part, _ = sample(GenSpec(params=small_params, counts=(5,) * 40, seed=10 * seed + 2))
        held_ds, held_part, _ = sample(GenSpec(params=small_params, counts=(5,) * 60, seed=10 * seed + 3))
        held_stats = accumulate(held_ds, held_part)

        prior1 = PriorConfig(
            variant=mdl.V1_WISHART_INFORMATIVE, mu0=0.0, beta=1.0,
            a_alpha=1e-3, b_alpha=1e-3, psi0=np.eye(d), nu_d=d + 2.0,
        )
        big_state, _, _ = fit(big_ds, big_part, prior1, FitConfig(max_iterations=60, elbo_rel_tol=1e-9, seed=seed), n_y=ny)

        prior3 = PriorConfig(
            variant=mdl.V3_GAUSSV_WISHART,
            v_row_means=big_state.qv.mean,
            v_row_precisions=big_state.qv.prec,
            psi0=big_state.qw.psi,
            nu_d=big_state.qw.nu,
        )
        adapted_state, _, _ = fit(adapt_ds, adapt_part, prior3, FitConfig(max_iterations=60, elbo_rel_tol=1e-9, seed=seed), n_y=ny)

        small_state, _, _ = fit(adapt_ds, adapt_part, prior1, FitConfig(max_iterations=60, elbo_rel_tol=1e-9, seed=seed), n_y=ny)

        adapted = heldout_bound(adapted_state.qv, adapted_state.qw, held_stats)
        unadapted = heldout_bound(big_state.qv, big_state.qw, held_stats)
        small_only = heldout_bound(small_state.qv, small_state.qw, held_stats)
        if adapted > unadapted and adapted > small_only:
            wins += 1
    elapsed = time.monotonic() - start
    assert wins == 5, f"adapted model won on {wins}/5 seeds"
    assert elapsed < 300.0, f"adaptation suite took {elapsed:.1f}s"
    report(8, f"adapted model beat unadapted and small-only on 5/5 seeds ({elapsed:.1f}s)")


def test_criterion_09_cross_form_equivalence():
    rng = np.random.default_rng(909)
    from bsplda.model import (
        conditional_loglik,
        conditional_loglik_augmented,
        conditional_loglik_augmented_traced,
        conditional_loglik_traced,
    )

    for _ in range(100):
        params, x, y = random_instance(
            rng, d=int(rng.integers(1, 6)), ny=int(rng.integers(1, 4)), n_i=int(rng.integers(1, 5))
        )
        n_i, f_i, s_i = stats_of(x)
        mu = params.mu
        fbar = f_i - n_i * mu
        sbar = s_i - np.outer(mu, f_i) - np.outer(f_i, mu) + n_i * np.outer(mu, mu)
        ytilde = np.append(y, 1.0)
        loading = params.augmented()
        vals = [
            conditional_loglik(n_i, fbar, sbar, y, params),
            conditional_loglik_traced(n_i, f_i, s_i, y, params),
            conditional_loglik_augmented(n_i, f_i, s_i, ytilde, loading, params.W),
            conditional_loglik_augmented_traced(n_i, f_i, s_i, ytilde, loading, params.W),
            per_row_loglik(x, y, params),
        ]
        scale = max(1.0, abs(vals[0]))
        for v in vals[1:4]:
            assert abs(v - vals[0]) <= 1e-9 * scale
        assert abs(vals[4] - vals[0]) <= 1e-7 * scale  # independent per-row oracle
    report(9, "likelihood forms agree within 1e-9 on 100 random instances")


def test_criterion_10_serialization_and_cli_determinism(tmp_path):
    for variant in mdl.VARIANTS:
        rng = np.random.default_rng(mdl.VARIANTS.index(variant))
        saved = saved_model_for(variant, rng)
        p1 = tmp_path / "a.model"
        p2 = tmp_path / "b.model"
        mio.write_model_file(p1, saved)
        mio.write_model_file(p2, mio.read_model_file(p1))
        assert p1.read_bytes() == p2.read_bytes(), f"round trip not bit-exact for {variant}"
    data, labels = write_sim_files(tmp_path)
    digests = set()
    for tag in ("r1", "r2"):
        model = tmp_path / f"{tag}.model"
        rc = cli_main([
            "train", "--data", str(data), "--labels", str(labels), "--out", str(model),
            "--variant", "V1-Wishart-informative", "--ny", "2", "--iters", "25", "--seed", "9",
        ])
        assert rc == 0
        digests.add(file_digest(model))
    assert len(digests) == 1, "training runs with identical inputs diverged"
    sim_digests = set()
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("d = 3\nny = 1\n")
    for tag in ("s1", "s2"):
        rc = cli_main([
            "simulate", "--spec", str(cfg), "--speakers", "6", "--per-speaker", "2",
            "--seed", "31", "--out", str(tmp_path / tag),
        ])
        assert rc == 0
        sim_digests.add(
            (file_digest(tmp_path / f"{tag}.data"), file_digest(tmp_path / f"{tag}.labels"))
        )
    assert len(sim_digests) == 1
    report(10, "model files bit-exact for all 7 variants; CLI byte-deterministic")
