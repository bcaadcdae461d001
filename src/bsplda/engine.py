"""Coordinate-ascent updates, deterministic annealing, minimum divergence, and fit."""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import model as mdl
from .data import accumulate, rotate
from .elbo import NonFiniteElboError, elbo_data_term, elbo_total, elbo_y_terms
from .linalg import FactorizationError, pencil_inverses, spd_cholesky, spd_inverse_logdet, sym
from .posterior import QY, QAlpha, QVtilde, vtw_moments, y_aggregates
from .synth import CounterRng

__all__ = [
    "FitConfig",
    "FitReport",
    "VariationalState",
    "update_qy",
    "update_qvtilde",
    "update_qalpha",
    "update_qw",
    "minimum_divergence",
    "fit",
    "fit_stats",
    "stored_bound",
    "heldout_bound",
    "whitening_rotation",
]

# The within-class covariance sums F_i F_i^T / N_i over speaker blocks of at
# most this many numbers (32 MiB), so the start holds no M x d copy of the sums.
WITHIN_BLOCK_ENTRIES = 1 << 22


@dataclass(frozen=True)
class VariationalState:
    """The factored posterior with its variant tag and annealing temperature."""

    variant: str
    qy: QY
    qv: QVtilde
    qw: object
    qalpha: QAlpha = None
    iteration: int = 0
    kappa: float = 1.0


@dataclass(frozen=True)
class FitConfig:
    max_iterations: int = 500
    elbo_rel_tol: float = 1e-7
    anneal_schedule: tuple = ()   # ((kappa, span), ...); must end at kappa = 1
    hyperopt_every: int = 0       # 0 = off
    mindiv_every: int = 0         # 0 = off
    seed: int = 0
    whiten: bool = False          # V2 rotation preprocessing

    def __post_init__(self):
        for name in ("max_iterations", "hyperopt_every", "mindiv_every", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):  # numpy integers included
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0 and name != "seed":
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not 0 < self.elbo_rel_tol < math.inf:  # also rejects NaN
            raise ValueError(f"elbo_rel_tol must be positive and finite, got {self.elbo_rel_tol}")
        schedule = tuple((float(k), span) for k, span in self.anneal_schedule)
        for kappa, span in schedule:
            if not 0.0 < kappa <= 1.0:
                raise ValueError(f"anneal_schedule: kappa must lie in (0, 1], got {kappa}")
            if not isinstance(span, numbers.Integral) or span < 1:
                raise ValueError(f"anneal_schedule: spans must be positive integers, got {span!r}")
        if schedule and schedule[-1][0] != 1.0:
            raise ValueError("anneal_schedule must end at kappa = 1")
        # a fit must not stop tempered: its factors and bound would not be the model's
        tempered = sum(span for _, span in schedule[:-1])
        if 1 <= self.max_iterations <= tempered:
            raise ValueError(
                f"max_iterations {self.max_iterations} ends inside the annealing schedule, "
                f"whose final kappa = 1 span starts at iteration {tempered + 1}"
            )
        object.__setattr__(self, "anneal_schedule", schedule)

    def kappa_for(self, iteration):
        """Temperature for a 1-based iteration; 1.0 beyond the schedule."""
        offset = 0
        for kappa, span in self.anneal_schedule:
            offset += span
            if iteration <= offset:
                return kappa
        return 1.0


@dataclass(frozen=True)
class FitReport:
    """One bound per sweep, and the `stored_bound` every fit, zero sweeps included, ends in."""

    elbo_trace: tuple           # one total per sweep
    breakdown_trace: tuple      # one ElboBreakdown per sweep
    final_breakdown: object     # stored_bound of the returned state; the last trace entry if any
    converged: bool
    iterations: int
    kappa_log: tuple
    final_prior: object = None   # prior in effect at the last iteration (hyperopt may refresh it)
    e_alpha: np.ndarray = None  # effective-rank summary, variants with q(alpha)
    rotation: np.ndarray = None  # whitening rotation when preprocessing ran


def update_qy(stats, qv, qw, moments=None):
    """Closed-form q(Y) by its covariances; L = I + N A, A = E[V^T W V], is never formed.

    One eigendecomposition A = U diag(lam) U^T (`pencil_inverses` with D = I)
    gives every group's covariance U diag(1 / (1 + N lam)) U^T and
    log-determinant sum ln(1 + N lam). Speaker i's mean is U z_i with
    z_i = (P^T F_i - N_i U^T E[V^T W mu]) / (1 + N_i lam) and P = (E[W] V) U.
    The means are formed speaker-minor: one n_y x d by d x M product P^T F^T,
    scaled in place and mapped back by one n_y x n_y product, so `mean` is
    the transpose of an (n_y, M) array. `moments` are the pair's
    `vtw_moments`, formed here when not given.
    """
    ny = qv.rank
    wvt, quad = vtw_moments(qv, qw) if moments is None else moments
    evtwv = quad[:-1, :-1]
    values, group = stats.count_values, stats.count_group
    vecs, factors, cov, logdets = pencil_inverses(np.ones(ny), evtwv, values, "q(Y) precision")
    z = (wvt[:, :-1] @ vecs).T @ stats.spk_sums.T
    z -= np.outer(quad[:-1, -1] @ vecs, stats.counts)
    z /= factors.T[:, group]
    return QY(mean=(vecs @ z).T, cov=cov, prec_logdets=logdets, group=group)


def update_qvtilde(aggregates, qv, qw, prior, qalpha=None):
    """Row posteriors of the augmented loading, for a validated `prior`: the
    loading prior's `row_posteriors` (the d row precisions "prior part +
    E[W]_rr R", inverted once, and the prior parts of their right-hand sides)
    and the precision arm's `row_means` sweep over them."""
    loading, arm = mdl.SCHEMES[prior.variant]
    wbar = qw.mean
    c, r_yt = aggregates.C, aggregates.R
    prec, prior_rhs, cov, logdets = loading.row_posteriors(prior, qalpha, np.diagonal(wbar), r_yt)
    mean = arm.row_means(wbar, c, r_yt, prior_rhs, cov, qv.mean)
    return QVtilde(mean=mean, prec=prec, cov=cov, prec_logdets=logdets)


def update_qalpha(qv, prior):
    """Relevance posteriors q(alpha) of the variant's loading prior."""
    return mdl.SCHEMES[prior.variant][0].update_qalpha(qv, prior)


def _residual_scatter(stats, aggregates, qv):
    """K = S - C Vt^T - Vt C^T + E[Vt R Vt^T], the expected residual scatter, in
    which E[Vt R Vt^T] = Vt R Vt^T + diag(rho), rho_r = tr(cov_r R).

    K must be finite, which is checked here, and have no eigenvalue below
    -1e-8 max(max|eig|, 1), which the precision arm that reads K certifies.
    """
    c, r_yt = aggregates.C, aggregates.R
    vt = qv.mean
    # K = H + H^T + diag(rho) with H = S/2 - C Vt^T + Vt (R/2) Vt^T, so K is
    # exactly symmetric without a symmetrizing pass
    half = vt @ (0.5 * r_yt) @ vt.T
    half -= c @ vt.T
    half += 0.5 * stats.scatter_total
    k_mat = half + half.T
    k_mat[np.diag_indices_from(k_mat)] += np.einsum("rab,ab->r", qv.cov, r_yt)
    if not np.isfinite(k_mat).all():
        raise FactorizationError("residual scatter has non-finite entries")
    return k_mat


def update_qw(stats, aggregates, qv, prior):
    """Precision posterior for the variant's arm from the expected residual scatter."""
    k_mat = _residual_scatter(stats, aggregates, qv)
    return mdl.SCHEMES[prior.variant][1].update_qw(prior, k_mat, stats.n_total)


def minimum_divergence(qy, qv):
    """Re-standardize the latent prior by folding its mean and covariance into the loading.

    Returns (qy', qv', J): the pooled q(y') gets zero mean and identity average
    second moment while the expected data log-likelihood is left unchanged; the
    loading rows absorb the transform ytilde = J ytilde', J = [[L, mu_y], [0, 1]]
    with L the Cholesky factor of the pooled covariance. Row r of q(Vtilde') has
    precision G^T P_r G, G = J^-T, covariance J^T cov_r J and log-determinant
    ln|P_r| - 2 ln|L|: nothing is refactorized.
    """
    m, ny = qy.mean.shape
    if m < 2:
        raise ValueError("minimum divergence needs at least two speakers")
    mu_y = qy.mean.mean(axis=0)
    sigma_y = sym(qy.second_moment_sum / m - np.outer(mu_y, mu_y))
    chol = spd_cholesky(sigma_y)  # signals singular Sigma_y, never regularizes
    k = ny + 1
    j_mat = np.zeros((k, k))
    j_mat[:ny, :ny] = chol
    j_mat[:ny, -1] = mu_y
    j_mat[-1, -1] = 1.0
    logdet_chol = np.sum(np.log(np.diag(chol)))
    g_mat = np.linalg.inv(j_mat.T)
    qv_new = QVtilde(
        mean=qv.mean @ j_mat,
        prec=g_mat.T @ qv.prec @ g_mat,
        cov=sym(j_mat.T @ qv.cov @ j_mat),
        prec_logdets=qv.prec_logdets - 2.0 * logdet_chol,
    )
    # y' = L^-1 (y - mu_y): covariances L^-1 Sigma_g L^-T, precision log-dets + 2 ln|L|
    a_mat = np.linalg.inv(chol)
    qy_new = QY(
        mean=(qy.mean - mu_y[None, :]) @ a_mat.T,
        cov=sym(a_mat @ qy.cov @ a_mat.T),
        prec_logdets=qy.prec_logdets + 2.0 * logdet_chol,
        group=qy.group,
    )
    return qy_new, qv_new, j_mat


def _within_class_covariance(stats):
    """(S - sum_i F_i F_i^T / N_i) / N, skipping zero-count speakers. The sum
    starts from the first block's product: up to WITHIN_BLOCK_ENTRIES sums, one product."""
    inv_counts = np.where(stats.counts > 0, 1.0 / np.maximum(stats.counts, 1.0), 0.0)
    sums, step = stats.spk_sums, max(1, WITHIN_BLOCK_ENTRIES // stats.dim)
    blocks = ((inv_counts[i:i + step, None] * sums[i:i + step]).T @ sums[i:i + step]
              for i in range(0, stats.n_speakers, step))
    spk_means_scatter = next(blocks)
    for block in blocks:
        spk_means_scatter += block
    return sym((stats.scatter_total - spk_means_scatter) / stats.n_total)


def whitening_rotation(stats):
    """Orthogonal rotation diagonalizing the within-class covariance of the data."""
    if stats.n_total <= 0:
        raise ValueError("whitening needs data")
    _, vecs = np.linalg.eigh(_within_class_covariance(stats))
    return vecs


def _init_state(stats, prior, n_y, seed):
    """Scale-aware random start: data mean, scaled Gaussian loading rows,
    identity row precisions, precision arm matched to the within-class
    covariance, q(alpha) at its prior. No precision whose inverse is known is
    factorized: the identities carry themselves as inverses, and a Wishart
    start reads ln|psi| off the within-class factorization."""
    d = stats.dim
    k = n_y + 1
    n = stats.n_total
    rng = CounterRng(seed)
    if n > 0:
        f = stats.sum_total
        mu_init = f / n
        # trace of the centered scatter S - mu F^T - F mu^T + N mu mu^T, read off its diagonal
        diag = np.diag(stats.scatter_total) - mu_init * f - f * mu_init + n * (mu_init * mu_init)
        tr_sbar = max(float(np.sum(diag)), 0.0)
        scale = 0.5 * math.sqrt(tr_sbar / (n * d * n_y)) if tr_sbar > 0 else 0.5
        v_init = scale * rng.gaussians(d * n_y).reshape(d, n_y)
        within = _within_class_covariance(stats)
        within = within + 1e-6 * max(float(np.trace(within)) / d, 1.0) * np.eye(d)
        w_point, logdet_within = spd_inverse_logdet(within)
        logdet_w_point = -logdet_within
    else:
        mu_init = np.zeros(d)
        v_init = np.zeros((d, n_y))
        w_point, logdet_w_point = np.eye(d), 0.0
    # the identity precisions are their own inverses, of log-determinant 0
    rows = np.tile(np.eye(k), (d, 1, 1))
    qv = QVtilde(mean=np.column_stack([v_init, mu_init]), prec=rows, cov=rows, prec_logdets=np.zeros(d))
    m = stats.n_speakers
    qy = QY(mean=np.zeros((m, n_y)), cov=np.eye(n_y)[None], prec_logdets=np.zeros(1),
            group=np.zeros(m, dtype=int))
    loading, arm = mdl.SCHEMES[prior.variant]
    qw = arm.init_qw(prior, n, d, w_point, logdet_w_point)
    qalpha = loading.init_qalpha(prior, n_y)
    return VariationalState(variant=prior.variant, qy=qy, qv=qv, qw=qw, qalpha=qalpha)


def _hyperopt(state, prior, stats):
    """Empirical-Bayes refresh of V1/V2 hyperparameters; `changed` when a value moves."""
    loading, arm = mdl.SCHEMES[prior.variant]
    updates = loading.refresh(prior, state.qv, state.qalpha)
    if updates is None:
        return state, prior, False
    updates.update(arm.refresh(prior, state.qw))
    changed = any(
        not np.allclose(getattr(prior, name), value, rtol=1e-9, atol=0.0)
        for name, value in updates.items()
    )
    return state, replace(prior, **updates), changed


def _min_divergence(state, prior, stats):
    """Re-standardization of q(Y) and q(Vtilde); one speaker has no pooled
    covariance to fold, so a one-speaker fit is left as it is."""
    if stats.n_speakers < 2:
        return state, prior, False
    qy, qv, _ = minimum_divergence(state.qy, state.qv)
    return replace(state, qy=qy, qv=qv), prior, True


def fit(dataset, partition, prior, config, n_y):
    """Accumulate statistics and run the variational loop on a labelled dataset."""
    stats = accumulate(dataset, partition)
    return fit_stats(stats, prior, config, n_y)


def fit_stats(stats, prior, config, n_y):
    """Variational fit from sufficient statistics.

    Per iteration: q(Vtilde), q(W), q(alpha) where present, then q(Y), each an
    exact coordinate maximizer tempered by the iteration's kappa. The bound is
    recorded after the q(Y) step, whose aggregates and `vtw_moments` the next
    q(Vtilde) step reuses while they belong to its state and kappa; a stale
    q(Y) (first sweep, kappa change, an event's new state) is refreshed from
    the global factors before q(Vtilde). Events follow the bound, never after
    the final sweep: a hyperparameter refresh every `hyperopt_every` sweeps,
    then a minimum-divergence re-standardization every `mindiv_every`, which
    needs two speakers. The fit stops when the relative bound change drops
    below tolerance; the baseline is dropped at kappa < 1 and by an event that
    changes the objective, which a refresh does only when a value moves. Every
    fit, zero sweeps included, ends in one `stored_bound`, on q(Vtilde) and
    q(W) built from their stored numbers as `io.read_model_file` builds them:
    the report's `final_breakdown` and, after a sweep, the last trace entry,
    so `elbo` on the fitted data reproduces both.
    """
    if n_y < 1:
        raise ValueError("latent rank must be at least 1")
    prior = prior.validate(stats.dim, n_y)
    variant = prior.variant
    rotation = None
    if config.whiten:
        loading, arm = mdl.SCHEMES[variant]
        # Whitening diagonalizes the within-class covariance, which only a
        # diagonal-W arm models; a prior from a previous run is tied to that
        # run's coordinates.
        if arm.coupled_rows or not loading.has_alpha:
            raise ValueError("whitening preprocessing applies to the V2 variants only")
        rotation = whitening_rotation(stats)
        stats = rotate(stats, rotation)

    state = _init_state(stats, prior, n_y, config.seed)
    breakdowns = []
    kappa_log = []
    converged = False
    baseline = None  # last bound value comparable under an unchanged objective
    swept = None  # the state whose q(Y) step formed the carried `aggregates` and `moments`
    for iteration in range(1, config.max_iterations + 1):
        kappa = config.kappa_for(iteration)
        if state is not swept:  # the start, or a state an event replaced
            moments = vtw_moments(state.qv, state.qw)
        if state is not swept or kappa != state.kappa:
            aggregates = y_aggregates(update_qy(stats, state.qv, state.qw, moments).anneal(kappa), stats)
        qv = update_qvtilde(aggregates, state.qv, state.qw, prior, state.qalpha).anneal(kappa)
        qw = update_qw(stats, aggregates, qv, prior).anneal(kappa)
        qalpha = state.qalpha
        if qalpha is not None:
            qalpha = update_qalpha(qv, prior).anneal(kappa)
        moments = vtw_moments(qv, qw)
        qy = update_qy(stats, qv, qw, moments).anneal(kappa)
        aggregates = y_aggregates(qy, stats)
        state = swept = VariationalState(
            variant=variant, qy=qy, qv=qv, qw=qw, qalpha=qalpha, iteration=iteration, kappa=kappa
        )
        breakdown = elbo_total(stats, qy, qv, qw, qalpha, prior, aggregates, moments)
        if not math.isfinite(breakdown.total):
            raise NonFiniteElboError(f"lower bound diverged at iteration {iteration}")
        breakdowns.append(breakdown)
        kappa_log.append(kappa)

        if (
            baseline is not None
            and kappa == 1.0
            and abs(breakdown.total - baseline) <= config.elbo_rel_tol * abs(baseline)
        ):
            converged = True
            break
        changed = kappa != 1.0
        for every, event in ((config.hyperopt_every, _hyperopt), (config.mindiv_every, _min_divergence)):
            # none after the final sweep: the saved prior is the recorded bound's
            if every and iteration % every == 0 and iteration < config.max_iterations:
                state, prior, moved = event(state, prior, stats)
                changed = changed or moved
        baseline = None if changed else breakdown.total

    qv = QVtilde.from_precisions(state.qv.mean, state.qv.prec)
    arm = mdl.SCHEMES[variant][1]  # q(W) as the model reader builds it from the written numbers
    numbers = []
    arm.write_qw(state.qw, numbers.append)
    qw = arm.read_qw(lambda shape: numbers.pop(0), qv.dim)
    breakdown = stored_bound(stats, qv, qw, state.qalpha, prior)
    if breakdowns:
        breakdowns[-1] = breakdown

    params = mdl.ModelParams(mu=state.qv.mu, V=state.qv.V, W=state.qw.mean)
    report = FitReport(
        elbo_trace=tuple(b.total for b in breakdowns),
        breakdown_trace=tuple(breakdowns),
        final_breakdown=breakdown,
        converged=converged,
        iterations=state.iteration,
        kappa_log=tuple(kappa_log),
        final_prior=prior,
        e_alpha=None if state.qalpha is None else state.qalpha.mean.copy(),
        rotation=rotation,
    )
    return state, params, report


def stored_bound(stats, qv, qw, qalpha, prior):
    """The bound of a stored model on `stats`, as `elbo` evaluates it and as
    every fit ends with it: q(Vtilde) and q(W) as
    `QVtilde.from_precisions` and the arm's `read_qw` build them from their
    stored numbers, and q(Y) at its closed-form optimum given them."""
    moments = vtw_moments(qv, qw)
    qy = update_qy(stats, qv, qw, moments)
    return elbo_total(stats, qy, qv, qw, qalpha, prior, None, moments)


def heldout_bound(qv, qw, stats):
    """Per-speaker-refreshed bound on new data with the global factors frozen.

    q(Y) is set to its closed-form optimum given q(Vtilde) and q(W); the score
    is the data term plus the latent prior term minus the latent entropy, a
    lower bound on the expected held-out log-likelihood.
    """
    moments = vtw_moments(qv, qw)
    qy = update_qy(stats, qv, qw, moments)
    data_term = elbo_data_term(stats, y_aggregates(qy, stats), qv, qw, moments)
    y_prior, y_entropy_neg = elbo_y_terms(qy)
    return data_term + y_prior - y_entropy_neg
