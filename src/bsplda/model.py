"""Model parameters, the seven prior schemes, and the data conditional likelihood.

A prior scheme is a (loading prior, precision arm) pair. The loading prior is
either ARD columns with a Gaussian mean, trained from scratch with a relevance
posterior q(alpha), or full-covariance Gaussian rows taken from a previous
run's posterior. The precision arm is a Wishart, its flat limit, or Gammas on
diag(W): one GammaArm class, whose two instances give each diagonal entry its
own rate or let one rate cover them all (an isotropic W = w I). SCHEMES maps
each variant name to its pair; every decision that depends on the variant is a
method or an attribute of these objects. The loading prior assembles the
q(Vtilde) row precisions (`row_posteriors`) and the precision arm sweeps the
row means (`row_means`): a full W couples them, a diagonal W does not.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import hyperopt
from .linalg import (
    FactorizationError,
    check_psd,
    pencil_inverses,
    require_symmetric,
    spd_cholesky,
    spd_inverse_logdet,
    spd_logdet,
    sym,
)
from .numerics import LOG2PI, expected_log_gamma_pdf, wishart_log_B
from .posterior import QAlpha, QWGamma, QWWishart

__all__ = [
    "ModelParams",
    "PriorConfig",
    "VARIANTS",
    "SCHEMES",
    "V1_WISHART_INFORMATIVE",
    "V1_WISHART_NONINFORMATIVE",
    "V2_GAMMA_DIAGONAL",
    "V2_GAMMA_ISOTROPIC",
    "V3_GAUSSV_WISHART",
    "V4_GAUSSV_GAMMA_DIAGONAL",
    "V4_GAUSSV_GAMMA_ISOTROPIC",
    "ARD_COLUMNS",
    "GAUSS_ROWS",
    "WISHART",
    "FLAT_WISHART",
    "GAMMA_DIAGONAL",
    "GAMMA_ISOTROPIC",
    "scalar_or_list",
    "conditional_loglik",
    "conditional_loglik_traced",
    "conditional_loglik_augmented",
    "conditional_loglik_augmented_traced",
]

V1_WISHART_INFORMATIVE = "V1-Wishart-informative"
V1_WISHART_NONINFORMATIVE = "V1-Wishart-noninformative"
V2_GAMMA_DIAGONAL = "V2-Gamma-diagonal"
V2_GAMMA_ISOTROPIC = "V2-Gamma-isotropic"
V3_GAUSSV_WISHART = "V3-GaussV-Wishart"
V4_GAUSSV_GAMMA_DIAGONAL = "V4-GaussV-Gamma-diagonal"
V4_GAUSSV_GAMMA_ISOTROPIC = "V4-GaussV-Gamma-isotropic"


@dataclass(frozen=True)
class ModelParams:
    """Point parameters: mean mu, loading matrix V, within-class precision W."""

    mu: np.ndarray
    V: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        V = np.asarray(self.V, dtype=float)
        W = np.asarray(self.W, dtype=float)
        d = mu.shape[0]
        if mu.ndim != 1 or V.ndim != 2 or V.shape[0] != d or V.shape[1] < 1:
            raise ValueError(f"inconsistent shapes mu {mu.shape}, V {V.shape}")
        if W.shape != (d, d):
            raise ValueError(f"W has shape {W.shape}, expected ({d}, {d})")
        if not np.isfinite(W).all():
            raise ValueError("W has non-finite entries")
        require_symmetric(W, "W")
        spd_cholesky(W)  # signals non-PD instead of regularizing
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", sym(W))

    @property
    def dim(self):
        return self.mu.shape[0]

    @property
    def rank(self):
        return self.V.shape[1]

    @cached_property
    def logdet_W(self):
        return spd_logdet(self.W)

    def augmented(self):
        """The augmented loading [V mu], (d, n_y+1): the mean folded in as the last column."""
        return np.column_stack([self.V, self.mu])


@dataclass(frozen=True)
class PriorConfig:
    """Hyperparameters of one prior scheme; unused fields stay None.

    V1/V2 carry the hierarchical column prior (a_alpha, b_alpha), the Gaussian
    mean prior (mu0, beta) and either a Wishart (psi0, nu_d; None for the
    non-informative limit) or Gamma (a_w, b_w) precision prior. V3/V4 replace
    the column/mean priors with per-row Gaussians (v_row_means,
    v_row_precisions) computed from a large corpus. Which fields a variant
    reads, and how they are checked, is up to its SCHEMES entry.
    """

    variant: str
    mu0: np.ndarray = None
    beta: np.ndarray = None
    a_alpha: float = None
    b_alpha: float = None
    a_w: float = None
    b_w: np.ndarray = None       # scalar for V2/isotropic, per-row vector for V4-diagonal
    psi0: np.ndarray = None
    nu_d: float = None
    v_row_means: np.ndarray = None       # (d, n_y+1)
    v_row_precisions: np.ndarray = None  # (d, n_y+1, n_y+1)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        for name in ("mu0", "beta", "b_w", "psi0", "v_row_means", "v_row_precisions"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, np.asarray(value, dtype=float))

    def validate(self, d, n_y):
        """Check presence, shapes and positivity of every field the variant uses.

        Returns a copy whose vector fields are broadcast to their full length
        and whose matrices, symmetric to rounding, are symmetrized; this prior
        is left as it is, so it can be validated again at another d.
        """
        loading, arm = SCHEMES[self.variant]
        # A previous run's posterior gives each row its own Gamma rate; a prior
        # trained from scratch shares one rate, the one hyperopt refreshes.
        return replace(
            self,
            **loading.validate(self, d, n_y),
            **arm.validate(self, d, per_row=not loading.has_alpha),
        )

    @cached_property
    def psi0_inv_logdet(self):
        """(psi0^-1, ln|psi0|) from one Cholesky factor of the Wishart scale, once per prior."""
        return spd_inverse_logdet(self.psi0)

    @cached_property
    def psi0_log_B(self):
        """ln B(psi0, nu_d), the Wishart prior's normalizer, once per prior."""
        return wishart_log_B(self.psi0_inv_logdet[1], self.nu_d, self.psi0.shape[0])

    @cached_property
    def v_row_logdets(self):
        """ln|L0_r| of the d row-prior precisions, computed once per prior."""
        return spd_logdet(self.v_row_precisions)

    @cached_property
    def v_row_rhs(self):
        """L0_r m0_r, each row-prior precision times its mean, computed once per prior."""
        return np.einsum("rab,rb->ra", self.v_row_precisions, self.v_row_means)

    def _require_positive_scalar(self, name):
        value = getattr(self, name)
        if value is None or not np.isfinite(value) or value <= 0:
            raise ValueError(f"{self.variant} requires positive {name}, got {value!r}")



def _scalar_or_length(prior, name, d):
    """Field `name` of `prior` as a finite length-d vector; one number covers all d entries."""
    value = getattr(prior, name)
    if value is None:
        raise ValueError(f"{prior.variant} requires {name}")
    value = np.atleast_1d(value)
    if not np.isfinite(value).all():
        raise ValueError(f"{prior.variant} requires finite {name}, got {value.tolist()}")
    if value.size == 1:
        return np.full(d, float(value.flat[0]))
    if value.shape != (d,):
        raise ValueError(
            f"{prior.variant} takes {name} as a scalar or length-{d}, got shape {value.shape}"
        )
    return value


def _symmetric_spd(name, matrices):
    """A prior matrix, or each of a stack, symmetrized: it must be positive
    definite and symmetric to rounding, an input error if not."""
    try:
        spd_cholesky(matrices)
    except FactorizationError as exc:
        raise ValueError(f"{name} must be positive definite") from exc
    except ValueError as exc:  # non-finite entries
        raise ValueError(f"{name}: {exc}") from exc
    require_symmetric(matrices, name)
    return sym(matrices)


def scalar_or_list(text):
    """A config value: one float, or a comma-separated list as an array."""
    values = [float(v) for v in text.split(",")]
    return values[0] if len(values) == 1 else np.array(values)


class ArdColumns:
    """Gaussian-Gamma (ARD) loading columns and a Gaussian prior on the mean.

    Trained from scratch: the relevance posterior q(alpha) exists and the
    hyperparameters (a_alpha, b_alpha, mu0, beta) are refreshed by hyperopt.
    """

    has_alpha = True

    def validate(self, prior, d, n_y):
        """The broadcast mean-prior fields, mu0 and beta."""
        prior._require_positive_scalar("a_alpha")
        prior._require_positive_scalar("b_alpha")
        mu0 = _scalar_or_length(prior, "mu0", d)
        beta = _scalar_or_length(prior, "beta", d)
        if np.any(beta <= 0):
            raise ValueError("beta entries must be positive")
        return {"mu0": mu0, "beta": beta}

    def row_posteriors(self, prior, qalpha, wdiag, r_yt):
        """(precisions, prior parts of the right-hand sides, covariances,
        log-determinants) of the rows: prec_r = diag(E[alpha], beta_r) + w_r R,
        whose prior part of the right-hand side is (0, beta_r mu0_r).

        The loading block A_r = diag(E[alpha]) + w_r R_yy goes through
        `pencil_inverses`; the mean coordinate is its Schur complement
        s_r = beta_r + w_r (N - r^T g_r), g_r = w_r A_r^-1 r, with (r, N) the last
        column of R. So cov_r = [[A_r^-1 + g g^T / s_r, -g / s_r], [-g^T / s_r,
        1 / s_r]] and ln|prec_r| = ln|A_r| + ln s_r: beta_r only adds to s_r.
        An s_r that is not positive means a precision that is not positive
        definite: FactorizationError, as its Cholesky factorization would raise.
        """
        name = "q(Vtilde) row precision"
        beta = prior.beta
        prec = wdiag[:, None, None] * r_yt
        diagonals = np.einsum("rkk->rk", prec)  # a writable view
        diagonals[:, :-1] += qalpha.mean
        diagonals[:, -1] += beta
        rhs = np.zeros(prec.shape[:2])
        rhs[:, -1] = beta * prior.mu0
        r, count = r_yt[:-1, -1], r_yt[-1, -1]
        basis, factors, block, logdets = pencil_inverses(qalpha.mean, r_yt[:-1, :-1], wdiag, name)
        g = (wdiag[:, None] * (basis.T @ r) / factors) @ basis.T  # w_r A_r^-1 r of every row
        s = beta + wdiag * (count - g @ r)
        if not np.all(s > 0.0):
            raise FactorizationError(f"a {name} is not positive definite")
        h = np.column_stack([g, -np.ones_like(s)]) / np.sqrt(s)[:, None]
        cov = h[:, :, None] * h[:, None, :]  # [[g g^T, -g], [-g^T, 1]] / s_r, exactly symmetric
        cov[:, :-1, :-1] += block
        return prec, rhs, cov, logdets + np.log(s)

    def init_qalpha(self, prior, n_y):
        return QAlpha(a=prior.a_alpha, b=np.full(n_y, prior.b_alpha))

    def update_qalpha(self, qv, prior):
        """Gamma relevance posteriors: a' = a + d/2, b'_q = b + E[v_q^T v_q]/2."""
        return QAlpha(a=prior.a_alpha + 0.5 * qv.dim, b=prior.b_alpha + 0.5 * qv.col_sq_norms)

    def bound_terms(self, qv, qalpha, prior):
        """(v_prior, alpha_prior, alpha_entropy_neg, mu_prior) of the hierarchical column prior."""
        d, k = qv.mean.shape
        ny = k - 1
        e_alpha, e_ln_alpha = qalpha.mean, qalpha.mean_log
        v_prior = float(
            -0.5 * ny * d * LOG2PI
            + 0.5 * d * np.sum(e_ln_alpha)
            - 0.5 * np.sum(e_alpha * qv.col_sq_norms)
        )
        alpha_prior = expected_log_gamma_pdf(prior.a_alpha, prior.b_alpha, e_ln_alpha, e_alpha)
        beta = prior.beta
        mu_mean, mu_var = qv.mu, qv.mu_var
        residual = mu_var + mu_mean**2 - 2.0 * prior.mu0 * mu_mean + prior.mu0**2
        mu_prior = float(
            -0.5 * d * LOG2PI + 0.5 * np.sum(np.log(beta)) - 0.5 * np.sum(beta * residual)
        )
        return v_prior, alpha_prior, qalpha.neg_entropy, mu_prior

    def refresh(self, prior, qv, qalpha):
        """Empirical-Bayes (a_alpha, b_alpha, mu0, beta)."""
        a_alpha, b_alpha = hyperopt.optimize_alpha_hyper(
            qalpha.mean_log, qalpha.mean, prior.a_alpha
        )
        mu0, beta = hyperopt.optimize_mu_prior(qv)
        return {"a_alpha": a_alpha, "b_alpha": b_alpha, "mu0": mu0, "beta": beta}

    def train_prior(self, get):
        """PriorConfig fields from `get(key, cast, default)` over the training config."""
        return dict(
            a_alpha=get("a_alpha", float, 1e-3),
            b_alpha=get("b_alpha", float, 1e-3),
            mu0=get("mu0", scalar_or_list, 0.0),
            beta=get("beta", scalar_or_list, 1.0),
        )


class GaussRows:
    """Full-covariance Gaussian loading rows: a previous run's q(Vtilde), held fixed."""

    has_alpha = False

    def validate(self, prior, d, n_y):
        k = n_y + 1
        if prior.v_row_means is None or prior.v_row_precisions is None:
            raise ValueError(f"{prior.variant} requires row priors (v_row_means, v_row_precisions)")
        if prior.v_row_means.shape != (d, k):
            raise ValueError(f"v_row_means has shape {prior.v_row_means.shape}, expected ({d}, {k})")
        if prior.v_row_precisions.shape != (d, k, k):
            raise ValueError(
                f"v_row_precisions has shape {prior.v_row_precisions.shape}, expected ({d}, {k}, {k})"
            )
        return {"v_row_precisions": _symmetric_spd("v_row_precisions", prior.v_row_precisions)}

    def row_posteriors(self, prior, qalpha, wdiag, r_yt):
        """(precisions, prior parts of the right-hand sides, covariances,
        log-determinants) of the rows: prec_r = L0_r + w_r R, with L0_r m0_r on
        the right-hand side. The row priors share no structure, so the
        precisions go through one batched Cholesky."""
        prec = wdiag[:, None, None] * r_yt
        prec += prior.v_row_precisions
        return (prec, prior.v_row_rhs, *spd_inverse_logdet(prec))

    def init_qalpha(self, prior, n_y):
        return None

    def bound_terms(self, qv, qalpha, prior):
        """(v_prior, 0, 0, 0): the joint row prior; no alpha or separate mean block."""
        d, k = qv.mean.shape
        l0 = prior.v_row_precisions
        delta = qv.mean - prior.v_row_means
        trace_term = float(np.einsum("rab,rab->", l0, qv.cov))
        quad_term = float(np.einsum("ra,rab,rb->", delta, l0, delta))
        v_prior = float(
            -0.5 * d * k * LOG2PI
            + 0.5 * np.sum(prior.v_row_logdets)
            - 0.5 * trace_term
            - 0.5 * quad_term
        )
        return v_prior, 0.0, 0.0, 0.0

    def refresh(self, prior, qv, qalpha):
        """None: a prior taken from a previous run stays fixed."""
        return None

    def train_prior(self, get):
        raise ValueError(
            "the adaptation variants take their priors from a previously trained model; "
            "use the adapt command"
        )


def _require_n_above_d(n, d):
    if n <= d:
        raise ValueError(f"non-informative precision prior requires N > d (got N={n:g}, d={d})")


def _scatter_inverse(a, k_mat):
    """spd_inverse_logdet(a) for a q(W) update from the residual scatter K; when
    `a` fails to factorize, check_psd first reports a K that lost positive
    semidefiniteness, and only then is the factorization's own error raised."""
    try:
        return spd_inverse_logdet(a)
    except FactorizationError:
        check_psd(k_mat, "residual scatter")
        raise


def _wishart_start(w_point, logdet_w_point, nu):
    """The Wishart of mean `w_point` and dof nu: psi = w_point / nu, whose
    ln|psi| = ln|w_point| - d ln nu needs no factorization."""
    d = w_point.shape[0]
    return QWWishart(psi=w_point / nu, nu=nu, logdet_psi=logdet_w_point - d * math.log(nu))


class WishartArm:
    """Wishart(psi0, nu_d) prior on the full within-class precision."""

    tag = 1  # model-container tag of the q(W) block
    coupled_rows = True  # a full W: whitening, which assumes a diagonal W, does not apply
    adapted_variant = V3_GAUSSV_WISHART

    def validate(self, prior, d, per_row):
        if prior.psi0 is None or prior.nu_d is None:
            raise ValueError(f"{prior.variant} requires psi0 and nu_d")
        if prior.psi0.shape != (d, d):
            raise ValueError(f"psi0 has shape {prior.psi0.shape}, expected ({d}, {d})")
        psi0 = _symmetric_spd("psi0", prior.psi0)
        if not d - 1 < prior.nu_d < math.inf:  # also rejects NaN
            raise ValueError(f"nu_d must be finite and exceed d-1={d - 1}, got {prior.nu_d}")
        return {"psi0": psi0}

    def init_qw(self, prior, n, d, w_point, logdet_w_point):
        """Start matched to the point precision `w_point` of log-determinant
        `logdet_w_point`; at the prior without data."""
        if n > 0:
            return _wishart_start(w_point, logdet_w_point, prior.nu_d + n)
        return QWWishart.from_psi(prior.psi0, prior.nu_d)

    def update_qw(self, prior, k_mat, n):
        """q(W) from the expected residual scatter K of n vectors.

        K >= 0 iff psi0^-1 + K >= psi0^-1 iff lambda_max(psi0^-1/2 psi psi0^-1/2) <= 1,
        and that eigenvalue is at most tr(psi0^-1 psi). A trace up to 1/2 thus
        certifies K, with room for rounding, from the factor the update makes
        anyway; above it check_psd decides.
        """
        psi0_inv = prior.psi0_inv_logdet[0]
        psi, logdet = _scatter_inverse(psi0_inv + k_mat, k_mat)
        if not np.sum(psi0_inv * psi) <= 0.5:
            check_psd(k_mat, "residual scatter")
        return QWWishart(psi=psi, nu=prior.nu_d + n, logdet_psi=-logdet)

    def row_means(self, wbar, c, r_yt, prior_rhs, cov, old_mean):
        """The q(Vtilde) row means given E[W] = `wbar`, the row covariances and
        the prior parts of the right-hand sides. A full W couples the rows: one
        Gauss-Seidel sweep refreshes them in ascending order, each seeing the
        newest means of the others (an exact coordinate maximizer per row). Row
        r's right-hand side holds W_rr C_r + sum_{s != r} W_rs (C_s - v_s R),
        v_s new for s < r: `old_mean` and C give every row's part at once, and
        forward substitution subtracts (W_r,:r V_:r) R cov_r from row r."""
        rhs = prior_rhs + wbar @ c - (np.triu(wbar, 1) @ old_mean) @ r_yt
        mean = (rhs[:, None, :] @ cov)[:, 0, :]
        gain = r_yt @ cov  # row r: R cov_r
        for row in range(1, len(mean)):  # np.dot dispatches these small products faster than @
            mean[row] -= np.dot(np.dot(wbar[row, :row], mean[:row]), gain[row])
        return mean

    def w_prior(self, qw, prior):
        """E[ln P(W)]."""
        d = qw.dim
        psi0_inv = prior.psi0_inv_logdet[0]
        return float(
            prior.psi0_log_B
            + 0.5 * (prior.nu_d - d - 1) * qw.mean_logdet
            - 0.5 * qw.nu * np.sum(psi0_inv * qw.psi)
        )

    def refresh(self, prior, qw):
        return {}

    def train_prior(self, get, d):
        scale = get("psi0_scale", float, 1.0)
        return dict(psi0=np.diag(np.full(d, scale)), nu_d=get("nu_d", float, float(d + 2)))

    def adaptation_prior(self, qw):
        """Precision-prior fields of the adapted variant, from this arm's posterior."""
        return dict(psi0=qw.psi, nu_d=qw.nu)

    def write_qw(self, qw, put):
        put(qw.nu)
        put(qw.psi)

    def read_qw(self, get, d):
        nu = get(())
        psi = get((d, d))
        require_symmetric(psi, "qw.psi")
        try:
            return QWWishart.from_psi(psi, nu)
        except FactorizationError as exc:
            raise ValueError("qw.psi must be positive definite") from exc


class FlatWishartArm(WishartArm):
    """The flat (non-informative) limit of the Wishart prior; needs N > d."""

    def validate(self, prior, d, per_row):
        return {}  # no hyperparameters

    def init_qw(self, prior, n, d, w_point, logdet_w_point):
        _require_n_above_d(n, d)
        return _wishart_start(w_point, logdet_w_point, max(n, d + 2.0))

    def update_qw(self, prior, k_mat, n):
        """q(W) from the inverse of K, whose Cholesky factor certifies K."""
        _require_n_above_d(n, k_mat.shape[0])
        psi, logdet = _scatter_inverse(k_mat, k_mat)
        return QWWishart(psi=psi, nu=n, logdet_psi=-logdet)

    def w_prior(self, qw, prior):
        return float(-0.5 * (qw.dim + 1) * qw.mean_logdet)

    def train_prior(self, get, d):
        return {}


class GammaArm:
    """Gamma(a_w, b_w) priors on the diagonal precisions of W, which stays diagonal.

    With `shared` one Gamma covers the scalar precision of W = w I; without it
    each diagonal entry has its own. That choice decides the pooled statistics,
    the shape increment, the rates used without data and how many b_w entries
    the prior may hold; everything else is one code path.
    """

    coupled_rows = False  # a diagonal W: whitening applies

    def __init__(self, tag, adapted_variant, shared):
        self.tag = tag  # model-container tag of the q(W) block
        self.adapted_variant = adapted_variant
        self.shared = shared

    def _n_factors(self, d):
        """The number of Gamma factors: one shared by the d entries, or one per entry."""
        return 1 if self.shared else d

    def _shape(self, prior, n, d):
        """a_w + n/2 for each diagonal entry a factor covers."""
        return prior.a_w + 0.5 * n * (d if self.shared else 1)

    def _pooled(self, diag, reduce):
        """Per-entry statistics, or their reduction to the one shared factor."""
        return reduce(diag, keepdims=True) if self.shared else diag

    def validate(self, prior, d, per_row):
        """The rate field b_w: one rate per row for a previous run's diagonal posterior, else one."""
        prior._require_positive_scalar("a_w")
        b_w = _scalar_or_length(prior, "b_w", d if per_row and not self.shared else 1)
        if np.any(b_w <= 0):
            raise ValueError("b_w must be positive")
        return {"b_w": b_w}

    def init_qw(self, prior, n, d, w_point, logdet_w_point=None):
        """Start matched to the diagonal of the point precision `w_point`; at the
        prior without data. Only the Wishart arms read `logdet_w_point`."""
        if n > 0:
            a = self._shape(prior, n, d)
            return QWGamma(a=a, b=a / self._pooled(np.diag(w_point), np.mean), dim=d)
        return QWGamma(a=prior.a_w, b=np.full(self._n_factors(d), prior.b_w), dim=d)

    def update_qw(self, prior, k_mat, n):
        """q(W) from the diagonal of the expected residual scatter K of n vectors.

        Only diag K or tr K is read, so no factorization of the step certifies
        K: check_psd does."""
        check_psd(k_mat, "residual scatter")
        d = k_mat.shape[0]
        return QWGamma(
            a=self._shape(prior, n, d),
            b=prior.b_w + 0.5 * self._pooled(np.diag(k_mat), np.sum),
            dim=d,
        )

    def row_means(self, wbar, c, r_yt, prior_rhs, cov, old_mean):
        """The q(Vtilde) row means: a diagonal W decouples the rows; `old_mean` is not read."""
        rhs = prior_rhs + np.diagonal(wbar)[:, None] * c
        return (rhs[:, None, :] @ cov)[:, 0, :]

    def w_prior(self, qw, prior):
        return expected_log_gamma_pdf(prior.a_w, prior.b_w, qw.mean_log, qw.factor_mean)

    def refresh(self, prior, qw):
        """Empirical-Bayes (a_w, b_w), one rate shared by every factor."""
        a_w, b_w = hyperopt.optimize_w_hyper(qw.mean_log, qw.factor_mean, prior.a_w)
        return {"a_w": a_w, "b_w": np.array([b_w])}

    def train_prior(self, get, d):
        return dict(a_w=get("a_w", float, 1e-3), b_w=get("b_w", float, 1e-3))

    def adaptation_prior(self, qw):
        return dict(a_w=qw.a, b_w=qw.b)

    def write_qw(self, qw, put):
        put(qw.a)
        put(qw.b)

    def read_qw(self, get, d):
        a = get(())
        return QWGamma(a=a, b=get((self._n_factors(d),)), dim=d)


ARD_COLUMNS = ArdColumns()
GAUSS_ROWS = GaussRows()
WISHART = WishartArm()
FLAT_WISHART = FlatWishartArm()
GAMMA_DIAGONAL = GammaArm(tag=2, adapted_variant=V4_GAUSSV_GAMMA_DIAGONAL, shared=False)
GAMMA_ISOTROPIC = GammaArm(tag=3, adapted_variant=V4_GAUSSV_GAMMA_ISOTROPIC, shared=True)

# variant -> (loading prior, precision arm); the order fixes the model-container variant tag.
SCHEMES = {
    V1_WISHART_INFORMATIVE: (ARD_COLUMNS, WISHART),
    V1_WISHART_NONINFORMATIVE: (ARD_COLUMNS, FLAT_WISHART),
    V2_GAMMA_DIAGONAL: (ARD_COLUMNS, GAMMA_DIAGONAL),
    V2_GAMMA_ISOTROPIC: (ARD_COLUMNS, GAMMA_ISOTROPIC),
    V3_GAUSSV_WISHART: (GAUSS_ROWS, WISHART),
    V4_GAUSSV_GAMMA_DIAGONAL: (GAUSS_ROWS, GAMMA_DIAGONAL),
    V4_GAUSSV_GAMMA_ISOTROPIC: (GAUSS_ROWS, GAMMA_ISOTROPIC),
}
VARIANTS = tuple(SCHEMES)


def _logdet_term(n_i, params_logdet, d):
    return 0.5 * n_i * (params_logdet - d * LOG2PI)


def conditional_loglik(n_i, fbar_i, sbar_i, y, params):
    """ln P(speaker data | y, params) from centered statistics.

    (N_i/2) ln|W/2pi| - tr(W Sbar_i)/2 + y^T V^T W Fbar_i - (N_i/2) y^T V^T W V y
    """
    d = params.dim
    wf = params.W @ fbar_i
    wv = params.W @ params.V
    return float(
        _logdet_term(n_i, params.logdet_W, d)
        - 0.5 * np.sum(params.W * sbar_i)
        + y @ (params.V.T @ wf)
        - 0.5 * n_i * y @ (params.V.T @ wv) @ y
    )


def conditional_loglik_traced(n_i, f_i, s_i, y, params):
    """Same likelihood written as a single trace against raw statistics."""
    mu, V, W = params.mu, params.V, params.W
    d = params.dim
    vy = V @ y
    inner = (
        s_i
        - 2.0 * np.outer(f_i, mu)
        + n_i * np.outer(mu, mu)
        - 2.0 * np.outer(f_i - n_i * mu, vy)
        + n_i * np.outer(vy, vy)
    )
    return float(_logdet_term(n_i, params.logdet_W, d) - 0.5 * np.sum(W * inner.T))


def conditional_loglik_augmented(n_i, f_i, s_i, ytilde, vtilde, W, logdet_W=None):
    """ln P(speaker data | ytilde, [V mu], W) from raw statistics; `vtilde` is
    the (d, n_y+1) augmented loading [V mu].

    (N_i/2) ln|W/2pi| - tr(W S_i)/2 + yt^T Vt^T W F_i - (N_i/2) yt^T Vt^T W Vt yt
    """
    ytilde = np.asarray(ytilde, dtype=float)
    if ytilde[-1] != 1.0:
        raise ValueError(f"last entry of the augmented factor must be 1, got {ytilde[-1]}")
    vt = np.asarray(vtilde, dtype=float)
    d = vt.shape[0]
    if logdet_W is None:
        logdet_W = spd_logdet(W)
    wf = W @ f_i
    wvt = W @ vt
    return float(
        _logdet_term(n_i, logdet_W, d)
        - 0.5 * np.sum(W * s_i)
        + ytilde @ (vt.T @ wf)
        - 0.5 * n_i * ytilde @ (vt.T @ wvt) @ ytilde
    )


def conditional_loglik_augmented_traced(n_i, f_i, s_i, ytilde, vtilde, W, logdet_W=None):
    """Augmented likelihood written as a single trace."""
    ytilde = np.asarray(ytilde, dtype=float)
    if ytilde[-1] != 1.0:
        raise ValueError(f"last entry of the augmented factor must be 1, got {ytilde[-1]}")
    vt = np.asarray(vtilde, dtype=float)
    d = vt.shape[0]
    if logdet_W is None:
        logdet_W = spd_logdet(W)
    vy = vt @ ytilde
    inner = s_i - 2.0 * np.outer(f_i, vy) + n_i * np.outer(vy, vy)
    return float(_logdet_term(n_i, logdet_W, d) - 0.5 * np.sum(W * inner.T))
