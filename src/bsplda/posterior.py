"""Variational posterior factors and their moments.

All factor types are immutable values. The Gaussian factors and the Wishart
hold the inverses and log-determinants that the step forming them computes;
only `QVtilde.from_precisions` and `QWWishart.from_psi`, which build a factor
from stored numbers, factorize. Moments derived from those fields are cached
lazily, and a new value starts with no cache, so caches can never go stale.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .linalg import spd_inverse_logdet, spd_logdet, sym
from .numerics import LOG2, digamma, gamma_neg_entropy, wishart_digamma_sum, wishart_log_B

__all__ = [
    "QY",
    "QVtilde",
    "QAlpha",
    "QWWishart",
    "QWGamma",
    "YAggregates",
    "y_aggregates",
    "vtw_moments",
]


def _is_identity_temperature(kappa):
    """True at kappa = 1, where tempering returns the factor itself; kappa must lie in (0, 1]."""
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    return kappa == 1.0


class _Gamma:
    """Gamma factors with one shape a and rates b."""

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if self.a <= 0 or np.any(b <= 0):
            raise ValueError("Gamma parameters must be positive")
        object.__setattr__(self, "b", b)

    def anneal(self, kappa):
        """The factor to the power kappa, renormalized: (kappa(a-1)+1, kappa b)."""
        if _is_identity_temperature(kappa):  # the formula can move a in its last bit
            return self
        a = kappa * (self.a - 1.0) + 1.0
        if a <= 0:
            raise ValueError(f"annealed Gamma shape must stay positive, got {a}")
        return replace(self, a=a, b=kappa * self.b)

    @cached_property
    def neg_entropy(self):
        """E[ln q] of the Gamma factors."""
        return gamma_neg_entropy(self.a, self.b)

    @cached_property
    def mean_log(self):
        """E[ln x] of each factor: psi(a) - ln b."""
        return digamma(self.a) - np.log(self.b)


@dataclass(frozen=True)
class QY:
    """Gaussian factors over the latent speaker vectors, held by the moments the
    sweep and the bound read: speaker i has mean `mean[i]`, covariance
    `cov[group[i]]` and precision log-determinant `prec_logdets[group[i]]`.
    The q(Y) update puts the speakers that share a count in one group."""

    mean: np.ndarray          # (M, n_y)
    cov: np.ndarray           # (G, n_y, n_y)
    prec_logdets: np.ndarray  # (G,)
    group: np.ndarray         # (M,) index into cov

    def __post_init__(self):
        for name in ("mean", "cov", "prec_logdets"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        object.__setattr__(self, "group", np.asarray(self.group, dtype=np.intp))
        mean, cov, logdets, group = self.mean, self.cov, self.prec_logdets, self.group
        if mean.ndim != 2 or cov.shape[1:] != (mean.shape[1],) * 2 or logdets.shape != cov.shape[:1]:
            raise ValueError(f"inconsistent shapes mean {mean.shape}, cov {cov.shape}, "
                             f"prec_logdets {logdets.shape}")
        if group.shape != mean.shape[:1]:
            raise ValueError(f"group has shape {group.shape}, expected ({mean.shape[0]},)")
        if group.size and (group.min() < 0 or group.max() >= cov.shape[0]):
            raise ValueError(f"group indices must lie in [0, {cov.shape[0]})")

    @property
    def n_speakers(self):
        return self.mean.shape[0]

    @property
    def rank(self):
        return self.mean.shape[1]

    def anneal(self, kappa):
        """The factor to the power kappa, renormalized: cov / kappa, ln|P| + n_y ln kappa."""
        if _is_identity_temperature(kappa):
            return self
        logdets = self.prec_logdets + self.rank * math.log(kappa)
        return replace(self, cov=self.cov / kappa, prec_logdets=logdets)

    @cached_property
    def group_sizes(self):
        """n_g: the number of speakers in each group."""
        return np.bincount(self.group, minlength=self.cov.shape[0]).astype(float)

    @cached_property
    def second_moment_sum(self):
        """sum_i E[y_i y_i^T] = sum_g n_g Sigma_g + Ybar^T Ybar."""
        return np.einsum("g,gab->ab", self.group_sizes, self.cov) + self.mean.T @ self.mean


@dataclass(frozen=True)
class QVtilde:
    """Independent Gaussian factors over the rows of the augmented loading [V mu]:
    row r has mean `mean[r]`, precision `prec[r]`, covariance `cov[r]` and
    precision log-determinant `prec_logdets[r]`. The precisions are what the
    model file stores and the adaptation prior reads; the step that forms the
    factor sets all four fields."""

    mean: np.ndarray          # (d, n_y+1); row r is the posterior mean of row r of [V mu]
    prec: np.ndarray          # (d, n_y+1, n_y+1)
    cov: np.ndarray           # (d, n_y+1, n_y+1)
    prec_logdets: np.ndarray  # (d,)

    def __post_init__(self):
        for name in ("mean", "prec", "cov", "prec_logdets"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        mean, prec, cov, logdets = self.mean, self.prec, self.cov, self.prec_logdets
        rows = mean.shape[:1] + mean.shape[1:] * 2  # (d, k, k) for a (d, k) mean
        if mean.ndim != 2 or prec.shape != rows or cov.shape != rows or logdets.shape != rows[:1]:
            raise ValueError(f"inconsistent shapes mean {mean.shape}, prec {prec.shape}, "
                             f"cov {cov.shape}, prec_logdets {logdets.shape}")

    @classmethod
    def from_precisions(cls, mean, prec):
        """The factor of stored means and row precisions, inverted by one batched
        Cholesky factorization; FactorizationError if a precision is not
        positive definite."""
        cov, logdets = spd_inverse_logdet(prec)
        return cls(mean=mean, prec=prec, cov=cov, prec_logdets=logdets)

    def anneal(self, kappa):
        """The factor to the power kappa, renormalized: kappa P, cov / kappa, ln|P| + k ln kappa."""
        if _is_identity_temperature(kappa):
            return self
        logdets = self.prec_logdets + self.prec.shape[-1] * math.log(kappa)
        return replace(self, prec=kappa * self.prec, cov=self.cov / kappa, prec_logdets=logdets)

    @property
    def dim(self):
        return self.mean.shape[0]

    @property
    def rank(self):
        return self.mean.shape[1] - 1

    @property
    def V(self):
        return self.mean[:, :-1]

    @property
    def mu(self):
        return self.mean[:, -1]

    @property
    def mu_var(self):
        """Posterior variance of each component of mu (mu block of the row covariances)."""
        return self.cov[:, -1, -1]

    @cached_property
    def col_sq_norms(self):
        """E[v_q^T v_q] for the n_y loading columns (mu column excluded)."""
        diag = np.einsum("rqq->q", self.cov)[:-1]
        return diag + np.sum(self.V**2, axis=0)


@dataclass(frozen=True)
class QAlpha(_Gamma):
    """Gamma factors over the per-column relevance precisions (shared shape)."""

    a: float
    b: np.ndarray  # (n_y,)

    @cached_property
    def mean(self):
        return self.a / self.b


@dataclass(frozen=True)
class QWWishart:
    """Wishart factor over the full precision W and ln|psi|, as the step that forms psi
    gives it. psi is taken as given: every step and model file makes it exactly symmetric."""

    psi: np.ndarray
    nu: float
    logdet_psi: float

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        d = psi.shape[0]
        if psi.shape != (d, d):
            raise ValueError("psi must be square")
        if self.nu <= d - 1:
            raise ValueError(f"Wishart dof must exceed d-1={d - 1}, got {self.nu}")
        object.__setattr__(self, "psi", psi)

    @classmethod
    def from_psi(cls, psi, nu):
        """The factor of a stored scale matrix, whose ln|psi| comes from its
        Cholesky factor; FactorizationError if psi is not positive definite."""
        return cls(psi=psi, nu=nu, logdet_psi=spd_logdet(psi))

    @property
    def dim(self):
        return self.psi.shape[0]

    @cached_property
    def mean(self):
        return self.nu * self.psi

    @cached_property
    def mean_logdet(self):
        d = self.dim
        return float(wishart_digamma_sum(self.nu, d) + d * LOG2 + self.logdet_psi)

    @cached_property
    def neg_entropy(self):
        """E[ln q(W)]."""
        d = self.dim
        return float(
            wishart_log_B(self.logdet_psi, self.nu, d)
            + 0.5 * (self.nu - d - 1) * self.mean_logdet
            - 0.5 * self.nu * d
        )

    def anneal(self, kappa):
        """The factor to the power kappa, renormalized: (Psi/kappa, kappa(nu-d-1)+d+1).

        ln|Psi/kappa| = ln|Psi| - d ln kappa is carried, not refactorized.
        """
        if _is_identity_temperature(kappa):
            return self
        d = self.dim
        if kappa * (self.nu - d - 1.0) + 1.0 <= 0.0:
            raise ValueError(
                f"annealed Wishart dof condition violated (kappa={kappa}, nu={self.nu}, d={d})"
            )
        return QWWishart(
            psi=self.psi / kappa,
            nu=kappa * (self.nu - d - 1.0) + d + 1.0,
            logdet_psi=self.logdet_psi - d * math.log(kappa),
        )


@dataclass(frozen=True)
class QWGamma(_Gamma):
    """Gamma factors over the d diagonal precisions of W, which stays diagonal.

    `b` holds d rates, one per diagonal entry, or one rate that all d entries
    share (W = w I, a single Gamma factor over w).
    """

    a: float
    b: np.ndarray  # (d,) or (1,)
    dim: int

    def __post_init__(self):
        super().__post_init__()
        if self.b.shape not in ((self.dim,), (1,)):
            raise ValueError(f"b must hold {self.dim} rates or one, got shape {self.b.shape}")

    @cached_property
    def factor_mean(self):
        """E[w] of each Gamma factor, one per rate."""
        return self.a / self.b

    @cached_property
    def mean_diag(self):
        return np.full(self.dim, self.factor_mean)

    @cached_property
    def mean(self):
        return np.diag(self.mean_diag)

    @cached_property
    def mean_logdet(self):
        """E[ln|W|]: each factor's E[ln w] counted once per diagonal entry it covers."""
        return float(self.dim / self.b.size * np.sum(self.mean_log))


@dataclass(frozen=True)
class YAggregates:
    """Dataset-level aggregates of the augmented latent moments."""

    C: np.ndarray  # (d, n_y+1): sum_i F_i E[ytilde_i]^T
    R: np.ndarray  # (n_y+1, n_y+1): sum_i N_i E[ytilde ytilde^T]


def y_aggregates(qy, stats):
    """C and R_ytilde from the current q(Y) and the sufficient statistics.

    With Y the (M, n_y) means and N the counts, C = [(Y^T F)^T, F^T 1] and
    R = [[Y^T diag(N) Y + sum_g w_g Sigma_g, Y^T N], [N^T Y, sum_i N_i]], w_g
    the count summed over group g. The products run speaker-minor, n_y x M
    times M x d, which BLAS packs better than an M x (n_y+1) right operand;
    F^T 1 and sum_i N_i are the statistics' totals. The unweighted
    sum_i E[y_i y_i^T] is `QY.second_moment_sum`.
    """
    m, ny = qy.mean.shape
    if stats.n_speakers != m:
        raise ValueError(f"q(Y) covers {m} speakers, statistics have {stats.n_speakers}")
    y_t = qy.mean.T  # contiguous for the q(Y) update's means
    c = np.empty((stats.dim, ny + 1))
    c[:, :ny] = (y_t @ stats.spk_sums).T
    c[:, -1] = stats.sum_total
    weighted = y_t * stats.counts  # row q: N_i y_iq
    weights = np.bincount(qy.group, weights=stats.counts, minlength=qy.cov.shape[0])
    r = np.empty((ny + 1, ny + 1))
    r[:ny, :ny] = weighted @ y_t.T + np.einsum("g,gab->ab", weights, qy.cov)
    r[:ny, -1] = r[-1, :ny] = weighted.sum(axis=1)
    r[-1, -1] = stats.n_total
    return YAggregates(C=c, R=sym(r))


def vtw_moments(qv, qw):
    """(Wbar Vtbar, E[Vt^T W Vt]): the moments of one (q(Vtilde), q(W)) pair
    that the q(Y) update and the data term of the bound both read, with
    E[Vt^T W Vt] = sum_r wbar_rr cov_r + Vtbar^T (Wbar Vtbar).

    The per-row factorization zeroes every cross-row covariance, so only the
    diagonal of Wbar meets the row covariances. A Gamma factor's diagonal Wbar
    goes through the same GEMM: its off-diagonal terms are exact zeros, so the
    bits are those of scaling the rows of Vtbar.
    """
    wbar = qw.mean
    wvt = wbar @ qv.mean
    quad = np.einsum("r,rab->ab", np.diagonal(wbar), qv.cov) + qv.mean.T @ wvt
    return wvt, sym(quad)
