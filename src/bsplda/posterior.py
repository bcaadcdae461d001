"""Variational posterior factors and their moments.

All factor types are immutable values; derived moments are cached lazily and
rebuilt whenever a new value is constructed, so caches can never go stale.
"""

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .linalg import FactorizationError, spd_inverse_logdet, spd_logdet, sym
from .numerics import LOG2, digamma, gamma_neg_entropy, wishart_digamma_sum, wishart_log_B

__all__ = [
    "QY",
    "QVtilde",
    "QAlpha",
    "QWWishart",
    "QWGamma",
    "YAggregates",
    "y_aggregates",
    "expected_vtw_quadratic",
    "vtw_moments",
]


def _is_identity_temperature(kappa):
    """True at kappa = 1, where tempering returns the factor itself; kappa must lie in (0, 1]."""
    if not 0.0 < kappa <= 1.0:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    return kappa == 1.0


class _Gaussian:
    """A stack of Gaussian factors: means (n, k) and precisions (p, k, k)."""

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        prec = np.asarray(self.prec, dtype=float)
        if mean.ndim != 2 or prec.ndim != 3 or prec.shape[1:] != (mean.shape[1],) * 2:
            raise ValueError(f"inconsistent shapes mean {mean.shape}, prec {prec.shape}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "prec", prec)

    @classmethod
    def with_inverse(cls, cov, logdets, **fields):
        """The factor of `fields` with its covariances and precision log-determinants cached."""
        factor = cls(**fields)
        object.__setattr__(factor, "_cov_logdet", (cov, logdets))
        return factor

    @cached_property
    def _cov_logdet(self):
        return spd_inverse_logdet(self.prec)

    @property
    def cov(self):
        return self._cov_logdet[0]

    @property
    def prec_logdets(self):
        return self._cov_logdet[1]

    def anneal(self, kappa):
        """The factor to the power kappa, renormalized: same mean, precision times kappa.

        The covariances and log-determinants are carried, cov / kappa and
        ln|P| + k ln kappa for order k, not refactorized.
        """
        if _is_identity_temperature(kappa):
            return self
        cov, logdets = self._cov_logdet
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["prec"] = kappa * self.prec
        return self.with_inverse(
            cov / kappa, logdets + self.prec.shape[-1] * math.log(kappa), **values
        )


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
class QY(_Gaussian):
    """Gaussian factors over the latent speaker vectors, one precision per group.

    Speaker i has mean `mean[i]` and precision `prec[group[i]]`. The q(Y)
    update puts the speakers that share a count in one group, so precisions,
    covariances and log-determinants are held once per distinct count.
    """

    mean: np.ndarray   # (M, n_y)
    prec: np.ndarray   # (G, n_y, n_y)
    group: np.ndarray  # (M,) index into prec

    def __post_init__(self):
        super().__post_init__()
        group = np.asarray(self.group, dtype=np.intp)
        if group.shape != self.mean.shape[:1]:
            raise ValueError(f"group has shape {group.shape}, expected ({self.mean.shape[0]},)")
        if group.size and (group.min() < 0 or group.max() >= self.prec.shape[0]):
            raise ValueError(f"group indices must lie in [0, {self.prec.shape[0]})")
        object.__setattr__(self, "group", group)

    @property
    def n_speakers(self):
        return self.mean.shape[0]

    @property
    def rank(self):
        return self.mean.shape[1]

    @cached_property
    def group_sizes(self):
        """n_g: the number of speakers in each group."""
        return np.bincount(self.group, minlength=self.prec.shape[0]).astype(float)

    @cached_property
    def second_moment_sum(self):
        """sum_i E[y_i y_i^T] = sum_g n_g Sigma_g + Ybar^T Ybar."""
        return np.einsum("g,gab->ab", self.group_sizes, self.cov) + self.mean.T @ self.mean


@dataclass(frozen=True)
class QVtilde(_Gaussian):
    """Independent Gaussian factors over the rows of the augmented loading [V mu]."""

    mean: np.ndarray  # (d, n_y+1); row r is the posterior mean of row r of [V mu]
    prec: np.ndarray  # (d, n_y+1, n_y+1)

    def __post_init__(self):
        super().__post_init__()
        if self.prec.shape[0] != self.mean.shape[0]:
            raise ValueError(f"{self.mean.shape[0]} rows, {self.prec.shape[0]} precisions")

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
    """Wishart factor over the full precision W. psi is taken as given: every
    q(W) update, temper, start and model file makes it exactly symmetric."""

    psi: np.ndarray
    nu: float

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        d = psi.shape[0]
        if psi.shape != (d, d):
            raise ValueError("psi must be square")
        if self.nu <= d - 1:
            raise ValueError(f"Wishart dof must exceed d-1={d - 1}, got {self.nu}")
        object.__setattr__(self, "psi", psi)

    @classmethod
    def with_logdet(cls, logdet_psi, **fields):
        """The factor of `fields` with ln|psi| cached, as the update's factorization gave it."""
        factor = cls(**fields)
        object.__setattr__(factor, "logdet_psi", logdet_psi)
        return factor

    @property
    def dim(self):
        return self.psi.shape[0]

    @cached_property
    def mean(self):
        return self.nu * self.psi

    @cached_property
    def logdet_psi(self):
        """ln|psi| from its Cholesky factor unless the update cached it; both bound terms use it."""
        try:
            return spd_logdet(self.psi)
        except FactorizationError as exc:
            raise ValueError("psi is not positive definite") from exc

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
        return QWWishart.with_logdet(
            self.logdet_psi - d * math.log(kappa),
            psi=self.psi / kappa,
            nu=kappa * (self.nu - d - 1.0) + d + 1.0,
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
    weights = np.bincount(qy.group, weights=stats.counts, minlength=qy.prec.shape[0])
    r = np.empty((ny + 1, ny + 1))
    r[:ny, :ny] = weighted @ y_t.T + np.einsum("g,gab->ab", weights, qy.cov)
    r[:ny, -1] = r[-1, :ny] = weighted.sum(axis=1)
    r[-1, -1] = stats.n_total
    return YAggregates(C=c, R=sym(r))


def expected_vtw_quadratic(qv, wbar, wvt=None):
    """E[Vt^T W Vt] = sum_r wbar_rr cov_r + Vtbar^T (Wbar Vtbar); `wvt`, if
    given, is the product Wbar Vtbar.

    The per-row factorization zeroes every cross-row covariance, so only the
    diagonal of Wbar meets the row covariances.
    """
    if wvt is None:
        wvt = wbar @ qv.mean
    wdiag = np.diagonal(wbar)
    full = np.einsum("r,rab->ab", wdiag, qv.cov) + qv.mean.T @ wvt
    return sym(full)


def vtw_moments(qv, qw):
    """(Wbar Vtbar, E[Vt^T W Vt]): the moments of one (q(Vtilde), q(W)) pair
    that the q(Y) update and the data term of the bound both read.

    A Gamma factor's Wbar is diagonal, so its product scales the rows of
    Vtbar: every off-diagonal term of the GEMM is an exact zero, so the bits
    are those of `Wbar @ Vtbar`.
    """
    if isinstance(qw, QWGamma):
        wvt = qw.mean_diag[:, None] * qv.mean
    else:
        wvt = qw.mean @ qv.mean
    return wvt, expected_vtw_quadratic(qv, qw.mean, wvt)
