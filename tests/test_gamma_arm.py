"""The one Gamma precision arm against the two arms it replaced, written out as closed forms.

`OracleDiag`/`OracleIso` and `oracle_*` restate the separate diagonal and
isotropic factors and arms that `GammaArm` and `QWGamma` merged, formula for
formula. Every moment, bound term, update and refresh of the merged code must
equal theirs bit for bit, for both arm instances, with the shared rate of a
prior trained from scratch (V2) and with per-row rates (V4), at d = 1, 5 and
40 (the last sums more than eight entries, where numpy sums pairwise).
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import bsplda.model as mdl
from bsplda.hyperopt import optimize_w_hyper
from bsplda.model import PriorConfig
from bsplda.numerics import digamma, expected_log_gamma_pdf, gamma_neg_entropy
from bsplda.posterior import QWGamma
from tests.test_posterior import random_spd

KAPPA = 0.3
N = 37.0


def annealed(a, b, kappa):
    return kappa * (a - 1.0) + 1.0, kappa * b


@dataclass(frozen=True)
class OracleDiag:
    """Independent Gammas on the d diagonal precisions, rates b of shape (d,)."""

    a: float
    b: np.ndarray

    @property
    def mean_diag(self):
        return self.a / self.b

    @property
    def mean(self):
        return np.diag(self.mean_diag)

    @property
    def mean_log_diag(self):
        return digamma(self.a) - np.log(self.b)

    @property
    def mean_logdet(self):
        return float(np.sum(self.mean_log_diag))

    @property
    def neg_entropy(self):
        return gamma_neg_entropy(self.a, self.b)

    def anneal(self, kappa):
        return OracleDiag(*annealed(self.a, self.b, kappa))


@dataclass(frozen=True)
class OracleIso:
    """One Gamma on the scalar precision of W = w I, a float rate b."""

    a: float
    b: float
    dim: int

    @property
    def mean_scalar(self):
        return self.a / self.b

    @property
    def mean_diag(self):
        return np.full(self.dim, self.mean_scalar)

    @property
    def mean(self):
        return self.mean_scalar * np.eye(self.dim)

    @property
    def mean_log_scalar(self):
        return digamma(self.a) - math.log(self.b)

    @property
    def mean_logdet(self):
        return self.dim * self.mean_log_scalar

    @property
    def neg_entropy(self):
        return gamma_neg_entropy(self.a, self.b)

    def anneal(self, kappa):
        return OracleIso(*annealed(self.a, self.b, kappa), self.dim)


def oracle_rates(prior, d):
    return prior.b_w if prior.b_w.shape == (d,) else np.full(d, float(prior.b_w[0]))


def oracle_init_qw(arm, prior, n, d, w_point):
    if arm is mdl.GAMMA_DIAGONAL:
        if n > 0:
            a = prior.a_w + 0.5 * n
            return OracleDiag(a, a / np.diag(w_point))
        return OracleDiag(prior.a_w, oracle_rates(prior, d))
    if n > 0:
        a = prior.a_w + 0.5 * n * d
        return OracleIso(a, a / float(np.mean(np.diag(w_point))), d)
    return OracleIso(prior.a_w, float(prior.b_w[0]), d)


def oracle_update_qw(arm, prior, k_mat, n):
    d = k_mat.shape[0]
    if arm is mdl.GAMMA_DIAGONAL:
        return OracleDiag(prior.a_w + 0.5 * n, oracle_rates(prior, d) + 0.5 * np.diag(k_mat))
    return OracleIso(prior.a_w + 0.5 * n * d, float(prior.b_w[0]) + 0.5 * float(np.trace(k_mat)), d)


def oracle_w_prior(qw, prior):
    if isinstance(qw, OracleDiag):
        rates = oracle_rates(prior, qw.b.shape[0])
        return expected_log_gamma_pdf(prior.a_w, rates, qw.mean_log_diag, qw.mean_diag)
    return expected_log_gamma_pdf(prior.a_w, prior.b_w[0], qw.mean_log_scalar, qw.mean_scalar)


def oracle_refresh(qw, prior):
    if isinstance(qw, OracleDiag):
        a_w, b_w = optimize_w_hyper(qw.mean_log_diag, qw.mean_diag, prior.a_w)
    else:
        a_w, b_w = optimize_w_hyper(
            np.atleast_1d(qw.mean_log_scalar), np.atleast_1d(qw.mean_scalar), prior.a_w
        )
    return {"a_w": a_w, "b_w": np.array([b_w])}


def assert_same_factor(new, old):
    assert type(new) is QWGamma
    assert new.a == old.a
    assert np.array_equal(new.b, np.atleast_1d(old.b))
    assert np.array_equal(new.mean, old.mean)
    assert np.array_equal(new.mean_diag, old.mean_diag)
    assert new.mean_logdet == old.mean_logdet
    assert new.neg_entropy == old.neg_entropy


def make_prior(arm, rates, d, rng):
    variant = {
        ("shared", mdl.GAMMA_DIAGONAL): mdl.V2_GAMMA_DIAGONAL,
        ("shared", mdl.GAMMA_ISOTROPIC): mdl.V2_GAMMA_ISOTROPIC,
        ("per-row", mdl.GAMMA_DIAGONAL): mdl.V4_GAUSSV_GAMMA_DIAGONAL,
        ("per-row", mdl.GAMMA_ISOTROPIC): mdl.V4_GAUSSV_GAMMA_ISOTROPIC,
    }[rates, arm]
    if rates == "shared":
        loading = dict(mu0=0.0, beta=1.0, a_alpha=1.0, b_alpha=1.0)
        b_w = rng.uniform(0.01, 3.0)
    else:
        loading = dict(v_row_means=rng.normal(size=(d, 2)), v_row_precisions=np.tile(np.eye(2), (d, 1, 1)))
        b_w = rng.uniform(0.01, 3.0, size=d) if arm is mdl.GAMMA_DIAGONAL else rng.uniform(0.01, 3.0)
    return PriorConfig(variant=variant, a_w=rng.uniform(0.01, 3.0), b_w=b_w, **loading).validate(d, 1)


@pytest.mark.parametrize("d", [1, 5, 40])
@pytest.mark.parametrize("rates", ["shared", "per-row"])
@pytest.mark.parametrize("arm", [mdl.GAMMA_DIAGONAL, mdl.GAMMA_ISOTROPIC], ids=["diagonal", "isotropic"])
def test_merged_arm_matches_separate_arms(arm, rates, d):
    rng = np.random.default_rng(100 * d + 10 * (rates == "shared") + (arm is mdl.GAMMA_ISOTROPIC))
    prior = make_prior(arm, rates, d, rng)
    w_point = random_spd(rng, d, 0.1)
    k_mat = random_spd(rng, d, 2.0)
    cases = [
        (arm.init_qw(prior, N, d, w_point), oracle_init_qw(arm, prior, N, d, w_point)),
        (arm.init_qw(prior, 0, d, w_point), oracle_init_qw(arm, prior, 0, d, w_point)),
        (arm.update_qw(prior, k_mat, N), oracle_update_qw(arm, prior, k_mat, N)),
    ]
    for new, old in cases:
        assert new.b.size == (1 if arm is mdl.GAMMA_ISOTROPIC else d)
        assert_same_factor(new, old)
        assert_same_factor(new.anneal(KAPPA), old.anneal(KAPPA))
        assert arm.w_prior(new, prior) == oracle_w_prior(old, prior)
        got, want = arm.refresh(prior, new), oracle_refresh(old, prior)
        assert got["a_w"] == want["a_w"] and np.array_equal(got["b_w"], want["b_w"])
