"""Empirical-Bayes hyperparameter re-estimation by lower-bound maximization."""

import numpy as np

from .numerics import solve_gamma_shape

__all__ = ["optimize_alpha_hyper", "optimize_w_hyper", "optimize_mu_prior"]

# A point-mass mu posterior would drive beta, and with it the bound, to
# infinity; the rate is kept inside these limits.
BETA_FLOOR = 1e-8
BETA_CAP = 1e12


def _fit_gamma_from_moments(mean_log, mean, a_init):
    c = float(np.mean(mean_log))
    d_mean = float(np.mean(mean))
    a = solve_gamma_shape(c, d_mean, a_init=a_init)
    return a, a / d_mean


def optimize_alpha_hyper(mean_log_alpha, mean_alpha, a_alpha):
    """(a_alpha, b_alpha) solving psi(a) = ln b + mean(E[ln alpha]) with b = a / mean(E[alpha])."""
    return _fit_gamma_from_moments(mean_log_alpha, mean_alpha, a_alpha)


def optimize_w_hyper(mean_log_w, mean_w, a_w):
    """(a_w, b_w) from the moments of the Gamma q(W) factors, one per rate: the
    d diagonal entries' moments are averaged, one shared factor's are its own."""
    return _fit_gamma_from_moments(mean_log_w, mean_w, a_w)


def optimize_mu_prior(qv):
    """(mu0, beta) from the mu block of the row posteriors.

    With mu0 refreshed to E[mu] the cross terms cancel and beta_r^{-1} reduces
    to the posterior variance of mu_r.
    """
    mu0 = qv.mu.copy()
    beta = 1.0 / np.maximum(qv.mu_var, 1.0 / BETA_CAP)
    beta = np.clip(beta, BETA_FLOOR, BETA_CAP)
    return mu0, beta
