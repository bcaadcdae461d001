"""Evidence lower bound terms and their total.

Constant factors the derivations fold into "const" are kept explicitly so
that each (prior, negative-entropy) pair sums to exactly minus the KL
divergence between the factor and its prior.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import model as mdl
from .numerics import LOG2PI
from .posterior import vtw_moments, y_aggregates

__all__ = [
    "ElboBreakdown",
    "elbo_data_term",
    "elbo_y_terms",
    "elbo_v_alpha_mu_terms",
    "elbo_w_terms",
    "elbo_total",
    "NonFiniteElboError",
]

class NonFiniteElboError(RuntimeError):
    """A lower-bound term evaluated to a non-finite value."""


@dataclass(frozen=True)
class ElboBreakdown:
    data_term: float
    y_prior: float
    y_entropy_neg: float
    v_prior: float
    alpha_prior: float
    alpha_entropy_neg: float
    mu_prior: float
    w_prior: float
    w_entropy_neg: float
    v_entropy_neg: float
    total: float

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def elbo_data_term(stats, aggregates, qw, moments):
    """Expected data log-likelihood under the factored posterior, from the
    q(Y) `aggregates` and the `vtw_moments` of the (q(Vtilde), q(W)) pair."""
    n, d = stats.n_total, stats.dim
    if n == 0:
        return 0.0
    wbar, mean_logdet = qw.mean, qw.mean_logdet
    wvt, evtwvt = moments
    return float(
        0.5 * n * mean_logdet
        - 0.5 * n * d * LOG2PI
        - 0.5 * np.sum(wbar * stats.scatter_total)
        + np.sum(wvt * aggregates.C)
        - 0.5 * np.sum(evtwvt * aggregates.R)
    )


def elbo_y_terms(qy):
    """(E[ln P(Y)], E[ln q(Y)]); their difference is -KL(q(Y) || p(Y)). Both
    read q(Y)'s second moment and covariances, never its per-speaker means."""
    m, ny = qy.n_speakers, qy.rank
    if m == 0:
        return 0.0, 0.0
    rho_trace = float(np.trace(qy.second_moment_sum))
    y_prior = -0.5 * m * ny * LOG2PI - 0.5 * rho_trace
    y_entropy_neg = -0.5 * m * ny * (LOG2PI + 1.0) + 0.5 * float(qy.group_sizes @ qy.prec_logdets)
    return y_prior, y_entropy_neg


def _v_entropy_neg(qv):
    d, k = qv.mean.shape
    return -0.5 * d * k * (LOG2PI + 1.0) + 0.5 * float(np.sum(qv.prec_logdets))


def elbo_v_alpha_mu_terms(qv, qalpha, prior):
    """(v_prior, alpha_prior, alpha_entropy_neg, mu_prior, v_entropy_neg).

    The variant's loading prior gives the first four: the hierarchical column
    prior, the Gamma relevance prior and the Gaussian mean prior for V1/V2; the
    joint Gaussian row prior, with the alpha/mu slots at zero, for V3/V4.
    """
    loading, _ = mdl.SCHEMES[prior.variant]
    return (*loading.bound_terms(qv, qalpha, prior), _v_entropy_neg(qv))


def elbo_w_terms(qw, prior):
    """(E[ln P(W)], E[ln q(W)]) for the variant's precision arm."""
    _, arm = mdl.SCHEMES[prior.variant]
    return arm.w_prior(qw, prior), qw.neg_entropy


def elbo_total(stats, qy, qv, qw, qalpha, prior, aggregates=None, moments=None):
    """Assemble the full lower bound for the prior scheme of `prior.variant`. The
    `engine.qy_step` products `aggregates` and `moments` are formed here when not
    given, for a caller that holds only the factors (`perfbench/record_reference.py`)."""
    if aggregates is None:
        aggregates = y_aggregates(qy, stats)
    if moments is None:
        moments = vtw_moments(qv, qw)
    data_term = elbo_data_term(stats, aggregates, qw, moments)
    y_prior, y_entropy_neg = elbo_y_terms(qy)
    v_prior, alpha_prior, alpha_entropy_neg, mu_prior, v_entropy_neg = elbo_v_alpha_mu_terms(
        qv, qalpha, prior
    )
    w_prior, w_entropy_neg = elbo_w_terms(qw, prior)
    terms = {
        "data_term": data_term,
        "y_prior": y_prior,
        "y_entropy_neg": y_entropy_neg,
        "v_prior": v_prior,
        "alpha_prior": alpha_prior,
        "alpha_entropy_neg": alpha_entropy_neg,
        "mu_prior": mu_prior,
        "w_prior": w_prior,
        "w_entropy_neg": w_entropy_neg,
        "v_entropy_neg": v_entropy_neg,
    }
    for name, value in terms.items():
        if not math.isfinite(value):
            raise NonFiniteElboError(f"lower-bound term {name} is {value}")
    total = (
        data_term
        + y_prior
        + v_prior
        + alpha_prior
        + mu_prior
        + w_prior
        - y_entropy_neg
        - v_entropy_neg
        - alpha_entropy_neg
        - w_entropy_neg
    )
    return ElboBreakdown(total=total, **terms)
