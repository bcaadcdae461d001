"""Scalar special functions and the Gamma-shape solver used by every other module."""

import math

import numpy as np
from scipy import special

__all__ = [
    "digamma",
    "trigamma",
    "log_multivariate_gamma",
    "wishart_log_B",
    "solve_gamma_shape",
    "NoRootError",
    "ConvergenceError",
]

LOG2 = math.log(2.0)
LOG2PI = math.log(2.0 * math.pi)

# Newton iterate clamp for the shape solver; keeps extreme moment inputs from
# driving the iterate out of the representable range.
_A_MIN = 1e-6
_A_MAX = 1e8


class NoRootError(ValueError):
    """The shape equation psi(a) - ln a + ln d - c = 0 has no positive root."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


def _check_positive(x, name):
    if not np.isfinite(x) or x <= 0.0:
        raise ValueError(f"{name} must be a positive finite real, got {x!r}")


def digamma(x):
    """psi(x) for x > 0."""
    _check_positive(x, "x")
    return float(special.digamma(x))


def trigamma(x):
    """psi'(x) for x > 0."""
    _check_positive(x, "x")
    return float(special.polygamma(1, x))


def log_multivariate_gamma(d, a):
    """ln Gamma_d(a) = (d(d-1)/4) ln pi + sum_i ln Gamma(a + (1-i)/2), i = 1..d."""
    if d < 1 or int(d) != d:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    d = int(d)
    if not np.isfinite(a) or a <= (d - 1) / 2.0:
        raise ValueError(f"argument must exceed (d-1)/2 = {(d - 1) / 2}, got {a!r}")
    return float(special.multigammaln(a, d))


def wishart_log_B(logdet_scale, dof, dim):
    """ln B(Psi, nu) = -(nu d/2) ln 2 - ln Gamma_d(nu/2) - (nu/2) ln|Psi|.

    The normalizer of a Wishart with dof > dim - 1 degrees of freedom and a
    scale matrix of log-determinant `logdet_scale`.
    """
    log_gamma = log_multivariate_gamma(dim, 0.5 * dof)
    return -0.5 * dof * dim * LOG2 - log_gamma - 0.5 * dof * logdet_scale


def solve_gamma_shape(c, d_mean, a_init=1.0, tol=1e-10, max_iter=100):
    """Solve psi(a) - ln a + ln d_mean - c = 0 for the Gamma shape a.

    `c` plays the role of a mean log value and `d_mean` of a mean value; for
    genuine Gamma moments c = E[ln x] and d_mean = E[x], and the recovered a
    satisfies psi(a) = ln(a / d_mean) + c. Newton iterations run on ln a so the
    iterate stays positive:

        a <- a * exp(-(psi(a) - ln a + ln d_mean - c) / (psi'(a) a - 1))

    Convergence is declared on the residual |f(a)| < tol.
    """
    _check_positive(d_mean, "d_mean")
    _check_positive(a_init, "a_init")
    if not np.isfinite(c):
        raise ValueError(f"c must be finite, got {c!r}")
    offset = math.log(d_mean) - c
    if offset <= 0.0:
        # psi(a) - ln a < 0 for every a > 0, so f(a) = psi(a) - ln a + offset
        # cannot vanish unless offset > 0.
        raise NoRootError(f"no root: c = {c} >= ln d_mean = {math.log(d_mean)}")

    a = min(max(float(a_init), _A_MIN), _A_MAX)
    for _ in range(max_iter):
        f = float(special.digamma(a)) - math.log(a) + offset
        if abs(f) < tol:
            return a
        fprime_scaled = a * float(special.polygamma(1, a)) - 1.0  # = a f'(a) > 0
        a = a * math.exp(-f / fprime_scaled)
        a = min(max(a, _A_MIN), _A_MAX)
    f = float(special.digamma(a)) - math.log(a) + offset
    if abs(f) < tol:
        return a
    raise ConvergenceError(f"shape solver did not converge in {max_iter} iterations (residual {f:.3e})")
