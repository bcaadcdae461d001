"""Special functions and the Gamma-shape solver; the one module that names ln Gamma or psi.

psi and psi' shift x by ten steps of their recurrences and sum the asymptotic
series at x + 10 up to x^-14 (x^-15 for psi'); ln Gamma is `math.lgamma`.
"""

import functools
import math

import numpy as np

__all__ = [
    "digamma",
    "trigamma",
    "log_multivariate_gamma",
    "wishart_digamma_sum",
    "wishart_log_B",
    "expected_log_gamma_pdf",
    "gamma_neg_entropy",
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

_SHIFT = 10
# Asymptotic series coefficients, B_2k / 2k for psi and B_2k for psi', k = 1..7
# (B_2k the Bernoulli numbers).
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


class NoRootError(ValueError):
    """The shape equation psi(a) - ln a + ln d - c = 0 has no positive root."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


def _check_positive(x, name):
    """x, a scalar or an array, must be positive and finite throughout."""
    if not np.all(np.isfinite(x) & (np.asarray(x) > 0.0)):
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


def _shifted(x, coefficients):
    """(x, z = x + 10, sum_k c_k z^-2k over k = 1..7); x a float or an array of positive reals."""
    arr = np.asarray(x, dtype=float)
    _check_positive(arr, "x")
    x = float(arr) if arr.ndim == 0 else arr
    z = x + _SHIFT
    inv_z2, series = 1.0 / (z * z), 0.0
    for c in reversed(coefficients):
        series = (series + c) * inv_z2
    return x, z, series


def digamma(x):
    """psi(x) = psi(x + 10) - sum_k 1/(x + k), k = 0..9, elementwise for x > 0."""
    x, z, series = _shifted(x, _PSI_SERIES)
    return np.log(z) - 0.5 / z - series - sum(1.0 / (x + k) for k in range(_SHIFT))


def trigamma(x):
    """psi'(x) = psi'(x + 10) + sum_k 1/(x + k)^2, k = 0..9, elementwise for x > 0."""
    x, z, series = _shifted(x, _TRIGAMMA_SERIES)
    return (1.0 + 0.5 / z + series) / z + sum(1.0 / (x + k) ** 2 for k in range(_SHIFT))


@functools.lru_cache(maxsize=256)
def log_multivariate_gamma(d, a):
    """ln Gamma_d(a) = (d(d-1)/4) ln pi + sum_i ln Gamma(a + (1-i)/2), i = 1..d.

    A fit evaluates it at one dof per temperature, so it is computed once per (d, a)."""
    if d < 1 or int(d) != d:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    d = int(d)
    if not np.isfinite(a) or a <= (d - 1) / 2.0:
        raise ValueError(f"argument must exceed (d-1)/2 = {(d - 1) / 2}, got {a!r}")
    return 0.25 * d * (d - 1) * math.log(math.pi) + math.fsum(
        math.lgamma(a - 0.5 * i) for i in range(d)
    )


@functools.lru_cache(maxsize=256)
def wishart_digamma_sum(dof, dim):
    """sum_i psi((dof + 1 - i) / 2), i = 1..dim: E[ln|W|] of a Wishart less d ln 2 + ln|Psi|.

    Computed once per (dof, dim), like `log_multivariate_gamma`."""
    i = np.arange(1, dim + 1)
    return float(np.sum(digamma(0.5 * (dof + 1 - i))))


def wishart_log_B(logdet_scale, dof, dim):
    """ln B(Psi, nu) = -(nu d/2) ln 2 - ln Gamma_d(nu/2) - (nu/2) ln|Psi|.

    The normalizer of a Wishart with dof > dim - 1 degrees of freedom and a
    scale matrix of log-determinant `logdet_scale`.
    """
    log_gamma = log_multivariate_gamma(dim, 0.5 * dof)
    return -0.5 * dof * dim * LOG2 - log_gamma - 0.5 * dof * logdet_scale


def expected_log_gamma_pdf(a, b, mean_log, mean):
    """E_q[ln Gamma(x | a, b)] summed over x from E_q[ln x] and E_q[x]; b, x scalars or arrays."""
    return float(np.sum(a * np.log(b) - math.lgamma(a) + (a - 1.0) * mean_log - b * mean))


def gamma_neg_entropy(a, b):
    """E[ln q] of independent Gammas sharing the shape a, with rates b (a scalar or an array)."""
    return float(np.size(b) * ((a - 1.0) * digamma(a) - a - math.lgamma(a)) + np.sum(np.log(b)))


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
        f = digamma(a) - math.log(a) + offset
        if abs(f) < tol:
            return a
        fprime_scaled = a * trigamma(a) - 1.0  # = a f'(a) > 0
        a = a * math.exp(-f / fprime_scaled)
        a = min(max(a, _A_MIN), _A_MAX)
    f = digamma(a) - math.log(a) + offset
    if abs(f) < tol:
        return a
    raise ConvergenceError(f"shape solver did not converge in {max_iter} iterations (residual {f:.3e})")
