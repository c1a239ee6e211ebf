"""Double gamma function and the constants built from it.

``log_gamma2`` evaluates ``log Gamma_2(z; 1, tau)`` for positive ``z``
and ``tau`` by shifting the argument into a window near 1 with the two
quasi-periodicity relations, then summing a truncated infinite product
whose tail is resummed exactly in terms of Hurwitz zeta values.  All
constants assembled from it are computed in log space.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import NonConvergenceError, ResourceLimitError, quantized

__all__ = [
    "log_gamma2",
    "gamma2",
    "log_f_beta_half",
    "f_beta_half",
    "log_tau_hard",
    "tau_hard",
    "log_a_const",
    "a_const",
    "log_tau_hard_n",
    "tau_hard_n",
    "duality_constants",
    "log_b_const",
    "b_const",
    "log_morris_value",
    "morris_value",
    "MAX_SHIFT_STEPS",
]

_LOG_2PI = math.log(2.0 * math.pi)

# Bernoulli numbers B_0 .. B_14 (odd ones beyond B_1 vanish).
_BERNOULLI = {
    0: 1.0,
    1: -0.5,
    2: 1.0 / 6.0,
    4: -1.0 / 30.0,
    6: 1.0 / 42.0,
    8: -1.0 / 30.0,
    10: 5.0 / 66.0,
    12: -691.0 / 2730.0,
    14: 7.0 / 6.0,
}

#: Highest inverse-power order used in the tail resummation.
_TAIL_ORDER = 13

#: Most unit steps :func:`log_gamma2` takes to bring ``z`` into its window
#: (each one ``lgamma`` and one ``log``; 100k take about 0.1 s).
MAX_SHIFT_STEPS = 100_000


def _bernoulli_poly(n: int, z: float) -> float:
    """Bernoulli polynomial ``B_n(z)`` from the number table."""
    total = 0.0
    for j in range(n + 1):
        b = _BERNOULLI.get(j)
        if b:
            total += math.comb(n, j) * b * z ** (n - j)
    return total


def _require_positive(name: str, value: float) -> None:
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _shintani_window(z: float, tau: float, tol: float) -> float:
    """Log double gamma for ``z`` in the window ``[1, 2 + tau]``."""
    from scipy.special import zeta as hurwitz_zeta

    n0 = max(32, math.ceil(32.0 / tau))
    for _ in range(8):
        core = (
            (z / 2.0) * _LOG_2PI
            + ((z - z * z) / (2.0 * tau) - z / 2.0) * math.log(tau)
            + (z * z - z) * np.euler_gamma / (2.0 * tau)
            + math.lgamma(z)
        )
        for n in range(1, n0 + 1):
            x = n * tau
            core += (
                math.lgamma(z + x)
                - math.lgamma(1.0 + x)
                + (z - z * z) / (2.0 * x)
                + (1.0 - z) * math.log(x)
            )
        tail = 0.0
        last = 0.0
        for k in range(2, _TAIL_ORDER + 1):
            coeff = (_bernoulli_poly(k + 1, z) - _bernoulli_poly(k + 1, 1.0)) / (
                k * (k + 1) * tau**k
            )
            last = (-1.0) ** (k + 1) * coeff * float(hurwitz_zeta(k, n0 + 1))
            tail += last
        if abs(last) < tol * max(1.0, abs(core + tail)):
            return core + tail
        n0 *= 2
    raise NonConvergenceError(
        f"double gamma tail did not settle at z={z}, tau={tau}"
    )


@cache
def log_gamma2(z: float, tau: float, tol: float = 1e-13) -> float:
    """Logarithm of the double gamma function ``Gamma_2(z; 1, tau)``.

    Normalized so that ``z * Gamma_2(z) -> 1`` as ``z -> 0+``, with the
    two shift relations ``1/Gamma_2(z+1) = tau**(z/tau - 1/2) / sqrt(2
    pi) * Gamma(z/tau) / Gamma_2(z)`` and ``1/Gamma_2(z+tau) = Gamma(z)
    / (sqrt(2 pi) Gamma_2(z))``.

    Parameters
    ----------
    z : float
        Positive argument.
    tau : float
        Positive second quasi-period (the first is fixed at 1).
    tol : float
        Relative tolerance of the tail resummation.

    Returns
    -------
    float
        ``log Gamma_2(z; 1, tau)``.

    Raises
    ------
    ValueError
        If ``z`` or ``tau`` is not positive and finite.
    ResourceLimitError
        If ``z`` lies more than ``MAX_SHIFT_STEPS`` unit steps above the
        window.
    """
    _require_positive("z", z)
    _require_positive("tau", tau)
    if z - (2.0 + tau) > MAX_SHIFT_STEPS:
        raise ResourceLimitError(
            f"log_gamma2 at z={z} needs more than {MAX_SHIFT_STEPS} shift steps"
        )

    def delta_one(w: float) -> float:
        # log Gamma_2(w + 1) - log Gamma_2(w)
        return 0.5 * _LOG_2PI - (w / tau - 0.5) * math.log(tau) - math.lgamma(w / tau)

    shift = 0.0
    while z > 2.0 + tau:
        z -= 1.0
        shift += delta_one(z)
    while z < 1.0:
        shift -= delta_one(z)
        z += 1.0
    return _shintani_window(z, tau, tol) + shift


def gamma2(z: float, tau: float, tol: float = 1e-13) -> float:
    """Double gamma function ``Gamma_2(z; 1, tau)``."""
    return math.exp(log_gamma2(z, tau, tol))


def log_f_beta_half(n: float, beta: float) -> float:
    """Log of the overlap constant ``f_{beta/2}(n)``.

    Defined for real ``n >= 0`` through the double gamma function,
    ``f(n) = (2 pi)**((n+1)/2) * tau**(-(n-1)n/(2 tau) - n/2) /
    Gamma_2(n + tau; 1, tau)`` with ``tau = 2/beta``; at integer ``n``
    it reduces to ``prod_{j=0}^{n-1} Gamma(1 + beta j / 2)``.
    """
    _require_positive("beta", beta)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    tau = 2.0 / beta
    return (
        (n + 1.0) / 2.0 * _LOG_2PI
        - ((n - 1.0) * n / (2.0 * tau) + n / 2.0) * math.log(tau)
        - log_gamma2(n + tau, tau)
    )


def f_beta_half(n: float, beta: float) -> float:
    """Overlap constant ``f_{beta/2}(n)`` (see :func:`log_f_beta_half`)."""
    return math.exp(log_f_beta_half(n, beta))


def log_tau_hard(a: float, beta: float) -> float:
    """Log of the leading hard-edge constant via its gamma product.

    Requires ``beta * a / 2`` to be a nonnegative integer; the product
    form is ``2**((1 - beta/2) a) (2 pi)**(-beta a / 4) prod_{j=1}^{beta
    a/2} Gamma(2 j / beta)``.
    """
    _require_positive("beta", beta)
    m = quantized("beta*a/2", beta * a / 2.0)
    log_value = (1.0 - beta / 2.0) * a * math.log(2.0) - beta * a / 4.0 * _LOG_2PI
    for j in range(1, m + 1):
        log_value += math.lgamma(2.0 * j / beta)
    return log_value


def tau_hard(a: float, beta: float) -> float:
    """Leading hard-edge constant (gamma-product route)."""
    return math.exp(log_tau_hard(a, beta))


def log_a_const(a: float, beta: float) -> float:
    """Log of the leading hard-edge constant, continued in ``a``.

    ``(beta/2)**(-beta a (a-1)/4) * (pi beta)**(-a/2) * 2**(a - beta
    a/2) * f_{beta/2}(a)``; agrees with :func:`log_tau_hard` whenever
    the latter's integrality constraint holds.
    """
    _require_positive("beta", beta)
    if a < 0:
        raise ValueError(f"a must be nonnegative, got {a}")
    return (
        -beta * a * (a - 1.0) / 4.0 * math.log(beta / 2.0)
        - a / 2.0 * math.log(math.pi * beta)
        + (a - beta * a / 2.0) * math.log(2.0)
        + log_f_beta_half(a, beta)
    )


def a_const(a: float, beta: float) -> float:
    """Leading hard-edge constant (double-gamma route, any ``a >= 0``)."""
    return math.exp(log_a_const(a, beta))


def log_tau_hard_n(n: float, a: float, beta: float, route: str = "continued") -> float:
    """Log of the hard-edge constant for conditioning on ``n`` eigenvalues.

    Parameters
    ----------
    n : float
        Number of conditioned eigenvalues; any nonnegative real on the
        ``"continued"`` route, a nonnegative integer with ``beta * n``
        integral on the ``"literal"`` route.
    a : float
        Weight exponent parameter.
    beta : float
        Ensemble inverse temperature.
    route : str
        ``"continued"`` assembles the constant from ``f_{beta/2}``;
        ``"literal"`` multiplies the finite gamma products directly.

    Returns
    -------
    float
        ``log tau_hard(n)``; zero at ``n = 0``.
    """
    _require_positive("beta", beta)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    tau = 2.0 / beta
    if route == "continued":
        return (
            -(a + n) * 2.0 * n / tau * math.log(2.0)
            - math.lgamma(n + 1.0)
            + (n * (a + n) / tau + n) * math.log(tau)
            - n * _LOG_2PI
            + log_f_beta_half(n + 1.0, beta)
            + log_f_beta_half(n + a, beta)
            - log_f_beta_half(a, beta)
        )
    if route == "literal":
        n_int = quantized("n", n)
        bn = quantized("beta*n", beta * n)
        log_value = (
            -(a + n) * beta * n * math.log(2.0)
            - math.lgamma(n + 1.0)
            + n * (a + n - 1.0) * beta / 2.0 * math.log(beta / 2.0)
        )
        for j in range(1, bn + 1):
            log_value += math.lgamma(a + 2.0 * j / beta) - 0.5 * _LOG_2PI
        for j in range(n_int):
            log_value += math.lgamma(1.0 + (j + 1.0) * beta / 2.0)
        for j in range(n_int, 2 * n_int):
            log_value -= math.lgamma(1.0 + (j + a) * beta / 2.0)
        return log_value
    raise ValueError(f"unknown route {route!r}")


def tau_hard_n(n: float, a: float, beta: float, route: str = "continued") -> float:
    """Hard-edge constant for ``n`` conditioned eigenvalues."""
    return math.exp(log_tau_hard_n(n, a, beta, route))


def duality_constants(
    beta: float, n: float, a: float, variant: str = "corrected"
) -> tuple[float, float]:
    """Both sides of the constant identity under ``beta -> 4/beta``.

    The left side carries the power of ``beta/2`` induced by rescaling
    the gap variable; the right side is the plain constant at the mapped
    parameters ``(4/beta, beta(n+1)/2 - 1, beta(a-2)/2 + 2)``.

    Parameters
    ----------
    beta, n, a : float
        Parameters of the left side.
    variant : str
        ``"corrected"`` uses the rescaling power matching the full
        asymptotic form's log coefficient; ``"printed"`` reproduces the
        source's stated power for comparison.

    Returns
    -------
    tuple of float
        ``(lhs, rhs)``; equal when the identity holds.
    """
    if variant == "corrected":
        power = beta * a * (a - 1.0) / 4.0 + a / 2.0 + beta * (n * n + n * a) / 2.0
    elif variant == "printed":
        power = (
            a * (beta * a / 2.0 + 1.0) / 2.0
            - beta * a / 2.0
            + (n * n + n * a) * beta / 2.0
        )
    else:
        raise ValueError(f"unknown variant {variant!r}")
    log_lhs = (
        log_a_const(a, beta)
        + log_tau_hard_n(n, a, beta)
        + power * math.log(beta / 2.0)
    )
    beta_dual = 4.0 / beta
    n_dual = beta * (n + 1.0) / 2.0 - 1.0
    a_dual = beta * (a - 2.0) / 2.0 + 2.0
    if n_dual < 0 or a_dual < 0:
        raise ValueError(
            f"dual parameters out of range: n'={n_dual}, a'={a_dual}"
        )
    log_rhs = log_a_const(a_dual, beta_dual) + log_tau_hard_n(n_dual, a_dual, beta_dual)
    return math.exp(log_lhs), math.exp(log_rhs)


def log_b_const(a: float, beta: float) -> float:
    """Log of the torus-route normalization constant.

    ``prod_{j=1}^{a beta/2} Gamma(1 + 2/beta) Gamma(2 j / beta) /
    Gamma(1 + 2 j / beta)``; requires ``a beta / 2`` to be a nonnegative
    integer.
    """
    _require_positive("beta", beta)
    m = quantized("a*beta/2", a * beta / 2.0)
    log_value = 0.0
    for j in range(1, m + 1):
        log_value += (
            math.lgamma(1.0 + 2.0 / beta)
            + math.lgamma(2.0 * j / beta)
            - math.lgamma(1.0 + 2.0 * j / beta)
        )
    return log_value


def b_const(a: float, beta: float) -> float:
    """Torus-route normalization constant."""
    return math.exp(log_b_const(a, beta))


def log_morris_value(n: int, a: float, b: float, c: float) -> float:
    """Log of the Morris integral in its gamma-product form.

    ``prod_{j=0}^{n-1} Gamma(1 + a + b + j c) Gamma(1 + (j+1) c) /
    (Gamma(1 + a + j c) Gamma(1 + b + j c) Gamma(1 + c))``.
    """
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    log_value = 0.0
    for j in range(int(n)):
        log_value += (
            math.lgamma(1.0 + a + b + j * c)
            + math.lgamma(1.0 + (j + 1.0) * c)
            - math.lgamma(1.0 + a + j * c)
            - math.lgamma(1.0 + b + j * c)
            - math.lgamma(1.0 + c)
        )
    return log_value


def morris_value(n: int, a: float, b: float, c: float) -> float:
    """Morris integral evaluated through its gamma-product form."""
    return math.exp(log_morris_value(n, a, b, c))
