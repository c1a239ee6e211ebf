"""Double gamma function and the constants built from it.

``log_gamma2`` evaluates ``log Gamma_2(z; 1, tau)`` for positive ``z``
and ``tau`` by shifting the argument into a window near 1 with the two
quasi-periodicity relations, then summing a truncated infinite product
whose tail is resummed exactly in terms of Hurwitz zeta values, which
``_hurwitz_zeta`` gives by Euler–Maclaurin from the Bernoulli table.  All
constants assembled from it are computed and returned as logs.
"""

from __future__ import annotations

import math
from functools import cache

from .errors import NonConvergenceError, ResourceLimitError, counted, quantized, require_finite

__all__ = [
    "log_gamma2",
    "log_f_beta_half",
    "log_tau_hard",
    "log_a_const",
    "log_tau_hard_n",
    "log_b_const",
    "log_morris_value",
    "MAX_SHIFT_STEPS",
]

_LOG_2PI = math.log(2.0 * math.pi)
# The Euler–Mascheroni constant, to the last bit of a float.
_EULER_GAMMA = 0.5772156649015329

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

#: Relative tolerance of the tail resummation.
_WINDOW_TOL = 1e-13

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


#: ``B_{k+1}(1)`` for each tail order ``k`` of :func:`_shintani_window`.
_BERNOULLI_AT_ONE = {k: _bernoulli_poly(k + 1, 1.0) for k in range(2, _TAIL_ORDER + 1)}


def _hurwitz_zeta(k: int, q: float) -> float:
    """Hurwitz zeta ``sum_{j>=0} (j + q)**-k`` for an integer ``k >= 2``, by
    Euler–Maclaurin through ``B_14``: ``q**(1-k)/(k-1) + q**-k/2 + sum_j
    B_2j/(2j)! (k)_(2j-1) q**(-k-2j+1)``.  The first omitted term is below
    rounding for the ``k <= _TAIL_ORDER`` and ``q >= 33`` of the window."""
    total = q / (k - 1.0) + 0.5
    rising = float(k)
    for j in range(2, 15, 2):
        total += _BERNOULLI[j] / math.factorial(j) * rising * q ** (1 - j)
        rising *= (k + j - 1.0) * (k + j)
    return total * q**-k


def _shintani_window(z: float, tau: float) -> float:
    """Log double gamma for ``z`` in the window ``[1, 2 + tau]``, with the
    tail resummation settled to relative tolerance ``_WINDOW_TOL``."""
    n0 = max(32, math.ceil(32.0 / tau))
    for _ in range(8):
        core = (
            (z / 2.0) * _LOG_2PI
            + ((z - z * z) / (2.0 * tau) - z / 2.0) * math.log(tau)
            + (z * z - z) * _EULER_GAMMA / (2.0 * tau)
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
            coeff = (_bernoulli_poly(k + 1, z) - _BERNOULLI_AT_ONE[k]) / (
                k * (k + 1) * tau**k
            )
            last = (-1.0) ** (k + 1) * coeff * _hurwitz_zeta(k, n0 + 1.0)
            tail += last
        if abs(last) < _WINDOW_TOL * max(1.0, abs(core + tail)):
            return core + tail
        n0 *= 2
    raise NonConvergenceError(
        f"double gamma tail did not settle at z={z}, tau={tau}"
    )


@cache
def log_gamma2(z: float, tau: float) -> float:
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
    require_finite("z", z, positive=True)
    require_finite("tau", tau, positive=True)
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
    return _shintani_window(z, tau) + shift


def log_f_beta_half(n: float, beta: float) -> float:
    """Log of the overlap constant ``f_{beta/2}(n)``.

    Defined for real ``n >= 0`` through the double gamma function,
    ``f(n) = (2 pi)**((n+1)/2) * tau**(-(n-1)n/(2 tau) - n/2) /
    Gamma_2(n + tau; 1, tau)`` with ``tau = 2/beta``; at integer ``n``
    it reduces to ``prod_{j=0}^{n-1} Gamma(1 + beta j / 2)``.
    """
    require_finite("beta", beta, positive=True)
    require_finite("n", n)
    tau = 2.0 / beta
    return (
        (n + 1.0) / 2.0 * _LOG_2PI
        - ((n - 1.0) * n / (2.0 * tau) + n / 2.0) * math.log(tau)
        - log_gamma2(n + tau, tau)
    )


def log_tau_hard(a: float, beta: float) -> float:
    """Log of the leading hard-edge constant via its gamma product.

    Requires ``beta * a / 2`` to be a nonnegative integer; the product
    form is ``2**((1 - beta/2) a) (2 pi)**(-beta a / 4) prod_{j=1}^{beta
    a/2} Gamma(2 j / beta)``.
    """
    require_finite("beta", beta, positive=True)
    m = quantized("beta*a/2", beta * a / 2.0)
    log_value = (1.0 - beta / 2.0) * a * math.log(2.0) - beta * a / 4.0 * _LOG_2PI
    for j in range(1, m + 1):
        log_value += math.lgamma(2.0 * j / beta)
    return log_value


def log_a_const(a: float, beta: float) -> float:
    """Log of the leading hard-edge constant, continued in ``a``.

    ``(beta/2)**(-beta a (a-1)/4) * (pi beta)**(-a/2) * 2**(a - beta
    a/2) * f_{beta/2}(a)``; agrees with :func:`log_tau_hard` whenever
    the latter's integrality constraint holds.
    """
    require_finite("beta", beta, positive=True)
    require_finite("a", a)
    return (
        -beta * a * (a - 1.0) / 4.0 * math.log(beta / 2.0)
        - a / 2.0 * math.log(math.pi * beta)
        + (a - beta * a / 2.0) * math.log(2.0)
        + log_f_beta_half(a, beta)
    )


def log_tau_hard_n(n: float, a: float, beta: float) -> float:
    """Log of the hard-edge constant for conditioning on ``n`` eigenvalues,
    assembled from ``f_{beta/2}``.

    The double-gamma part is the two ratios ``f(n + 1) / f(1)`` and ``f(n
    + a) / f(a)``, each exactly 1 at ``n = 0``, so the value there is
    ``0.0``.

    Parameters
    ----------
    n : float
        Number of conditioned eigenvalues; any nonnegative real.
    a : float
        Weight exponent parameter.
    beta : float
        Ensemble inverse temperature.

    Returns
    -------
    float
        Log of the constant.
    """
    require_finite("beta", beta, positive=True)
    require_finite("n", n)
    require_finite("a", a)
    tau = 2.0 / beta
    return (
        -(a + n) * 2.0 * n / tau * math.log(2.0)
        - math.lgamma(n + 1.0)
        + (n * (a + n) / tau + n) * math.log(tau)
        - n * _LOG_2PI
        + (log_f_beta_half(n + 1.0, beta) - log_f_beta_half(1.0, beta))
        + (log_f_beta_half(n + a, beta) - log_f_beta_half(a, beta))
    )


def log_b_const(a: float, beta: float) -> float:
    """Log of the torus-route normalization constant.

    ``prod_{j=1}^{a beta/2} Gamma(1 + 2/beta) Gamma(2 j / beta) /
    Gamma(1 + 2 j / beta)``; requires ``a beta / 2`` to be a nonnegative
    integer.
    """
    require_finite("beta", beta, positive=True)
    m = quantized("a*beta/2", a * beta / 2.0)
    log_value = 0.0
    for j in range(1, m + 1):
        log_value += (
            math.lgamma(1.0 + 2.0 / beta)
            + math.lgamma(2.0 * j / beta)
            - math.lgamma(1.0 + 2.0 * j / beta)
        )
    return log_value


def log_morris_value(n: int, a: float, b: float, c: float) -> float:
    """Log of the Morris integral in its gamma-product form.

    ``prod_{j=0}^{n-1} Gamma(1 + a + b + j c) Gamma(1 + (j+1) c) /
    (Gamma(1 + a + j c) Gamma(1 + b + j c) Gamma(1 + c))``.
    """
    n = counted(n, f"n must be a nonnegative integer, got {n}")
    log_value = 0.0
    for j in range(n):
        log_value += (
            math.lgamma(1.0 + a + b + j * c)
            + math.lgamma(1.0 + (j + 1.0) * c)
            - math.lgamma(1.0 + a + j * c)
            - math.lgamma(1.0 + b + j * c)
            - math.lgamma(1.0 + c)
        )
    return log_value
