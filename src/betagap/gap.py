"""Gap probabilities at the hard edge of beta ensembles.

``E(n; (0, s))`` — the probability that exactly ``n`` eigenvalues lie
in ``(0, s)`` — is computed along independent routes: convergent and
terminating hypergeometric series, series-times-quadrature for ``n >
0``, large-size asymptotic forms, and a large-deviation formula for
finite size.  The ensemble weight convention is ``lambda**(a*beta/2) *
exp(-beta*lambda/2)``; :func:`rescale_endpoint` maps gap endpoints from
other exponential rates into this convention.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .barnes import (
    log_a_const,
    log_f_beta_half,
    log_tau_hard_n,
)
from .errors import QuadratureError, quantized
from .hypergeom import ArgBlocks, HypergeomSpec, SeriesResult, pFq_alpha

__all__ = [
    "AsymptoticForm",
    "LinearStatistic",
    "rescale_endpoint",
    "exact_E0_hard",
    "exact_E0_hard_detailed",
    "exact_E0_finiteN",
    "exact_E0_finiteN_detailed",
    "exact_En_hard",
    "exact_En_hard_detailed",
    "exact_En_finiteN",
    "exact_En_finiteN_detailed",
    "smallest_eigenvalue_pdf",
    "asymptotic_E0",
    "asymptotic_En",
    "asymptotic_En_ratio",
    "linstat_mean",
    "linstat_variance",
    "char_poly_moment_asympt",
    "large_deviation_E0",
    "log_large_deviation_E0",
    "log_norm_ratio_exact",
    "log_norm_ratio_stirling",
    "multi_F01_asympt",
    "log_multi_F01_asympt",
    "duality_check",
]


@dataclass(frozen=True)
class AsymptoticForm:
    """Asymptotic gap probability ``exp(c_s s + c_sqrt sqrt(s) + c_log
    log s + c_const)`` with a tag naming which prediction it encodes."""

    c_s: float
    c_sqrt: float
    c_log: float
    c_const: float
    source: str

    def log_evaluate(self, s: float) -> float:
        """Log of the form at gap size ``s``."""
        return (
            self.c_s * s
            + self.c_sqrt * math.sqrt(s)
            + self.c_log * math.log(s)
            + self.c_const
        )

    def evaluate(self, s: float) -> float:
        """The form at gap size ``s``."""
        return math.exp(self.log_evaluate(s))


@dataclass(frozen=True)
class LinearStatistic:
    """Logarithmic linear statistic for the scaled spectrum on (0, 1).

    Encodes ``(beta a / 2) sum_l log(s_tilde_0 + x_l) + beta sum_j
    sum_l log(s_tilde_j + x_l)`` with ``x_l`` the eigenvalues divided
    by four times the ensemble size.
    """

    s_tilde_0: float
    s_tilde_list: tuple[float, ...]
    a: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_tilde_list", tuple(float(v) for v in self.s_tilde_list))
        for v in (self.s_tilde_0, *self.s_tilde_list):
            if v <= 0:
                raise ValueError(f"shift arguments must be positive, got {v}")


def rescale_endpoint(s: float, c: float, beta: float) -> float:
    """Map a gap endpoint from weight ``exp(-c lambda)`` to the
    canonical rate ``exp(-beta lambda / 2)``.

    Rescaling eigenvalues by ``2 c / beta`` converts the weight, so a
    gap ``(0, s)`` becomes ``(0, 2 c s / beta)``.
    """
    return 2.0 * c * s / beta


# ---------------------------------------------------------------------------
# exact routes
# ---------------------------------------------------------------------------


def exact_E0_hard_detailed(
    s: float, a: float, beta: float, tol: float = 1e-12, max_weight: int | None = None
) -> tuple[float, SeriesResult]:
    """Hard-edge ``E(0; (0, s))``: log value and series diagnostics.

    The series route multiplies ``exp(-beta s / 8)`` by the lower
    parameter ``a`` hypergeometric series with ``beta a / 2`` repeated
    arguments ``s / 4`` at deformation ``beta / 2``.
    """
    m = quantized("beta*a/2", beta * a / 2.0)
    spec = HypergeomSpec(
        upper=(), lower=(a,) if m else (), alpha=beta / 2.0,
        args=ArgBlocks(((s / 4.0, m),)),
    )
    series = pFq_alpha(spec, tol=tol, max_weight=max_weight)
    return -beta * s / 8.0 + series.log_value, series


def exact_E0_hard(
    s: float, a: float, beta: float, tol: float = 1e-12, max_weight: int | None = None
) -> float:
    """Hard-edge probability of an eigenvalue-free ``(0, s)``.

    Parameters
    ----------
    s : float
        Gap size in hard-edge units.
    a, beta : float
        Ensemble parameters; ``beta * a / 2`` must be a nonnegative
        integer for this route.
    tol, max_weight
        Series truncation controls.

    Returns
    -------
    float
        ``E(0; (0, s))``.
    """
    log_value, _ = exact_E0_hard_detailed(s, a, beta, tol, max_weight)
    return math.exp(log_value)


def exact_E0_finiteN_detailed(
    s: float,
    a: float,
    beta: float,
    N: int,
    tol: float = 1e-12,
    max_weight: int | None = None,
) -> tuple[float, SeriesResult]:
    """Finite-size ``E(0; (0, s))``: log value and series diagnostics.

    Terminating route ``exp(-beta N s / 2)`` times the series with
    upper parameter ``-N``, lower parameter ``a``, and ``beta a / 2``
    repeated arguments ``-s``.  ``N = 0`` is the empty ensemble, whose
    gap probability is 1.
    """
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    m = quantized("beta*a/2", beta * a / 2.0)
    if max_weight is None:
        max_weight = max(int(N) * max(m, 1), 200)
    spec = HypergeomSpec(
        upper=(-float(N),), lower=(a,) if m else (), alpha=beta / 2.0,
        args=ArgBlocks(((-s, m),)),
    )
    series = pFq_alpha(spec, tol=tol, max_weight=max_weight)
    return -beta * N * s / 2.0 + series.log_value, series


def exact_E0_finiteN(
    s: float,
    a: float,
    beta: float,
    N: int,
    tol: float = 1e-12,
    max_weight: int | None = None,
) -> float:
    """Probability that the size-``N`` ensemble leaves ``(0, s)`` empty.

    Parameters
    ----------
    s : float
        Gap endpoint on the unscaled eigenvalue axis.
    a, beta : float
        Ensemble parameters; ``beta * a / 2`` must be a nonnegative
        integer.
    N : int
        Ensemble size.
    tol, max_weight
        Series truncation controls.

    Returns
    -------
    float
        ``E_N(0; (0, s))``.
    """
    log_value, _ = exact_E0_finiteN_detailed(s, a, beta, N, tol, max_weight)
    return math.exp(log_value)


_QUAD_ORDERS = (8, 12, 18, 27, 40, 60)


def roots_jacobi(order: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Jacobi nodes and weights of ``scipy.special``.

    scipy is imported here, on first use, so that the series routes never
    load it.  The benchmark's tracer wraps this module attribute to record
    quadrature orders, so it stays a function of this module.
    """
    from scipy.special import roots_jacobi as scipy_roots_jacobi

    return scipy_roots_jacobi(order, alpha, beta)


def _jacobi_rule(order: int, power: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for ``int_0^1 (1-y)**power f(y) dy``."""
    nodes, weights = roots_jacobi(order, power, 0.0)
    return (nodes + 1.0) / 2.0, weights * 0.5 ** (power + 1.0)


def _vandermonde(y: tuple[float, ...], beta: float) -> float:
    """``prod_{i<j} |y_j - y_i|**beta``."""
    vander = 1.0
    for yi, yj in itertools.combinations(y, 2):
        vander *= abs(yj - yi) ** beta
    return vander


def _settled_quadrature(
    integrand: Callable[[tuple[float, ...]], float],
    n: int,
    power: float,
    quad_tol: float,
) -> tuple[float, int, float]:
    """``int_{[0,1]^n} prod_i (1 - y_i)**power integrand(y) dy``.

    A tensor Gauss–Jacobi rule raises its order through ``_QUAD_ORDERS``
    until two successive values agree to ``quad_tol``; if none do, the
    last value is kept when its change is below ``sqrt(quad_tol)``.
    Returns the value, the last order and the last relative change.
    """
    previous = None
    rel_change = math.inf
    for order in _QUAD_ORDERS:
        nodes, weights = _jacobi_rule(order, power)
        total = 0.0
        for point in itertools.product(zip(nodes, weights), repeat=n):
            y, w = zip(*point)
            total += math.prod(w) * integrand(y)
        if previous is not None and total != 0.0:
            rel_change = abs(total - previous) / abs(total)
            if rel_change < quad_tol:
                return total, order, rel_change
        previous = total
    if rel_change < math.sqrt(quad_tol):
        return previous, order, rel_change
    raise QuadratureError(
        f"integral not settled at order {order} (relative change {rel_change:.3e})"
    )


def _diagnostics(order: int, rel_change: float, trunc_weight: int, tail: float) -> dict:
    """Quadrature order and change, deepest series weight, and a tail
    bound covering both the series and the quadrature."""
    return {
        "order": order,
        "rel_change": rel_change,
        "trunc_weight": trunc_weight,
        "tail_bound": max(tail, rel_change),
    }


def _log_A_quad(n: int, a: float, beta: float) -> float:
    """Log of the ``n``-eigenvalue quadrature prefactor constant."""
    log_value = (
        -2.0 * n * math.log(2.0)
        - math.lgamma(n + 1.0)
        + n * math.log(beta / 2.0)
        + n * (a + n - 1.0) * beta * math.log(beta / 4.0)
        + n * math.lgamma(1.0 + beta / 2.0)
    )
    for j in range(2 * n):
        log_value -= math.lgamma(a * beta / 2.0 + 1.0 + j * beta / 2.0)
    return log_value


def exact_En_hard_detailed(
    s: float,
    a: float,
    beta: float,
    n: int,
    tol: float = 1e-12,
    quad_tol: float = 1e-9,
    max_weight: int | None = None,
) -> tuple[float, dict]:
    """Hard-edge ``E(n; (0, s))`` for ``n <= 3``: log value and diagnostics.

    Combines the ``n``-fold quadrature over conditioned eigenvalue
    positions with the lower-parameter ``a + 2n`` series evaluated at
    mixed argument blocks.  The quadrature rule absorbs the
    ``(1 - y)**(a beta / 2)`` factor and escalates its order until two
    successive evaluations agree to ``quad_tol``.  The diagnostics are
    ``order``, ``rel_change``, ``trunc_weight`` and ``tail_bound``.
    """
    if n < 0 or n > 3:
        raise ValueError(f"n must be between 0 and 3, got {n}")
    if n == 0:
        log_value, series = exact_E0_hard_detailed(s, a, beta, tol, max_weight)
        return log_value, _diagnostics(
            0, 0.0, series.max_weight_used, series.tail_estimate
        )
    m0 = quantized("beta*a/2", beta * a / 2.0)
    mb = quantized("beta", beta)
    alpha = beta / 2.0
    lower = a + 2.0 * n
    max_used, max_tail = 0, 0.0

    def integrand(y: tuple[float, ...]) -> float:
        nonlocal max_used, max_tail
        blocks = [(s / 4.0, m0)] + [(s * yj / 4.0, mb) for yj in y]
        spec = HypergeomSpec(
            upper=(), lower=(lower,), alpha=alpha, args=ArgBlocks(tuple(blocks))
        )
        series = pFq_alpha(spec, tol=tol, max_weight=max_weight)
        max_used = max(max_used, series.max_weight_used)
        max_tail = max(max_tail, series.tail_estimate)
        return _vandermonde(y, beta) * series.value

    total, order, rel_change = _settled_quadrature(
        integrand, n, beta * a / 2.0, quad_tol
    )
    log_pref = (
        _log_A_quad(n, a, beta)
        + (n + beta / 2.0 * n * (n + a - 1.0)) * math.log(s)
        - beta * s / 8.0
    )
    log_value = log_pref + math.log(total)
    return log_value, _diagnostics(order, rel_change, max_used, max_tail)


def exact_En_hard(
    s: float,
    a: float,
    beta: float,
    n: int,
    tol: float = 1e-12,
    quad_tol: float = 1e-9,
    max_weight: int | None = None,
) -> float:
    """Hard-edge probability of exactly ``n`` eigenvalues in ``(0, s)``.

    Parameters
    ----------
    s : float
        Gap size in hard-edge units.
    a, beta : float
        Ensemble parameters; this route needs both ``beta * a / 2`` and
        ``beta`` to be nonnegative integers.
    n : int
        Number of eigenvalues conditioned inside the gap (at most 3).
    tol, quad_tol, max_weight
        Series and quadrature controls.

    Returns
    -------
    float
        ``E(n; (0, s))``.
    """
    log_value, _ = exact_En_hard_detailed(s, a, beta, n, tol, quad_tol, max_weight)
    return math.exp(log_value)


def _log_laguerre_norm(a: float, beta: float, N: int) -> float:
    """Log normalization of the size-``N`` integral with weight
    ``x**(a beta / 2) exp(-beta x / 2)`` and repulsion ``beta``."""
    log_value = (
        N * (a * beta / 2.0 + 1.0) + beta * N * (N - 1.0) / 2.0
    ) * math.log(2.0 / beta)
    for j in range(N):
        log_value += (
            math.lgamma(a * beta / 2.0 + 1.0 + j * beta / 2.0)
            + math.lgamma(1.0 + (j + 1.0) * beta / 2.0)
            - math.lgamma(1.0 + beta / 2.0)
        )
    return log_value


def exact_En_finiteN_detailed(
    s: float,
    a: float,
    beta: float,
    n: int,
    N: int,
    tol: float = 1e-12,
    quad_tol: float = 1e-9,
    variant: str = "corrected",
    max_weight: int | None = None,
) -> tuple[float, dict]:
    """Finite-size ``E(n; (0, s))`` for ``n <= 3``: log value and the
    diagnostics of :func:`exact_En_hard_detailed`.

    The ``"corrected"`` variant carries the binomial label count
    ``C(N+n, n)``, the normalization ratio of the shifted-weight
    ensemble, and conditioned-coordinate multiplicity ``beta`` inside
    the terminating series.  The ``"printed"`` variant reproduces an
    alternative bookkeeping (prefactor ``(N)_n / n!``, same-weight
    normalization ratio, multiplicity ``a``) kept for comparison; it
    requires integer ``a``.  ``max_weight`` defaults to
    ``max(N (beta a / 2 + n beta), 200)``.
    """
    if n < 0 or n > 3:
        raise ValueError(f"n must be between 0 and 3, got {n}")
    if n == 0:
        log_value, series = exact_E0_finiteN_detailed(s, a, beta, N, tol, max_weight)
        return log_value, _diagnostics(
            0, 0.0, series.max_weight_used, series.tail_estimate
        )
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    m0 = quantized("beta*a/2", beta * a / 2.0)
    mb = quantized("beta", beta)
    alpha = beta / 2.0
    if max_weight is None:
        max_weight = max(N * (m0 + n * mb), 200)

    if variant == "corrected":
        log_pref = (
            math.lgamma(N + n + 1.0)
            - math.lgamma(N + 1.0)
            - math.lgamma(n + 1.0)
            + _log_laguerre_norm(a + 2.0 * n, beta, N)
            - _log_laguerre_norm(a, beta, N + n)
        )
        cond_mult = mb
    elif variant == "printed":
        log_pref = (
            math.lgamma(N + n)
            - math.lgamma(float(N))
            - math.lgamma(n + 1.0)
            + _log_laguerre_norm(a, beta, N)
            - _log_laguerre_norm(a, beta, N + n)
        )
        cond_mult = quantized("a", a)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    max_used, max_tail = 0, 0.0

    def integrand(u: tuple[float, ...]) -> float:
        nonlocal max_used, max_tail
        blocks = [(-s, m0)] + [(-s * uj, cond_mult) for uj in u]
        spec = HypergeomSpec(
            upper=(-float(N),), lower=(a + 2.0 * n,), alpha=alpha,
            args=ArgBlocks(tuple(blocks)),
        )
        series = pFq_alpha(spec, tol=tol, max_weight=max_weight)
        max_used = max(max_used, series.max_weight_used)
        max_tail = max(max_tail, series.tail_estimate)
        expo = math.exp(beta * s * sum(u) / 2.0)
        return _vandermonde(u, beta) * expo * series.value

    total, order, rel_change = _settled_quadrature(
        integrand, n, a * beta / 2.0, quad_tol
    )
    # y = s u substitution: s^n from dy, (s (1 - u))^(a beta / 2) from the
    # shifted weight, s^beta per coordinate pair from the repulsion.
    log_scale = (
        n + n * a * beta / 2.0 + beta * n * (n - 1.0) / 2.0
    ) * math.log(s)
    log_value = (
        log_pref + log_scale - beta * s * (N + n) / 2.0 + math.log(total)
    )
    return log_value, _diagnostics(order, rel_change, max_used, max_tail)


def exact_En_finiteN(
    s: float,
    a: float,
    beta: float,
    n: int,
    N: int,
    tol: float = 1e-12,
    quad_tol: float = 1e-9,
    variant: str = "corrected",
) -> float:
    """Finite-size probability of exactly ``n`` eigenvalues in ``(0, s)``.

    Parameters
    ----------
    s : float
        Gap endpoint on the unscaled eigenvalue axis.
    a, beta : float
        Ensemble parameters (``beta * a / 2`` and ``beta`` integral).
    n : int
        Conditioned eigenvalue count (at most 3).
    N : int
        Number of remaining eigenvalues; the ensemble size is ``N + n``.
    tol, quad_tol
        Series and quadrature controls.
    variant : str
        ``"corrected"`` or ``"printed"``; see
        :func:`exact_En_finiteN_detailed`.

    Returns
    -------
    float
        ``E_{N+n}(n; (0, s))``.
    """
    log_value, _ = exact_En_finiteN_detailed(s, a, beta, n, N, tol, quad_tol, variant)
    return math.exp(log_value)


def smallest_eigenvalue_pdf(
    k: int,
    s: float,
    a: float,
    beta: float,
    h: float | None = None,
    tol: float = 1e-12,
) -> float:
    """Density of the ``(k+1)``-th smallest hard-edge eigenvalue at ``s``.

    Central finite difference of ``-sum_{l<=k} E(l; (0, s))`` with step
    ``h`` (default scaled to ``s``).

    Parameters
    ----------
    k : int
        Order statistic index, 0 for the smallest eigenvalue (at most 3).
    s : float
        Evaluation point.
    a, beta : float
        Ensemble parameters, quantized as in :func:`exact_En_hard`.
    h : float, optional
        Difference step.
    tol : float
        Series tolerance.

    Returns
    -------
    float
        Approximate density value.
    """
    if k < 0 or k > 3:
        raise ValueError(f"k must be between 0 and 3, got {k}")
    if h is None:
        h = 1e-3 * max(1.0, s)
    if s - h <= 0:
        h = s / 2.0

    def cumulative(point: float) -> float:
        return sum(exact_En_hard(point, a, beta, l, tol) for l in range(k + 1))

    return (cumulative(s - h) - cumulative(s + h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# asymptotic forms
# ---------------------------------------------------------------------------


def asymptotic_E0(a: float, beta: float, variant: str = "F1A") -> AsymptoticForm:
    """Large-gap form of ``E(0; (0, s))``.

    All variants share ``exp(-beta s / 8 + beta a sqrt(s) / 2)`` and the
    constant; they differ in the power of ``s``:

    - ``"F1A"``: ``-beta a (a-1)/8 - a/4``, the power consistent with
      the finite-size large-deviation route (and with the classical
      ``beta = 2`` result).
    - ``"PU"``: ``-a (beta a / 2 + 1)/4 + beta a / 4``.
    - ``"MG"``: ``-beta a (a-1)/8 - a/8``.

    Parameters
    ----------
    a, beta : float
        Ensemble parameters.
    variant : str
        One of ``"F1A"``, ``"PU"``, ``"MG"``.

    Returns
    -------
    AsymptoticForm
    """
    if variant == "F1A":
        c_log = -beta * a * (a - 1.0) / 8.0 - a / 4.0
    elif variant == "PU":
        c_log = -a * (beta * a / 2.0 + 1.0) / 4.0 + beta * a / 4.0
    elif variant == "MG":
        c_log = -beta * a * (a - 1.0) / 8.0 - a / 8.0
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return AsymptoticForm(
        c_s=-beta / 8.0,
        c_sqrt=beta * a / 2.0,
        c_log=c_log,
        c_const=log_a_const(a, beta),
        source=variant,
    )


def asymptotic_En(n: float, a: float, beta: float) -> AsymptoticForm:
    """Large-gap form of ``E(n; (0, s))`` (duality-consistent variant)."""
    return AsymptoticForm(
        c_s=-beta / 8.0,
        c_sqrt=beta * (a / 2.0 + n),
        c_log=(
            -beta * a * (a - 1.0) / 8.0
            - a / 4.0
            - beta * (n * n + n * a) / 4.0
        ),
        c_const=log_a_const(a, beta) + log_tau_hard_n(n, a, beta),
        source="C2D",
    )


def asymptotic_En_ratio(n: float, a: float, beta: float) -> AsymptoticForm:
    """Large-gap form of the ratio ``E(n) / E(0)``."""
    return AsymptoticForm(
        c_s=0.0,
        c_sqrt=beta * n,
        c_log=-beta * (n * n + n * a) / 4.0,
        c_const=log_tau_hard_n(n, a, beta),
        source="EF",
    )


# ---------------------------------------------------------------------------
# linear statistics and large deviations
# ---------------------------------------------------------------------------


def _mean_block(x: float) -> float:
    """Equilibrium mean of ``log(x + t)`` per eigenvalue, halved."""
    root = math.sqrt(x * (x + 1.0))
    return (
        root
        - x
        + math.log((math.sqrt(x + 1.0) + math.sqrt(x)) / 2.0)
        - 0.5
    )


def _nu(x: float) -> float:
    """Fluctuation kernel variable in ``(-1, 0)`` for shift ``x > 0``."""
    return -(2.0 * x + 1.0) + 2.0 * math.sqrt(x * x + x)


def linstat_mean(ls: LinearStatistic, N: int) -> float:
    """Mean of the logarithmic linear statistic at ensemble size ``N``.

    Leading term ``2 N`` times the equilibrium block per unit weight
    plus the size-independent correction ``(1/(2 beta) - 1/4) *
    log((1 + x)/x)`` per unit weight.
    """
    beta = ls.beta
    correction = 1.0 / (2.0 * beta) - 0.25
    total = 0.0
    for weight, x in [(beta * ls.a / 2.0, ls.s_tilde_0)] + [
        (beta, x) for x in ls.s_tilde_list
    ]:
        total += weight * (
            2.0 * N * _mean_block(x) + correction * math.log((1.0 + x) / x)
        )
    return total


def linstat_variance(ls: LinearStatistic, prefactor: str = "2beta") -> float:
    """Limiting variance of the logarithmic linear statistic.

    The bracket combines self- and cross-terms of the kernel variables
    ``nu``; the overall prefactor is ``2 beta`` (the value a direct
    Fourier-coefficient computation of the fluctuation sum gives) or
    ``2 / beta`` (kept selectable because the two appear as competing
    readings; see the package notes).

    Parameters
    ----------
    ls : LinearStatistic
        Statistic definition.
    prefactor : str
        ``"2beta"`` (default) or ``"2overbeta"``.

    Returns
    -------
    float
        Variance of the statistic.
    """
    beta = ls.beta
    half_a = ls.a / 2.0
    nu0 = _nu(ls.s_tilde_0)
    nus = [_nu(x) for x in ls.s_tilde_list]
    bracket = -(half_a**2) * math.log1p(-nu0 * nu0)
    for v in nus:
        bracket -= math.log1p(-v * v)
        bracket -= ls.a * math.log1p(-nu0 * v)
    for i in range(len(nus)):
        for j in range(i + 1, len(nus)):
            bracket -= 2.0 * math.log1p(-nus[i] * nus[j])
    if prefactor == "2beta":
        scale = 2.0 * beta
    elif prefactor == "2overbeta":
        scale = 2.0 / beta
    else:
        raise ValueError(f"unknown prefactor {prefactor!r}")
    return scale * bracket


def char_poly_moment_asympt(s_tilde: float, a: float, beta: float, N: int) -> float:
    """Asymptotic moment of the shifted characteristic polynomial.

    Gaussian fluctuation approximation ``exp(c mu + c**2 sigma**2 / 2)``
    for ``< prod_l (s_tilde + x_l)**c >`` with ``c = beta a / 2`` and
    ``x_l`` the spectrum scaled to (0, 1).
    """
    c = beta * a / 2.0
    mean_unit = 2.0 * N * _mean_block(s_tilde) + (
        1.0 / (2.0 * beta) - 0.25
    ) * math.log((1.0 + s_tilde) / s_tilde)
    nu = _nu(s_tilde)
    var_unit = -(2.0 / beta) * math.log1p(-nu * nu)
    return math.exp(c * mean_unit + c * c * var_unit / 2.0)


def log_norm_ratio_exact(N: int, a: float, beta: float) -> float:
    """Log of the normalization ratio between the bare and the
    ``a``-weighted ensembles, via its gamma product."""
    log_value = N * a * beta / 2.0 * math.log(beta / 2.0)
    for j in range(N):
        log_value += math.lgamma(1.0 + j * beta / 2.0) - math.lgamma(
            a * beta / 2.0 + 1.0 + j * beta / 2.0
        )
    return log_value


def log_norm_ratio_stirling(N: int, a: float, beta: float) -> float:
    """Large-``N`` form of :func:`log_norm_ratio_exact`."""
    return (
        -a * N * beta / 2.0 * math.log(N)
        - beta * a * (a - 1.0) / 4.0 * math.log(N * beta / 2.0)
        - a / 2.0 * math.log(math.pi * N * beta)
        + a * N * beta / 2.0
        + log_f_beta_half(a, beta)
    )


def log_large_deviation_E0(N: int, s_tilde: float, a: float, beta: float) -> float:
    """Log of the bulk-scale gap probability ``E_N(0; (0, 4 N s_tilde))``.

    Assembled from the Stirling normalization ratio and the Gaussian
    fluctuation mean and variance of the shifted log statistic; exact
    up to ``O(1/N)`` corrections for fixed ``s_tilde > 0``.

    Parameters
    ----------
    N : int
        Ensemble size.
    s_tilde : float
        Gap endpoint as a fraction of the spectrum width ``4 N``.
    a, beta : float
        Ensemble parameters.

    Returns
    -------
    float
        ``log E``.
    """
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if not s_tilde > 0:
        raise ValueError(f"s_tilde must be positive, got {s_tilde}")
    root = math.sqrt(s_tilde * (s_tilde + 1.0))
    plus = math.sqrt(s_tilde + 1.0) + math.sqrt(s_tilde)
    return (
        -2.0 * beta * N * N * s_tilde
        - beta * a * (a - 1.0) / 4.0 * math.log(N * beta / 2.0)
        - a / 2.0 * math.log(math.pi * N * beta)
        + log_f_beta_half(a, beta)
        + N * beta * a * (root - s_tilde + math.log(plus))
        + beta * a / 4.0 * (1.0 / beta - 0.5) * math.log(1.0 + 1.0 / s_tilde)
        - beta * a * a / 4.0 * math.log(root)
        + beta * a * a / 2.0 * math.log(plus / 2.0)
    )


def large_deviation_E0(N: int, s_tilde: float, a: float, beta: float) -> float:
    """Bulk-scale gap probability (may underflow; see the log variant)."""
    return math.exp(log_large_deviation_E0(N, s_tilde, a, beta))


def log_multi_F01_asympt(
    s0: float,
    s_list: tuple[float, ...],
    a: float,
    n: int,
    beta: float,
    variant: str = "corrected",
) -> float:
    """Log of the asymptotic mixed-argument lower-parameter series.

    Applies to the lower parameter ``a + 2n`` series with ``beta a / 2``
    arguments ``s0 / 4`` and ``beta`` arguments ``s_j / 4`` as all the
    ``s`` grow together.  The ``"corrected"`` variant carries the
    constant of the continued hard-edge prefactor at parameter
    ``a + 2n`` and square-rooted single-argument powers, which is the
    combination consistent with the large-size fluctuation derivation;
    ``"printed"`` reproduces the alternative bookkeeping for
    comparison.

    Parameters
    ----------
    s0 : float
        Distinguished argument scale.
    s_list : tuple of float
        The ``n`` remaining argument scales.
    a : float
        Weight parameter.
    n : int
        Number of extra argument blocks; ``len(s_list)`` must equal it.
    beta : float
        Ensemble parameter.
    variant : str
        ``"corrected"`` or ``"printed"``.

    Returns
    -------
    float
        Log of the asymptotic value.
    """
    if len(s_list) != n:
        raise ValueError(f"expected {n} secondary scales, got {len(s_list)}")
    big_a = a + 2.0 * n
    roots = [math.sqrt(sj) for sj in s_list]
    root0 = math.sqrt(s0)

    if variant == "corrected":
        log_value = log_a_const(big_a, beta)
        mid = a * math.log(root0) + 2.0 * sum(math.log(r) for r in roots)
    elif variant == "printed":
        log_value = (
            -beta * big_a * (big_a - 1.0) / 4.0 * math.log(beta / 2.0)
            - big_a / 2.0 * math.log(math.pi * beta)
            + log_f_beta_half(big_a - 1.0, beta)
        )
        mid = a * math.log(s0 / 4.0) + 2.0 * sum(
            math.log(sj / 4.0) for sj in s_list
        )
    else:
        raise ValueError(f"unknown variant {variant!r}")

    log_value += beta * a / 2.0 * root0 + beta * sum(roots)
    log_value -= 0.5 * (1.0 - beta / 2.0) * mid
    log_value -= beta * (
        (a / 2.0) ** 2 * math.log(root0)
        + sum(math.log(r) for r in roots)
        + a * sum(math.log((root0 + r) / 2.0) for r in roots)
    )
    for i in range(n):
        for j in range(i + 1, n):
            log_value -= 2.0 * beta * math.log((roots[i] + roots[j]) / 2.0)
    return log_value


def multi_F01_asympt(
    s0: float,
    s_list: tuple[float, ...],
    a: float,
    n: int,
    beta: float,
    variant: str = "corrected",
) -> float:
    """Asymptotic mixed-argument series value (see the log variant)."""
    return math.exp(log_multi_F01_asympt(s0, s_list, a, n, beta, variant))


def duality_check(beta: float, n: float, a: float) -> dict:
    """Coefficient-level comparison of the gap asymptotics under
    ``beta -> 4/beta``.

    The left side is the ``E(n)`` form at ``(beta, n, a)`` evaluated in
    the rescaled variable ``s / (beta/2)**2``; the right side is the
    form at the mapped parameters ``(4/beta, beta(n+1)/2 - 1,
    beta(a-2)/2 + 2)``.  Matching coefficient-by-coefficient is the
    content of the duality.

    Returns
    -------
    dict
        Effective left and right coefficient tuples ``(c_s, c_sqrt,
        c_log, c_const)`` and their maximum absolute difference.
    """
    lhs = asymptotic_En(n, a, beta)
    half = beta / 2.0
    lhs_eff = (
        lhs.c_s / half**2,
        lhs.c_sqrt / half,
        lhs.c_log,
        lhs.c_const - 2.0 * lhs.c_log * math.log(half),
    )
    beta_dual = 4.0 / beta
    n_dual = beta * (n + 1.0) / 2.0 - 1.0
    a_dual = beta * (a - 2.0) / 2.0 + 2.0
    rhs = asymptotic_En(n_dual, a_dual, beta_dual)
    rhs_eff = (rhs.c_s, rhs.c_sqrt, rhs.c_log, rhs.c_const)
    diff = max(abs(x - y) for x, y in zip(lhs_eff, rhs_eff))
    return {
        "lhs": lhs_eff,
        "rhs": rhs_eff,
        "mapped": (beta_dual, n_dual, a_dual),
        "max_coeff_diff": diff,
    }
