"""Gap probabilities at the hard edge of beta ensembles.

``E(n; (0, s))`` — the probability that exactly ``n`` eigenvalues lie
in ``(0, s)`` — is computed along independent routes: convergent and
terminating hypergeometric series, for ``n = 1`` a series integrated
exactly over the conditioned eigenvalue, series-times-quadrature for
``n = 2, 3``, large-size asymptotic forms, and a large-deviation
formula for finite size.  The ensemble weight convention is
``lambda**(a*beta/2) * exp(-beta*lambda/2)``; a gap ``(0, s)`` under the
rate ``exp(-c*lambda)`` is the gap ``(0, 2*c*s/beta)`` here.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .barnes import (
    log_a_const,
    log_f_beta_half,
    log_tau_hard_n,
)
from .errors import QuadratureError, quantized, require_finite
from .hypergeom import ArgBlocks, HypergeomSpec, RatioIntegral, SeriesResult, pFq_alpha
from .quadrature import gauss_jacobi

__all__ = [
    "AsymptoticForm",
    "LinearStatistic",
    "exact_E0_hard",
    "exact_E0_hard_detailed",
    "exact_E0_finiteN",
    "exact_E0_finiteN_detailed",
    "exact_En_hard",
    "exact_En_hard_detailed",
    "exact_En_finiteN",
    "exact_En_finiteN_detailed",
    "asymptotic_E0",
    "asymptotic_En",
    "asymptotic_En_ratio",
    "linstat_mean",
    "linstat_variance",
    "char_poly_moment_asympt",
    "log_large_deviation_E0",
    "log_norm_ratio_exact",
    "log_norm_ratio_stirling",
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
    require_finite("beta", beta, positive=True)
    require_finite("s", s)
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
        Gap size in hard-edge units; finite and nonnegative.
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


def _ensemble_size(N: int) -> int:
    """``N`` as an ``int``; raises ``ValueError`` unless it is a
    nonnegative integer (integral floats pass)."""
    if not (N >= 0 and float(N).is_integer()):
        raise ValueError(f"N must be nonnegative and integral, got {N}")
    return int(N)


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
    require_finite("beta", beta, positive=True)
    require_finite("s", s)
    N = _ensemble_size(N)
    m = quantized("beta*a/2", beta * a / 2.0)
    if max_weight is None:
        max_weight = max(N * max(m, 1), 200)
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
        Gap endpoint on the unscaled eigenvalue axis; finite and nonnegative.
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
_QUAD_TOL = 1e-9


def roots_jacobi(order: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Jacobi nodes and weights for the weight ``(1-x)**alpha
    (1+x)**beta`` on ``[-1, 1]``, from the cached :func:`gauss_jacobi`.

    The benchmark's tracer wraps this module attribute to record
    quadrature orders, so it stays a function of this module.
    """
    return gauss_jacobi(order, alpha, beta)


def _jacobi_rule(order: int, power: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for ``int_0^1 (1-y)**power f(y) dy``: the
    Gauss–Jacobi rule of :func:`roots_jacobi` mapped from ``[-1, 1]``."""
    nodes, weights = roots_jacobi(order, power, 0.0)
    return (nodes + 1.0) / 2.0, weights * 0.5 ** (power + 1.0)


def _vandermonde(y: tuple[float, ...], beta: float) -> float:
    """``prod_{i<j} |y_j - y_i|**beta``."""
    vander = 1.0
    for yi, yj in itertools.combinations(y, 2):
        vander *= abs(yj - yi) ** beta
    return vander


def _settled_quadrature(
    integrand: Callable[[np.ndarray], Sequence[float]],
    n: int,
    power: float,
    beta: float,
    quad_tol: float,
) -> tuple[float, int, float]:
    """``int_{[0,1]^n} prod_i (1 - y_i)**power prod_{i<j} |y_i - y_j|**beta
    f(y) dy`` for an ``f`` symmetric in ``y``.

    A tensor Gauss–Jacobi rule raises its order through ``_QUAD_ORDERS``
    until two successive values agree to ``quad_tol``; if none do, the
    last value is kept when its change is below ``sqrt(quad_tol)``.  Each
    level sums the rule folded onto its strictly increasing node tuples
    with weight ``n!``: the whole tensor rule, since the integrand is
    symmetric and, for ``beta > 0``, zero where two coordinates meet.
    That is ``C(order, n)`` nodes instead of ``order**n``.  ``integrand``
    takes a level's node tuples as the rows of an array, in increasing
    order, and returns ``f`` at each.  Returns the value, the last order
    and the last relative change.
    """
    previous = None
    rel_change = math.inf
    fold = math.factorial(n)
    for order in _QUAD_ORDERS:
        nodes, weights = _jacobi_rule(order, power)
        nodes, weights = nodes.tolist(), weights.tolist()
        count = math.comb(order, n)
        tuples = itertools.combinations(range(order), n)
        point_weights = np.fromiter(
            (fold * math.prod(weights[i] for i in index) for index in tuples), float, count
        )
        tuples = itertools.combinations(nodes, n)
        vanders = np.fromiter((_vandermonde(y, beta) for y in tuples), float, count)
        flat = itertools.chain.from_iterable(itertools.combinations(nodes, n))
        points = np.fromiter(flat, float, n * count).reshape(count, n)
        values = integrand(points)
        total = 0.0
        for weight, vander, value in zip(point_weights.tolist(), vanders.tolist(), values):
            total += weight * (vander * value)
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


def _batch_args(fixed: float, m0: int, nodes: np.ndarray, mult: int) -> np.ndarray:
    """Series arguments of a quadrature level, one row per node tuple:
    ``fixed`` ``m0`` times, then each of the row's ``nodes`` ``mult``
    times."""
    return np.concatenate(
        [np.full((len(nodes), m0), fixed), np.repeat(nodes, mult, axis=1)], axis=1
    )


def _diagnostics(order: int, rel_change: float, trunc_weight: int, tail: float) -> dict:
    """Quadrature order and change, deepest series weight, and a tail
    bound covering both the series and the quadrature.  Order 0 means
    that no quadrature ran."""
    return {
        "order": order,
        "rel_change": rel_change,
        "trunc_weight": trunc_weight,
        "tail_bound": max(tail, rel_change),
    }


def _excess_count(n: int) -> int:
    """``n`` as an ``int``; raises ``ValueError`` unless it is an integer
    from 0 to 3 (integral floats pass)."""
    if not (0 <= n <= 3 and float(n).is_integer()):
        raise ValueError(f"n must be an integer between 0 and 3, got {n}")
    return int(n)


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
    max_weight: int | None = None,
) -> tuple[float, dict]:
    """Hard-edge ``E(n; (0, s))`` for ``n <= 3``: log value and diagnostics.

    Integrates, over the ``n`` conditioned eigenvalue positions ``y`` in
    ``(0, 1)`` with weight ``(1 - y)**(a beta / 2)``, the lower-parameter
    ``a + 2n`` series at ``beta a / 2`` arguments ``s / 4`` and ``beta``
    arguments ``s y / 4`` per position.  At ``n = 1`` the series is
    integrated exactly, term by term, from the moments of the weight
    (:class:`~betagap.hypergeom.RatioIntegral`).  At ``n = 2, 3`` a
    tensor Gauss–Jacobi rule absorbs the weight and escalates its order
    until two successive evaluations agree to ``_QUAD_TOL``.  The
    diagnostics are ``order``, ``rel_change``, ``trunc_weight`` and
    ``tail_bound``; ``order`` 0 (with ``rel_change`` 0) means that no
    quadrature ran, and ``tail_bound`` is then the series' relative tail.
    At ``s = 0`` with ``n >= 1`` the probability is 0: the log value is
    ``-inf``.  ``n`` must be an integer from 0 to 3; integral floats
    pass.
    """
    require_finite("beta", beta, positive=True)
    n = _excess_count(n)
    if n == 0:
        log_value, series = exact_E0_hard_detailed(s, a, beta, tol, max_weight)
        return log_value, _diagnostics(
            0, 0.0, series.max_weight_used, series.tail_estimate
        )
    require_finite("s", s)
    m0 = quantized("beta*a/2", beta * a / 2.0)
    mb = quantized("beta", beta)
    if s == 0.0:
        return -math.inf, _diagnostics(0, 0.0, 0, 0.0)
    alpha = beta / 2.0
    lower = a + 2.0 * n
    log_pref = (
        _log_A_quad(n, a, beta)
        + (n + beta / 2.0 * n * (n + a - 1.0)) * math.log(s)
        - beta * s / 8.0
    )
    if n == 1:
        args = RatioIntegral(s / 4.0, m0, mb, m0, 0.0)
        spec = HypergeomSpec(upper=(), lower=(lower,), alpha=alpha, args=args)
        series = pFq_alpha(spec, tol=tol, max_weight=max_weight)
        return log_pref + series.log_value, _diagnostics(
            0, 0.0, series.max_weight_used, series.tail_estimate
        )
    max_used, max_tail = 0, 0.0

    def integrand(points: np.ndarray) -> list[float]:
        nonlocal max_used, max_tail
        args = _batch_args(s / 4.0, m0, s * points / 4.0, mb)
        spec = HypergeomSpec(upper=(), lower=(lower,), alpha=alpha, args=args)
        batch = pFq_alpha(spec, tol=tol, max_weight=max_weight)
        max_used = max(max_used, batch.max_weight_used)
        max_tail = max(max_tail, *(result.tail_estimate for result in batch))
        return [result.value for result in batch]

    total, order, rel_change = _settled_quadrature(
        integrand, n, beta * a / 2.0, beta, _QUAD_TOL
    )
    log_value = log_pref + math.log(total)
    return log_value, _diagnostics(order, rel_change, max_used, max_tail)


def exact_En_hard(
    s: float,
    a: float,
    beta: float,
    n: int,
    tol: float = 1e-12,
    max_weight: int | None = None,
) -> float:
    """Hard-edge probability of exactly ``n`` eigenvalues in ``(0, s)``.

    Parameters
    ----------
    s : float
        Gap size in hard-edge units; finite and nonnegative.
    a, beta : float
        Ensemble parameters; this route needs both ``beta * a / 2`` and
        ``beta`` to be nonnegative integers.
    n : int
        Number of eigenvalues conditioned inside the gap (at most 3):
        ``n = 1`` is one exactly integrated series, ``n = 2, 3`` run the
        quadrature ladder.
    tol, max_weight
        Series controls.

    Returns
    -------
    float
        ``E(n; (0, s))``.
    """
    log_value, _ = exact_En_hard_detailed(s, a, beta, n, tol, max_weight)
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
    variant: str = "corrected",
    max_weight: int | None = None,
) -> tuple[float, dict]:
    """Finite-size ``E(n; (0, s))`` for ``n <= 3``: log value and the
    diagnostics of :func:`exact_En_hard_detailed`, with its ``s = 0``
    rule, its rule for ``n`` and its exact ``n = 1`` integral; the
    integrand carries ``exp(beta s sum(y) / 2)``.  At ``n = 1`` it joins
    the weight; at ``n = 2, 3`` the quadrature sums it over its bound
    ``exp(beta s n / 2)``, which the log value takes back, so that no
    node overflows.

    The ``"corrected"`` variant carries the binomial label count
    ``C(N+n, n)``, the normalization ratio of the shifted-weight
    ensemble, and conditioned-coordinate multiplicity ``beta`` inside
    the terminating series.  The ``"printed"`` variant reproduces an
    alternative bookkeeping (prefactor ``(N)_n / n!``, same-weight
    normalization ratio, multiplicity ``a``) kept for comparison; it
    requires a positive integer ``a``.  ``max_weight`` defaults to
    ``max(N (beta a / 2 + n beta), 200)``.
    """
    require_finite("beta", beta, positive=True)
    n = _excess_count(n)
    if n == 0:
        log_value, series = exact_E0_finiteN_detailed(s, a, beta, N, tol, max_weight)
        return log_value, _diagnostics(
            0, 0.0, series.max_weight_used, series.tail_estimate
        )
    require_finite("s", s)
    N = _ensemble_size(N)
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
        if N == 0:
            raise ValueError("N must be positive for the printed variant, got 0")
        log_pref = (
            math.lgamma(N + n)
            - math.lgamma(float(N))
            - math.lgamma(n + 1.0)
            + _log_laguerre_norm(a, beta, N)
            - _log_laguerre_norm(a, beta, N + n)
        )
        cond_mult = quantized("a", a)
        if cond_mult == 0:
            raise ValueError(f"a must be a positive integer for the printed variant, got {a}")
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if s == 0.0:
        return -math.inf, _diagnostics(0, 0.0, 0, 0.0)
    # y = s u substitution: s^n from dy, (s (1 - u))^(a beta / 2) from the
    # shifted weight, s^beta per coordinate pair from the repulsion.
    log_scale = (
        n + n * a * beta / 2.0 + beta * n * (n - 1.0) / 2.0
    ) * math.log(s)
    upper, lower = (-float(N),), (a + 2.0 * n,)
    if n == 1:
        args = RatioIntegral(-s, m0, cond_mult, m0, beta * s / 2.0)
        spec = HypergeomSpec(upper=upper, lower=lower, alpha=alpha, args=args)
        series = pFq_alpha(spec, tol=tol, max_weight=max_weight)
        log_value = log_pref + log_scale - beta * s * (N + n) / 2.0 + series.log_value
        return log_value, _diagnostics(0, 0.0, series.max_weight_used, series.tail_estimate)
    max_used, max_tail = 0, 0.0

    def integrand(points: np.ndarray) -> list[float]:
        nonlocal max_used, max_tail
        args = _batch_args(-s, m0, -s * points, cond_mult)
        spec = HypergeomSpec(upper=upper, lower=lower, alpha=alpha, args=args)
        batch = pFq_alpha(spec, tol=tol, max_weight=max_weight)
        max_used = max(max_used, batch.max_weight_used)
        max_tail = max(max_tail, *(result.tail_estimate for result in batch))
        # exp(beta s sum(y) / 2) over its bound exp(beta s n / 2), which
        # the log value takes back, so no node overflows
        expo = (beta * s * (points.sum(axis=1) - n) / 2.0).tolist()
        return [math.exp(x) * result.value for x, result in zip(expo, batch)]

    total, order, rel_change = _settled_quadrature(
        integrand, n, a * beta / 2.0, beta, _QUAD_TOL
    )
    log_value = log_pref + log_scale - beta * s * N / 2.0 + math.log(total)
    return log_value, _diagnostics(order, rel_change, max_used, max_tail)


def exact_En_finiteN(
    s: float,
    a: float,
    beta: float,
    n: int,
    N: int,
    tol: float = 1e-12,
    variant: str = "corrected",
) -> float:
    """Finite-size probability of exactly ``n`` eigenvalues in ``(0, s)``.

    Parameters
    ----------
    s : float
        Gap endpoint on the unscaled eigenvalue axis; finite and nonnegative.
    a, beta : float
        Ensemble parameters (``beta * a / 2`` and ``beta`` integral).
    n : int
        Conditioned eigenvalue count (at most 3); as in
        :func:`exact_En_hard`, ``n = 1`` runs no quadrature.
    N : int
        Number of remaining eigenvalues; the ensemble size is ``N + n``.
    tol
        Series tolerance.
    variant : str
        ``"corrected"`` or ``"printed"``; see
        :func:`exact_En_finiteN_detailed`.

    Returns
    -------
    float
        ``E_{N+n}(n; (0, s))``.
    """
    log_value, _ = exact_En_finiteN_detailed(s, a, beta, n, N, tol, variant)
    return math.exp(log_value)


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
        Ensemble size; a positive integer.
    s_tilde : float
        Gap endpoint as a fraction of the spectrum width ``4 N``.
    a, beta : float
        Ensemble parameters; ``a`` finite and nonnegative, ``beta`` finite
        and positive.

    Returns
    -------
    float
        ``log E``.
    """
    if not (N >= 1 and float(N).is_integer()):
        raise ValueError(f"N must be at least 1 and integral, got {N}")
    require_finite("s_tilde", s_tilde, positive=True)
    require_finite("beta", beta, positive=True)
    require_finite("a", a)
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
