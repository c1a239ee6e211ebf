"""Gap probabilities at the hard edge of beta ensembles.

``E(n; (0, s))`` — the probability that exactly ``n`` eigenvalues lie
in ``(0, s)`` — is computed along independent routes: convergent and
terminating hypergeometric series, for ``n = 1`` a series integrated
exactly over the conditioned eigenvalue, series-times-quadrature for
``n = 2, 3`` (folded tensor nodes at even ``beta``, a nested map at odd
``beta``; at the hard edge with ``a = 0`` the map's scale axis is exact,
so ``n = 2`` is one series and ``n = 3`` a rule over two ratios),
large-size asymptotic forms, and a large-deviation formula for finite
size: the normalization ratio times the Gaussian characteristic function
of a log linear statistic (:class:`LinearStatistic`).  Each closed form
is written once; the duality's constant identity is read from
:func:`duality_check`.  The hard-edge and finite-size ``E(n)``
routes, ``n >= 1``, share one body, ``_excess_integral``, and differ only
in their prefactor, series argument and rate.  The ensemble weight
convention is ``lambda**(a*beta/2) * exp(-beta*lambda/2)``; a gap ``(0,
s)`` under the rate ``exp(-c*lambda)`` is the gap ``(0, 2*c*s/beta)``
here.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .barnes import (
    log_a_const,
    log_f_beta_half,
    log_tau_hard_n,
)
from .errors import QuadratureError, ResourceLimitError, counted, quantized, require_finite
from .hypergeom import (
    ArgBlocks,
    HypergeomSpec,
    RatioIntegral,
    SeriesResult,
    _series_controls,
    pFq_alpha,
)
from .quadrature import gauss_jacobi, ratio_moments

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
    "linstat_mean",
    "linstat_variance",
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
        """Log of the form at gap size ``s``, finite and positive."""
        require_finite("s", s, positive=True)
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
    by four times the ensemble size.  The shifts must be finite and
    positive, ``a`` finite and nonnegative, ``beta`` finite and positive.
    """

    s_tilde_0: float
    s_tilde_list: tuple[float, ...]
    a: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_tilde_list", tuple(float(v) for v in self.s_tilde_list))
        require_finite("s_tilde_0", self.s_tilde_0, positive=True)
        for j, v in enumerate(self.s_tilde_list):
            require_finite(f"s_tilde_list[{j}]", v, positive=True)
        require_finite("a", self.a)
        require_finite("beta", self.beta, positive=True)


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


def _ensemble_size(N: int, least: int = 0) -> int:
    """``N`` as an ``int`` of at least ``least``, by
    :func:`~betagap.errors.counted`."""
    kind = f"at least {least}" if least else "nonnegative"
    return counted(N, f"N must be {kind} and integral, got {N}", least)


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
    gap probability is 1.  The series terminates at weight ``N beta a /
    2``, so by default ``max_weight`` sets no ceiling.
    """
    require_finite("beta", beta, positive=True)
    require_finite("s", s)
    N = _ensemble_size(N)
    m = quantized("beta*a/2", beta * a / 2.0)
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


_QUAD_ORDERS = (6, 8, 12, 18, 27, 40, 60)
_QUAD_TOL = 1e-9
#: Most nodes one quadrature level may hold: the folded order-60 level at
#: ``n = 3``.
_QUAD_NODE_BUDGET = math.comb(60, 3)


def roots_jacobi(order: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Jacobi nodes and weights for the weight ``(1-x)**alpha
    (1+x)**beta`` on ``[-1, 1]``, from the cached :func:`gauss_jacobi`.

    The benchmark's tracer wraps this module attribute to record
    quadrature orders, so it stays a function of this module.
    """
    return gauss_jacobi(order, alpha, beta)


def _jacobi_rule(
    order: int, power: float, power_at_zero: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for ``int_0^1 (1-y)**power y**power_at_zero f(y)
    dy``: the Gauss–Jacobi rule of :func:`roots_jacobi` mapped from ``[-1,
    1]``."""
    nodes, weights = roots_jacobi(order, power, power_at_zero)
    return (nodes + 1.0) / 2.0, weights * 0.5 ** (power + power_at_zero + 1.0)


def _folded_level(
    order: int, n: int, power: float, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tensor rule of :func:`_jacobi_rule` folded onto its strictly
    increasing node tuples: the tuples, their weights times ``n!``, and
    their Vandermonde factors ``prod_{i<j} |y_j - y_i|**beta``.  For a
    symmetric integrand that vanishes where two coordinates meet this is
    the whole tensor rule, in ``C(order, n)`` nodes instead of
    ``order**n``, gathered through one index array."""
    nodes, weights = _jacobi_rule(order, power)
    index = np.array(list(itertools.combinations(range(order), n)))
    points = nodes[index]
    point_weights = weights[index].prod(axis=1)
    vanders = np.ones(len(index))
    for i, j in itertools.combinations(range(n), 2):
        vanders *= np.abs(points[:, j] - points[:, i]) ** beta
    return points, math.factorial(n) * point_weights, vanders


def _ratio_level(
    order: int, n: int, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ratio axes of :func:`_nested_level` at ``t = 1``, ``order**(n -
    1)`` nodes: the tuples ``y_k = r_k ... r_{n-1}``, ``y_n = 1``, their
    weights times ``n!``, and the smooth factor ``prod_{j - i >= 2} (1 -
    r_i ... r_{j-1})**beta`` at each.

    ``r_l`` carries ``r_l**((l-1)(1 + beta l / 2)) (1 - r_l)**beta``, one
    :func:`_jacobi_rule` per axis.  Where the integrand integrates ``t``
    itself, this level is the whole rule.
    """
    axes = [_jacobi_rule(order, beta, (j - 1) * (1.0 + beta * j / 2.0)) for j in range(1, n)]
    count = order ** (n - 1)
    ratios = [grid.ravel() for grid in np.meshgrid(*(nodes for nodes, _ in axes), indexing="ij")]
    y = [np.ones(count)]
    for r in reversed(ratios):
        y.insert(0, y[0] * r)
    weights = np.full(count, float(math.factorial(n)))
    for grid in np.meshgrid(*(w for _, w in axes), indexing="ij"):
        weights = weights * grid.ravel()
    factors = np.ones(count)
    for k in range(n - 2):
        span = ratios[k]
        for r in ratios[k + 1 :]:
            span = span * r
            factors *= (1.0 - span) ** beta
    return np.stack(y, axis=1), weights, factors


def _nested_level(
    order: int, n: int, power: float, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A product rule over the ordered region ``y_1 < ... < y_n`` under the
    nested (Duffy-type) map ``y_n = t``, ``y_k = t r_k ... r_{n-1}``: the
    mapped tuples, their weights times ``n!``, and the smooth factor left
    at each, ``order**n`` nodes.

    Each consecutive difference is ``y_{k+1} (1 - r_k)``, so the map takes
    the kink of ``|y_{k+1} - y_k|**beta`` into the weight of ``r_k``.  With
    the Jacobian, ``t`` carries ``t**((n-1)(1 + beta n / 2)) (1 -
    t)**power``, one :func:`_jacobi_rule`, beside the ratio axes of
    :func:`_ratio_level`, each of whose nodes it scales.  What is left,
    ``prod_{j - i >= 2} (1 - r_i ... r_{j-1})**beta prod_{k<n} (1 -
    y_k)**power``, is smooth (M. G. Duffy, SIAM J. Numer. Anal. 19 (1982)
    1260).
    """
    ratio_points, ratio_weights, ratio_factors = _ratio_level(order, n, beta)
    t, t_weights = _jacobi_rule(order, power, (n - 1) * (1.0 + beta * n / 2.0))
    points = (ratio_points[:, None, :] * t[None, :, None]).reshape(-1, n)
    weights = np.outer(ratio_weights, t_weights).ravel()
    factors = np.repeat(ratio_factors, order)
    for k in range(n - 1):
        factors *= (1.0 - points[:, k]) ** power
    return points, weights, factors


def _settled_quadrature(
    integrand: Callable[[np.ndarray], Sequence[float]],
    n: int,
    power: float,
    beta: float,
    quad_tol: float,
    exact_t: bool = False,
) -> tuple[float, int, float]:
    """``int_{[0,1]^n} prod_i (1 - y_i)**power prod_{i<j} |y_i - y_j|**beta
    f(y) dy`` for an ``f`` symmetric in ``y``.

    The rule raises its order through ``_QUAD_ORDERS`` until two successive
    values agree to ``quad_tol``; if none do, the last value is kept when
    its change is below ``sqrt(quad_tol)``.  The parity of ``beta`` picks
    each level's nodes.  At even ``beta`` the repulsion is a polynomial and
    the level is :func:`_folded_level`, ``C(order, n)`` nodes.  Otherwise
    ``|y_i - y_j|**beta`` has a kink that stops a tensor rule from settling
    (relative change 2.9e-04 at order 60 for ``exact_En_finiteN(0.5, 0, 1,
    2, 5)``), and the level is :func:`_nested_level`, ``order**n`` nodes.
    With ``exact_t`` (``power`` 0) ``integrand`` integrates the nested
    map's ``t`` axis itself, and the level is :func:`_ratio_level` at every
    ``beta``, ``order**(n - 1)`` nodes.  A level over ``_QUAD_NODE_BUDGET``
    nodes raises ``ResourceLimitError`` before it is built.  ``integrand``
    takes a level's node tuples as the rows of an array, in increasing
    order, and returns ``f`` at each (with ``exact_t``, ``int_0^1
    t**((n-1)(1 + beta n / 2)) f(t y) dt``).  Returns the value, the last
    order and the last relative change.
    """
    if exact_t:
        axes, level = n - 1, lambda order: _ratio_level(order, n, beta)
    elif beta % 2.0 == 0.0:
        axes, level = None, lambda order: _folded_level(order, n, power, beta)
    else:
        axes, level = n, lambda order: _nested_level(order, n, power, beta)
    previous = None
    rel_change = math.inf
    for order in _QUAD_ORDERS:
        count = math.comb(order, n) if axes is None else order**axes
        if count > _QUAD_NODE_BUDGET:
            raise ResourceLimitError(
                f"quadrature level at order {order} needs {count} nodes, over the budget "
                f"of {_QUAD_NODE_BUDGET} (relative change {rel_change:.3e} at the level below)"
            )
        points, weights, factors = level(order)
        values = integrand(points)
        total = 0.0
        for weight, factor, value in zip(weights.tolist(), factors.tolist(), values):
            total += weight * (factor * value)
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
    """``n`` as an ``int`` from 0 to 3, by :func:`~betagap.errors.counted`."""
    return counted(n, f"n must be an integer between 0 and 3, got {n}", 0, 3)


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


def _excess_integral(
    s: float, a: float, beta: float, n: int, upper: tuple[float, ...], scale: float,
    rate: float, log_prefactor: Callable[[int], float], tol: float, max_weight: int | None,
) -> tuple[float, dict]:
    """Log value and diagnostics of an ``E(n)`` route for ``n >= 1``: the
    log of its prefactor plus that of the integral, over the ``n``
    conditioned positions ``y`` in ``(0, 1)`` with weight ``(1 - y)**(beta
    a / 2)`` and repulsion ``beta``, of ``exp(rate sum(y))`` times the
    lower-parameter ``a + 2n`` series with upper parameters ``upper``,
    ``beta a / 2`` arguments ``scale`` and ``beta`` arguments ``scale y``
    per position.

    ``n = 1`` is one exactly integrated series
    (:class:`~betagap.hypergeom.RatioIntegral`); when ``scale``
    underflows to 0 (a subnormal ``s``) only its weight-0 term is left.
    ``n = 2, 3`` run :func:`_settled_quadrature`, each node over its bound
    ``exp(rate n)`` so that none overflows; ``log_prefactor`` gets the
    number of positions whose bound the integral left out (0 at ``n = 1``,
    else ``n``).  At ``rate`` 0 and ``beta a / 2 = 0`` (the hard edge at
    ``a = 0``) every argument carries the nested map's ``t``, whose axis
    is then exact (``HypergeomSpec.t_power``): ``n = 3`` runs the ladder
    of :func:`_ratio_level`, and ``n = 2``, whose ratio axis is exact too,
    is one ``RatioIntegral`` series times ``2!``.  Finite size and ``a >
    0`` are not homogeneous in ``t``.  ``tol`` and ``max_weight`` are
    checked here, before the ``s = 0`` return; a terminating series (finite
    size) has no default ceiling (:func:`~betagap.hypergeom.pFq_alpha`).
    """
    m0 = quantized("beta*a/2", beta * a / 2.0)
    mb = quantized("beta", beta)
    _series_controls(tol, max_weight)
    if s == 0.0:
        return -math.inf, _diagnostics(0, 0.0, 0, 0.0)
    alpha, lower = beta / 2.0, (a + 2.0 * n,)
    if n == 1:
        if scale == 0.0:  # a subnormal s / 4 underflowed: only the weight-0 term is left
            log_term = rate + math.log(ratio_moments(m0, rate, 1)[0])
            return log_prefactor(0) + log_term, _diagnostics(0, 0.0, 0, 0.0)
        args = RatioIntegral(scale, m0, mb, m0, rate)
        spec = HypergeomSpec(upper=upper, lower=lower, alpha=alpha, args=args)
        series = pFq_alpha(spec, tol=tol, max_weight=max_weight)
        return log_prefactor(0) + series.log_value, _diagnostics(
            0, 0.0, series.max_weight_used, series.tail_estimate
        )
    exact_t = rate == 0.0 and m0 == 0
    t_power = (n - 1) * (1.0 + beta * n / 2.0) if exact_t else None
    if n == 2 and exact_t and scale != 0.0:  # a subnormal s runs the ratio rule below
        args = RatioIntegral(scale, mb, mb, mb, 0.0)
        spec = HypergeomSpec(upper=upper, lower=lower, alpha=alpha, args=args, t_power=t_power)
        series = pFq_alpha(spec, tol=tol, max_weight=max_weight)
        return log_prefactor(n) + math.log(2.0) + series.log_value, _diagnostics(
            0, 0.0, series.max_weight_used, series.tail_estimate
        )
    max_used, max_tail = 0, 0.0

    def integrand(points: np.ndarray) -> list[float]:
        nonlocal max_used, max_tail
        args = _batch_args(scale, m0, scale * points, mb)
        spec = HypergeomSpec(upper=upper, lower=lower, alpha=alpha, args=args, t_power=t_power)
        batch = pFq_alpha(spec, tol=tol, max_weight=max_weight)
        max_used = max(max_used, batch.max_weight_used)
        max_tail = max(max_tail, *(result.tail_estimate for result in batch))
        expo = (rate * (points.sum(axis=1) - n)).tolist()
        return [math.exp(x) * result.value for x, result in zip(expo, batch)]

    total, order, rel_change = _settled_quadrature(
        integrand, n, beta * a / 2.0, beta, _QUAD_TOL, exact_t
    )
    return log_prefactor(n) + math.log(total), _diagnostics(order, rel_change, max_used, max_tail)


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
    arguments ``s y / 4`` per position (:func:`_excess_integral` at rate
    0).  At ``n = 1`` the series is integrated exactly, term by term,
    from the moments of the weight; at ``n = 2, 3`` a Gauss–Jacobi rule
    absorbs the weight and escalates its order until two successive
    evaluations agree to ``_QUAD_TOL`` (:func:`_settled_quadrature`: the
    folded tensor rule at even ``beta``, the nested map at odd ``beta``).
    At ``a = 0`` the map's scale axis is exact: ``n = 2`` is one series
    (``order`` 0), and ``n = 3`` a rule over the two ratios alone, at
    every ``beta``.  A level over ``_QUAD_NODE_BUDGET`` nodes raises
    ``ResourceLimitError``.
    The diagnostics are ``order``, ``rel_change``, ``trunc_weight`` and
    ``tail_bound``; ``order`` 0 (with ``rel_change`` 0) means that no
    quadrature ran, and ``tail_bound`` is then the series' relative tail.  At ``s = 0`` with ``n >= 1`` the
    probability is 0: the log value is ``-inf``.  ``n`` must be an
    integer from 0 to 3; integral floats pass.
    """
    require_finite("beta", beta, positive=True)
    n = _excess_count(n)
    if n == 0:
        log_value, series = exact_E0_hard_detailed(s, a, beta, tol, max_weight)
        return log_value, _diagnostics(0, 0.0, series.max_weight_used, series.tail_estimate)
    require_finite("s", s)

    def log_prefactor(_: int) -> float:
        p = n + beta / 2.0 * n * (n + a - 1.0)
        return _log_A_quad(n, a, beta) + p * math.log(s) - beta * s / 8.0

    return _excess_integral(s, a, beta, n, (), s / 4.0, 0.0, log_prefactor, tol, max_weight)


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
        quadrature ladder, on folded tensor nodes at even ``beta`` and on
        the nested map's nodes at odd ``beta``; at ``a = 0``, ``n = 2``
        is one series too and ``n = 3`` a rule over two ratios.
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
    max_weight: int | None = None,
) -> tuple[float, dict]:
    """Finite-size ``E(n; (0, s))`` for ``n <= 3``: log value and the
    diagnostics of :func:`exact_En_hard_detailed`, with its ``s = 0``
    rule, its rule for ``n``, its exact ``n = 1`` integral and its
    quadrature nodes by the parity of ``beta``, all from
    :func:`_excess_integral`.  The series has upper parameter ``-N`` and
    arguments ``-s`` and ``-s y``; the integrand carries ``exp(beta s
    sum(y) / 2)``.  The prefactor is the binomial label count ``C(N+n,
    n)`` times the normalization ratio of the shifted-weight ensemble.
    The series terminates, so by default ``max_weight`` sets no ceiling.
    """
    require_finite("beta", beta, positive=True)
    n = _excess_count(n)
    if n == 0:
        log_value, series = exact_E0_finiteN_detailed(s, a, beta, N, tol, max_weight)
        return log_value, _diagnostics(0, 0.0, series.max_weight_used, series.tail_estimate)
    require_finite("s", s)
    N = _ensemble_size(N)

    def log_prefactor(bounded: int) -> float:
        # _log_laguerre_norm(a + 2n, beta, N) - _log_laguerre_norm(a, beta,
        # N + n), telescoped: of lgamma(m + j beta / 2) only j in [N + n, N +
        # 2n) and, negated, j < 2n are left, of lgamma(1 + (j + 1) beta / 2)
        # only j in [N, N + n), negated, and n lgamma(1 + beta / 2); their
        # log(2 / beta) powers differ by -p.  The two whole sums are near 89
        # at N = 10, and their difference would lose about 2e-14; for the
        # same reason the label count is the log of an exact integer.  Each
        # lgamma(x + d) - lgamma(x) left, x = 1 + (N + j + 1) beta / 2, is
        # the sum of log(x + i) over i < floor(d) plus a bracket that is
        # exactly 0 where d is an integer: lgamma near 7-20 would lose bits.
        m = a * beta / 2.0 + 1.0
        d = a * beta / 2.0 + (n - 1.0) * beta / 2.0
        whole = math.floor(d)
        norm_ratio = n * math.lgamma(1.0 + beta / 2.0)
        for j in range(n):
            x = 1.0 + (N + j + 1.0) * beta / 2.0
            norm_ratio += (
                sum(math.log(x + i) for i in range(whole))
                + (math.lgamma(x + d) - math.lgamma(x + whole))
            ) - (math.lgamma(m + j * beta / 2.0) + math.lgamma(m + (n + j) * beta / 2.0))
        # y = s u: s^n from dy, s^(a beta / 2) per position from the shifted
        # weight, s^beta per pair from the repulsion
        p = n + n * a * beta / 2.0 + beta * n * (n - 1.0) / 2.0
        return (
            math.log(math.comb(N + n, n)) + norm_ratio
            + p * (math.log(s) - math.log(2.0 / beta)) - beta * s * (N + n - bounded) / 2.0
        )

    return _excess_integral(
        s, a, beta, n, (-float(N),), -s, beta * s / 2.0, log_prefactor, tol, max_weight
    )


def exact_En_finiteN(
    s: float,
    a: float,
    beta: float,
    n: int,
    N: int,
    tol: float = 1e-12,
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

    Returns
    -------
    float
        ``E_{N+n}(n; (0, s))``.
    """
    log_value, _ = exact_En_finiteN_detailed(s, a, beta, n, N, tol)
    return math.exp(log_value)


# ---------------------------------------------------------------------------
# asymptotic forms
# ---------------------------------------------------------------------------


#: The log-s power of each ``E(0)`` large-gap variant as a function of ``(a,
#: beta)``, in ``report``'s order; ``None`` keeps :func:`asymptotic_En`'s
#: own, the duality-consistent ``"F1A"``.
_E0_LOG_POWERS = {
    "PU": lambda a, beta: -a * (beta * a / 2.0 + 1.0) / 4.0 + beta * a / 4.0,
    "MG": lambda a, beta: -beta * a * (a - 1.0) / 8.0 - a / 8.0,
    "F1A": None,
}


def asymptotic_E0(a: float, beta: float, variant: str = "F1A") -> AsymptoticForm:
    """Large-gap form of ``E(0; (0, s))``: ``asymptotic_En(0, a, beta)``.

    ``variant`` names the power of ``s``.  ``"F1A"`` keeps that form's
    ``-beta a (a-1)/8 - a/4``, consistent with the finite-size
    large-deviation route (and with the classical ``beta = 2`` result);
    ``"PU"``, ``-a (beta a / 2 + 1)/4 + beta a / 4``, and ``"MG"``,
    ``-beta a (a-1)/8 - a/8``, take theirs from ``_E0_LOG_POWERS``.  Any
    other name raises ``ValueError``.
    """
    if variant not in _E0_LOG_POWERS:
        raise ValueError(f"unknown variant {variant!r}")
    form = replace(asymptotic_En(0, a, beta), source=variant)
    log_power = _E0_LOG_POWERS[variant]
    return form if log_power is None else replace(form, c_log=log_power(a, beta))


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


# ---------------------------------------------------------------------------
# linear statistics and large deviations
# ---------------------------------------------------------------------------


def _nu(x: float) -> float:
    """Fluctuation kernel variable in ``(-1, 0)`` for shift ``x > 0``."""
    return -(2.0 * x + 1.0) + 2.0 * math.sqrt(x * x + x)


def linstat_mean(ls: LinearStatistic, N: int) -> float:
    """Mean of the logarithmic linear statistic at ensemble size ``N``.

    Leading term ``2 N`` times the equilibrium block (the equilibrium mean
    of ``log(x + t)`` per eigenvalue, halved) per unit weight plus the
    size-independent correction ``(1/(2 beta) - 1/4) * log((1 + x)/x)`` per
    unit weight.  ``N`` is a positive integer.
    """
    N = _ensemble_size(N, 1)
    beta = ls.beta
    correction = 1.0 / (2.0 * beta) - 0.25
    total = 0.0
    for weight, x in [(beta * ls.a / 2.0, ls.s_tilde_0)] + [(beta, x) for x in ls.s_tilde_list]:
        block = math.sqrt(x * (x + 1.0)) - x + math.log((math.sqrt(x + 1.0) + math.sqrt(x)) / 2.0)
        total += weight * (2.0 * N * (block - 0.5) + correction * math.log((1.0 + x) / x))
    return total


def linstat_variance(ls: LinearStatistic) -> float:
    """Limiting variance of the logarithmic linear statistic.

    The bracket combines self- and cross-terms of the kernel variables
    ``nu``; the overall prefactor is ``2 beta``, the value a direct
    Fourier-coefficient computation of the fluctuation sum gives.

    Parameters
    ----------
    ls : LinearStatistic
        Statistic definition.

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
    return 2.0 * beta * bracket


def log_norm_ratio_exact(N: int, a: float, beta: float) -> float:
    """Log of the normalization ratio between the bare and the
    ``a``-weighted size-``N`` ensembles, via their gamma products; ``N``
    is a nonnegative integer."""
    N = _ensemble_size(N)
    require_finite("beta", beta, positive=True)
    require_finite("a", a)
    return _log_laguerre_norm(0.0, beta, N) - _log_laguerre_norm(a, beta, N)


def log_norm_ratio_stirling(N: int, a: float, beta: float) -> float:
    """Large-``N`` form of :func:`log_norm_ratio_exact`; ``N`` is a
    positive integer."""
    N = _ensemble_size(N, 1)
    require_finite("beta", beta, positive=True)
    require_finite("a", a)
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
    N = _ensemble_size(N, 1)
    require_finite("s_tilde", s_tilde, positive=True)
    require_finite("beta", beta, positive=True)
    require_finite("a", a)
    ls = LinearStatistic(s_tilde, (), a, beta)
    return (
        -2.0 * beta * N * N * s_tilde
        + beta * a * N / 2.0 * math.log(4.0 * N)
        + log_norm_ratio_stirling(N, a, beta)
        + linstat_mean(ls, N)
        + linstat_variance(ls) / 2.0
    )


def log_multi_F01_asympt(
    s0: float,
    s_list: tuple[float, ...],
    a: float,
    n: int,
    beta: float,
) -> float:
    """Log of the asymptotic mixed-argument lower-parameter series.

    Applies to the lower parameter ``a + 2n`` series with ``beta a / 2``
    arguments ``s0 / 4`` and ``beta`` arguments ``s_j / 4`` as all the
    ``s`` grow together.  It carries the constant of the continued
    hard-edge prefactor at parameter ``a + 2n`` and square-rooted
    single-argument powers, the combination consistent with the
    large-size fluctuation derivation.

    Parameters
    ----------
    s0 : float
        Distinguished argument scale; finite and positive.
    s_list : tuple of float
        The ``n`` remaining argument scales; finite and positive.
    a : float
        Weight parameter; finite and nonnegative.
    n : int
        Number of extra argument blocks; ``len(s_list)`` must equal it.
    beta : float
        Ensemble parameter; finite and positive.

    Returns
    -------
    float
        Log of the asymptotic value.
    """
    n = counted(n, f"n must be a nonnegative integer, got {n}")
    if len(s_list) != n:
        raise ValueError(f"expected {n} secondary scales, got {len(s_list)}")
    require_finite("s0", s0, positive=True)
    for j, sj in enumerate(s_list):
        require_finite(f"s_list[{j}]", sj, positive=True)
    require_finite("a", a)
    require_finite("beta", beta, positive=True)
    roots = [math.sqrt(sj) for sj in s_list]
    root0 = math.sqrt(s0)
    log_value = log_a_const(a + 2.0 * n, beta)
    mid = a * math.log(root0) + 2.0 * sum(math.log(r) for r in roots)
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
    content of the duality; the two ``c_const`` entries are the two sides
    of its constant identity.  A negative mapped ``n`` or ``a`` raises
    ``ValueError``.

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
    if n_dual < 0 or a_dual < 0:
        raise ValueError(f"dual parameters out of range: n'={n_dual}, a'={a_dual}")
    rhs = asymptotic_En(n_dual, a_dual, beta_dual)
    rhs_eff = (rhs.c_s, rhs.c_sqrt, rhs.c_log, rhs.c_const)
    diff = max(abs(x - y) for x, y in zip(lhs_eff, rhs_eff))
    return {
        "lhs": lhs_eff,
        "rhs": rhs_eff,
        "mapped": (beta_dual, n_dual, a_dual),
        "max_coeff_diff": diff,
    }
