"""Tests for gap probabilities, asymptotic forms, and fluctuation formulas."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from betagap import gap
from betagap.barnes import log_a_const, log_f_beta_half, log_tau_hard, log_tau_hard_n
from betagap.errors import (
    BetagapError,
    ParameterQuantizationError,
    QuadratureError,
    ResourceLimitError,
    quantized,
)
from betagap.gap import (
    _QUAD_ORDERS,
    _QUAD_TOL,
    LinearStatistic,
    _batch_args,
    _jacobi_rule,
    _settled_quadrature,
    asymptotic_E0,
    asymptotic_En,
    duality_check,
    exact_E0_finiteN,
    exact_E0_finiteN_detailed,
    exact_E0_hard,
    exact_E0_hard_detailed,
    exact_En_finiteN,
    exact_En_finiteN_detailed,
    exact_En_hard,
    exact_En_hard_detailed,
    linstat_mean,
    linstat_variance,
    log_large_deviation_E0,
    log_multi_F01_asympt,
    log_norm_ratio_exact,
    log_norm_ratio_stirling,
)
from betagap.hypergeom import HypergeomSpec, RatioIntegral, SeriesResult, pFq_alpha

mp.mp.dps = 40


# ---------------------------------------------------------------- exact routes


def test_zero_parameter_is_pure_exponential() -> None:
    # At a = 0 the series terminates at the empty partition and the gap
    # probability is the bare exponential prefactor.
    for beta in (1.0, 2.0, 4.0, 2.5):
        for s in (1.0, 10.0):
            np.testing.assert_allclose(
                exact_E0_hard(s, 0.0, beta),
                math.exp(-beta * s / 8.0),
                rtol=5e-16,
            )


def test_bessel_closed_form() -> None:
    # At a = 1, beta = 2 the gap probability is exp(-s/4) I_0(sqrt(s)).
    for s in (1.0, 4.0, 16.0, 25.0):
        want = float(mp.exp(-s / 4) * mp.besseli(0, mp.sqrt(s)))
        np.testing.assert_allclose(exact_E0_hard(s, 1.0, 2.0), want, rtol=1e-12)


def test_detailed_returns_log_and_series() -> None:
    log_value, series = exact_E0_hard_detailed(4.0, 1.0, 2.0)
    np.testing.assert_allclose(math.exp(log_value), exact_E0_hard(4.0, 1.0, 2.0))
    assert series.max_weight_used > 0
    assert series.tail_estimate < 1e-12


def test_finite_size_frozen_value() -> None:
    # Cross-validated against the circular-average quadrature route.
    np.testing.assert_allclose(
        exact_E0_finiteN(0.5, 2.0 / 3.0, 3.0, 4), 0.2750488006387995, rtol=1e-11
    )


def test_finite_size_approaches_hard_edge() -> None:
    s, a, beta = 2.0, 1.0, 2.0
    hard = exact_E0_hard(s, a, beta)
    gaps = [
        abs(exact_E0_finiteN(s / (4.0 * N), a, beta, N) / hard - 1.0)
        for N in (10, 20)
    ]
    assert gaps[1] < gaps[0]
    assert gaps[1] < 0.02


def test_excess_count_reduces_to_gap() -> None:
    np.testing.assert_allclose(
        exact_En_hard(2.0, 1.0, 2.0, 0), exact_E0_hard(2.0, 1.0, 2.0), rtol=1e-14
    )
    np.testing.assert_allclose(
        exact_En_finiteN(0.5, 1.0, 2.0, 0, 6),
        exact_E0_finiteN(0.5, 1.0, 2.0, 6),
        rtol=1e-14,
    )


def test_two_eigenvalue_ensemble_oracle() -> None:
    # Independent 2-eigenvalue oracle: direct double quadrature of the
    # joint density x y exp(-x-y) (x-y)^2 at beta = 2, a = 1.
    def dens(x: float, y: float) -> float:
        return x * y * math.exp(-x - y) * (x - y) ** 2

    t, hi = 0.8, 60.0
    norm, _ = dblquad(dens, 0.0, hi, 0.0, hi)
    none_inside, _ = dblquad(dens, t, hi, t, hi)
    both_inside, _ = dblquad(dens, 0.0, t, 0.0, t)
    want = (
        none_inside / norm,
        1.0 - (none_inside + both_inside) / norm,
        both_inside / norm,
    )
    got = tuple(exact_En_finiteN(t, 1.0, 2.0, n, 2 - n) for n in range(3))
    np.testing.assert_allclose(got, want, rtol=1e-8)
    np.testing.assert_allclose(sum(got), 1.0, rtol=1e-12)


def _printed_single_excess(s: float, a: float, beta: float, N: int) -> tuple[float, SeriesResult]:
    """Log of finite-size ``E(1)`` in the printed bookkeeping, and its series:
    prefactor ``N``, the same-weight normalization ratio, and ``a`` (a
    positive integer) conditioned arguments, through ``gap.pFq_alpha``."""
    m0 = quantized("beta*a/2", beta * a / 2.0)
    args = RatioIntegral(-s, m0, quantized("a", a), m0, beta * s / 2.0)
    spec = HypergeomSpec(upper=(-float(N),), lower=(a + 2.0,), alpha=beta / 2.0, args=args)
    series = gap.pFq_alpha(spec, tol=1e-12)
    return (
        math.lgamma(N + 1.0) - math.lgamma(float(N)) - math.lgamma(2.0)
        + gap._log_laguerre_norm(a, beta, N) - gap._log_laguerre_norm(a, beta, N + 1)
        + (1.0 + a * beta / 2.0) * math.log(s) - beta * s * (N + 1) / 2.0 + series.log_value
    ), series


def test_published_variant_bookkeeping_disagrees() -> None:
    # The printed bookkeeping is a reference for comparison only: it badly
    # misses the direct-quadrature oracle away from n = 0.
    printed = math.exp(_printed_single_excess(0.8, 1.0, 2.0, 1)[0])
    np.testing.assert_allclose(printed, 0.03025329761534303, rtol=1e-9)
    corrected = exact_En_finiteN(0.8, 1.0, 2.0, 1, 1)
    assert abs(printed / corrected - 1.0) > 0.5


@pytest.mark.parametrize("a", [1.0, 2.0, 3.0])
def test_beta4_beta1_interlacing_identity(a: float) -> None:
    # E_4(0; (0, s/4); a) = E_1(0; (0, s); a') + E_1(1; (0, s); a') with
    # a' = 2a - 2: an exact identity, so the batched beta = 1 quadrature on
    # the right meets the beta = 4 series on the left to rounding.
    a_prime = 2.0 * a - 2.0
    for s in (0.5, 2.0, 8.0, 30.0, 100.0):
        left = exact_E0_hard(s / 4.0, a, 4.0)
        right = exact_E0_hard(s, a_prime, 1.0) + exact_En_hard(s, a_prime, 1.0, 1)
        assert abs(left - right) <= 1e-13 * left, (s, left, right)


@pytest.mark.parametrize("s, a_prime", [(4.0, 0.0), (20.0, 0.0), (40.0, 0.0), (4.0, 2.0)])
def test_beta4_beta1_decimation_at_one(s: float, a_prime: float) -> None:
    # E_4(1; (0, s/4); a) = E_1(2; (0, s); a') + E_1(3; (0, s); a') with
    # a' = 2a - 2 (Forrester & Rains, MSRI Publ. 40 (2001)): the beta = 1
    # side runs the nested map at n = 2 and 3, the beta = 4 side is one
    # exactly integrated series.
    left = exact_En_hard_detailed(s / 4.0, (a_prime + 2.0) / 2.0, 4.0, 1)[0]
    two = exact_En_hard_detailed(s, a_prime, 1.0, 2)[0]
    three = exact_En_hard_detailed(s, a_prime, 1.0, 3)[0]
    right = three + math.log1p(math.exp(two - three))
    assert abs(math.expm1(right - left)) <= 1e-12, (left, right)


# (beta, s) -> hard-edge log E(2) at a = 0 by the quadrature ladder (the
# fold at even beta, the nested map at odd beta), or the end of the
# ResourceLimitError message it raised, computed before the t axis became
# exact.
HARD_TWO_AT_ZERO_A_LADDER = {
    (1.0, 0.5): -11.239368528896687,
    (1.0, 4.0): -5.218632287594135,
    (1.0, 40.0): -0.4990603128944089,
    (1.0, 160.0): -4.2339253780294985,
    (2.0, 0.5): -13.350001335093369,
    (2.0, 4.0): -5.46479044117096,
    (2.0, 40.0): -0.24022757759459878,
    (2.0, 160.0): "alpha=1.0 with 4 variables would exceed 2000000 strips at weight 47",
    (3.0, 0.5): -15.70773411208752,
    (3.0, 4.0): -5.958811894601606,
    (3.0, 40.0): "alpha=1.5 with 6 variables would exceed 2000000 strips at weight 35",
    (3.0, 160.0): "alpha=1.5 with 6 variables would exceed 2000000 strips at weight 35",
    (4.0, 0.5): -18.135373224045935,
    (4.0, 4.0): -6.52357674857318,
    (4.0, 40.0): "alpha=2.0 with 8 variables would exceed 2000000 strips at weight 32",
    (4.0, 160.0): "alpha=2.0 with 8 variables would exceed 2000000 strips at weight 32",
}


@pytest.mark.parametrize("beta, s", sorted(HARD_TWO_AT_ZERO_A_LADDER))
def test_hard_excess_at_zero_a_matches_the_ladder(
    beta: float, s: float, monkeypatch: pytest.MonkeyPatch
) -> None:
    # At a = 0, n = 2 is one series with both axes integrated exactly: no
    # rule, order 0, and the ladder's value or its error (the strip budget
    # of the same contraction, at the same weight).
    want = HARD_TWO_AT_ZERO_A_LADDER[beta, s]
    rules: list = []
    monkeypatch.setattr(gap, "roots_jacobi", lambda *args: rules.append(args))
    if isinstance(want, str):
        with pytest.raises(ResourceLimitError, match=f"{want}$"):
            exact_En_hard_detailed(s, 0.0, beta, 2)
        return
    log_value, diag = exact_En_hard_detailed(s, 0.0, beta, 2)
    assert abs(math.expm1(log_value - want)) <= 4e-15, (log_value, want)
    assert diag["order"] == 0 and diag["rel_change"] == 0.0 and rules == []


def test_hard_three_at_zero_a_and_decimation() -> None:
    # n = 3 at a = 0 runs the ratio rule, order**2 nodes, with t exact.  At
    # s = 160 the ladder gave log E_1(3) = -1.1875656389189846, and through
    # E_4(1; (0, s/4); 1) = E_1(2; (0, s); 0) + E_1(3; (0, s); 0) the beta = 4
    # value past its strip budget, -1.14112906379161.
    three, diag = exact_En_hard_detailed(160.0, 0.0, 1.0, 3)
    assert abs(three - -1.1875656389189846) <= 1e-14
    assert diag["order"] == 12 and diag["rel_change"] < _QUAD_TOL
    two = exact_En_hard_detailed(160.0, 0.0, 1.0, 2)[0]
    assert abs(three + math.log1p(math.exp(two - three)) - -1.14112906379161) <= 1e-13


@pytest.mark.parametrize(
    "args, value",
    [
        # relative change 4.0e-04 at order 60
        ((0.5, 2.0, 1.0, 2), 3.4413311297176317e-10),
        # relative change 4.0e-04 at order 60
        ((4.0, 2.0, 1.0, 2), None),
        # settled only at order 60, 7.7e-08 off
        ((1.0, 2.0 / 3.0, 3.0, 2), None),
        # finite size: relative change 2.9e-04 at order 60
        ((0.5, 0.0, 1.0, 2, 5), None),
    ],
)
def test_odd_beta_excess_settles(args: tuple, value: float | None) -> None:
    # The folded tensor rule did not settle on the |y_1 - y_2|**beta kink;
    # the nested map does by order 8, and its value at a = 2, s = 0.5 is
    # pinned.  (The hard edge at a = 0 runs no nested map; see
    # test_hard_excess_at_zero_a_matches_the_ladder.)
    route = exact_En_hard_detailed if len(args) == 4 else exact_En_finiteN_detailed
    log_value, diag = route(*args)
    assert diag["order"] <= 8 and diag["rel_change"] < _QUAD_TOL
    if value is not None:
        assert abs(math.exp(log_value) / value - 1.0) <= 1e-13


@pytest.mark.parametrize("a", [0.0, 2.0])
@pytest.mark.parametrize("s", [0.5, 2.0])
def test_odd_beta_finite_excess_sums_to_one(s: float, a: float) -> None:
    # Three eigenvalues at beta = 1: E(0) + E(1) + E(2) + E(3) = 1, with
    # E(2) and E(3) from the nested map.
    total = exact_E0_finiteN(s, a, 1.0, 3) + sum(
        exact_En_finiteN(s, a, 1.0, n, 3 - n) for n in (1, 2, 3)
    )
    assert abs(total - 1.0) <= 1e-12


@pytest.mark.parametrize("a, beta", [(1.0, 2.0), (0.0, 1.0), (2.0, 1.0)])
def test_single_excess_at_subnormal_s(a: float, beta: float) -> None:
    # s / 4 underflows to 0 below 2e-323, and RatioIntegral raised
    # ValueError; the series is then its weight-0 term, so E(1) follows
    # the s**P of the prefactor, P = 1 + beta a / 2.
    tiny, small = 5e-324, 1e-300
    log_tiny, diag = exact_En_hard_detailed(tiny, a, beta, 1)
    power = 1.0 + beta * a / 2.0
    want = exact_En_hard_detailed(small, a, beta, 1)[0] + power * math.log(tiny / small)
    assert abs(log_tiny - want) <= 1e-12 * abs(want)
    assert diag == {"order": 0, "rel_change": 0.0, "trunc_weight": 0, "tail_bound": 0.0}


def test_hard_excess_frozen_values() -> None:
    # Both values cross-validated against tridiagonal Monte Carlo.
    np.testing.assert_allclose(
        exact_En_hard(4.0, 0.0, 2.0, 1), 0.6278873226233452, rtol=1e-8
    )
    np.testing.assert_allclose(
        exact_En_hard(2.0, 1.0, 2.0, 1), 0.050122094366487326, rtol=1e-8
    )


def test_excess_count_validation() -> None:
    with pytest.raises(ValueError):
        exact_En_hard(1.0, 1.0, 2.0, 4)
    with pytest.raises(ValueError):
        exact_En_finiteN(1.0, 1.0, 2.0, -1, 5)


def test_excess_count_must_be_integral() -> None:
    # A float n used to end in TypeError from math.factorial: integral
    # floats are counts, anything else names n.
    assert exact_En_hard_detailed(4.0, 1.0, 2.0, 1.0) == exact_En_hard_detailed(4.0, 1.0, 2.0, 1)
    assert exact_En_hard_detailed(4.0, 0.0, 2.0, 2.0) == exact_En_hard_detailed(4.0, 0.0, 2.0, 2)
    assert exact_En_finiteN_detailed(0.5, 1.0, 2.0, 1.0, 5) == exact_En_finiteN_detailed(
        0.5, 1.0, 2.0, 1, 5
    )
    for n in (1.5, math.nan, 3.5, -1.0):
        message = f"^n must be an integer between 0 and 3, got {n}$"
        with pytest.raises(ValueError, match=message):
            exact_En_hard_detailed(4.0, 1.0, 2.0, n)
        with pytest.raises(ValueError, match=message):
            exact_En_finiteN_detailed(0.5, 1.0, 2.0, n, 5)


# ------------------------------------------------------ E(1) as one series


def _ladder_series(
    spec: HypergeomSpec, tol: float, max_weight: int | None = None
) -> SeriesResult:
    """The integral a ``RatioIntegral`` series stands for, summed as
    ``E(1)`` summed it before: the Gauss–Jacobi ladder of
    ``_settled_quadrature`` over one batch of node series per level, each
    node's series times ``exp(rate y)``.  Only ``log_value`` is filled in."""
    arg = spec.args

    def integrand(points: np.ndarray) -> list[float]:
        args = _batch_args(arg.u, arg.p, arg.u * points, arg.q)
        node_spec = HypergeomSpec(spec.upper, spec.lower, spec.alpha, args)
        batch = pFq_alpha(node_spec, tol=tol, max_weight=max_weight)
        expo = (arg.rate * points[:, 0]).tolist()
        return [math.exp(x) * result.value for x, result in zip(expo, batch)]

    total, _, _ = _settled_quadrature(integrand, 1, arg.power, 1.0, _QUAD_TOL)
    return SeriesResult(total, math.log(total), 1, 0, 0.0, False, 0)


def _routes_agree(route, monkeypatch: pytest.MonkeyPatch) -> None:
    """``route()``'s log value against the same route with its one
    series replaced by the ladder: both raise the same ``BetagapError``
    type, or agree to 1e-13 relative.  Any other error fails, so that a
    call both sides reject alike (a stale keyword) cannot pass."""
    try:
        log_value = route()[0]
    except BetagapError as error:  # the ladder must raise the same type
        with monkeypatch.context() as patch:
            patch.setattr(gap, "pFq_alpha", _ladder_series)
            with pytest.raises(type(error)):
                route()
        return
    with monkeypatch.context() as patch:
        patch.setattr(gap, "pFq_alpha", _ladder_series)
        want = route()[0]
    assert abs(math.expm1(log_value - want)) <= 1e-13, (log_value, want)


@pytest.mark.parametrize("beta, a", [(1.0, 0.0), (1.0, 2.0), (2.0, 0.0), (2.0, 1.0), (4.0, 0.5)])
@pytest.mark.parametrize("s", [0.5, 4.0, 40.0])
def test_single_excess_hard_matches_the_ladder(
    beta: float, a: float, s: float, monkeypatch: pytest.MonkeyPatch
) -> None:
    _routes_agree(lambda: exact_En_hard_detailed(s, a, beta, 1), monkeypatch)


@pytest.mark.parametrize("bookkeeping", ["corrected", "printed"])
@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("N", [1, 5, 10])
def test_single_excess_finite_matches_the_ladder(
    bookkeeping: str, beta: float, N: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The route: a = 2/beta puts one argument at -s beside the conditioned
    # ones, a = 0 none.  The printed reference conditions a arguments, not
    # beta: a = 1 and 2 (at beta = 1 both sides raise, for beta a / 2 or a
    # lower-parameter pole).
    route = {
        "corrected": lambda s, a: exact_En_finiteN_detailed(s, a, beta, 1, N),
        "printed": lambda s, a: _printed_single_excess(s, a, beta, N),
    }[bookkeeping]
    a_values = (0.0, 2.0 / beta) if bookkeeping == "corrected" else (1.0, 2.0)
    for a, s in itertools.product(a_values, (0.1, 0.5, 2.0, 5.0)):
        _routes_agree(lambda: route(s, a), monkeypatch)


@pytest.mark.parametrize("s", [0.5, 20.0, 800.0])
def test_single_excess_two_eigenvalue_closed_form(s: float) -> None:
    # Two eigenvalues of density (x - y)**2 exp(-x - y) / 2 (beta = 2,
    # a = 0): exactly one lies in (0, s) with probability exp(-s) (s**2
    # + 2) - 2 exp(-2 s).  At s = 800 the ladder's node factor exp(beta s
    # y / 2) overflowed; the moments carry exp(beta s / 2) as a log.
    want = -s + math.log(s * s + 2.0) + math.log1p(-2.0 * math.exp(-s) / (s * s + 2.0))
    log_value, _ = exact_En_finiteN_detailed(s, 0.0, 2.0, 1, 1)
    assert abs(math.expm1(log_value - want)) <= 1e-13, (log_value, want)


def test_single_excess_is_one_series_and_no_rule(monkeypatch: pytest.MonkeyPatch) -> None:
    calls: list[str] = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(gap, "pFq_alpha", counted("pFq_alpha", gap.pFq_alpha))
    monkeypatch.setattr(gap, "roots_jacobi", counted("roots_jacobi", gap.roots_jacobi))
    for a in (0.0, 1.0):
        exact_En_hard_detailed(4.0, a, 2.0, 1)
        assert calls == ["pFq_alpha"]
        calls.clear()
        exact_En_finiteN_detailed(0.5, a, 2.0, 1, 5)
        assert calls == ["pFq_alpha"]
        calls.clear()


# (s, a, beta, n) -> (log value, order, rel_change, trunc_weight, tail_bound),
# as computed before both routes shared one quadrature loop, then re-pinned
# when series layers became whole-array sums (last digits of rel_change),
# when tail_bound became relative to each node's series value, when the
# Gauss–Jacobi rules became the package's own (values within 1.8e-15), and,
# for n = 1, when the integral became one exactly integrated series: order
# 0, rel_change 0 and the series' own tail (values within 8.9e-16), and when
# the ladder began at order 6: (4, 0, 2, 2) settles at order 8, its value
# unchanged and its tail bound the order-8 series' own; and when two-value
# layers became contractions of cached sums (values within 8.9e-16; the
# order-6 and order-8 totals of (4, 0, 2, 2), equal to the last bit before,
# now differ by two units in the last place); and when n = 2 at a = 0 became
# one series with t and r exact: (4, 0, 2, 2) runs no quadrature, its value
# unchanged and its tail bound the series' own; and when a series' log value
# became the log of its one scaled sum (log values within 2 units in the
# last place, the tail bound of (10, 1, 2, 1) within 7.1e-15).
HARD_EXCESS_PINS = {
    (1.0, 0.0, 1.0, 1): (-2.1421585207014013, 0, 0.0, 9, 2.721979436590153e-19),
    (1.0, 0.0, 2.0, 1): (-1.508799814031318, 0, 0.0, 11, 6.4528436927420745e-19),
    (1.0, 1.0, 2.0, 1): (-4.269634634858525, 0, 0.0, 11, 1.3348032210459121e-17),
    (1.0, 2.0, 1.0, 1): (-5.992396265376198, 0, 0.0, 10, 7.343396040038893e-19),
    (10.0, 0.0, 2.0, 1): (-0.17714816856738946, 0, 0.0, 17, 8.118278700936077e-17),
    (10.0, 1.0, 2.0, 1): (-0.61793997219911, 0, 0.0, 19, 1.3268045641152424e-16),
    (4.0, 0.0, 1.0, 1): (-0.9466111376720515, 0, 0.0, 11, 3.406095564983511e-18),
    (4.0, 0.0, 2.0, 1): (-0.4653945511863855, 0, 0.0, 14, 1.374512518294291e-17),
    (4.0, 0.0, 2.0, 2): (-5.46479044117096, 0, 0.0, 15, 1.0664727753875973e-16),
    (4.0, 1.0, 2.0, 1): (-1.8241327419135258, 0, 0.0, 15, 4.236321034882243e-17),
    (4.0, 2.0, 1.0, 1): (-3.3461246569469507, 0, 0.0, 12, 2.0199981476424516e-16),
}

# (s, a, beta, n, N) -> E_{N+n}(n; (0, s)), pinned the same way.
FINITE_EXCESS_PINS = {
    (0.5, 0.0, 1.0, 1, 10): 0.6312057207905936,
    (0.5, 0.0, 1.0, 1, 5): 0.6894767780690154,
    (0.5, 0.0, 2.0, 1, 10): 0.5172571788964264,
    (0.5, 0.0, 2.0, 1, 5): 0.8219353346969259,
    (0.5, 1.0, 2.0, 1, 10): 0.809252648736131,
    (0.5, 1.0, 2.0, 1, 5): 0.6732268230326233,
    (0.5, 2.0, 1.0, 1, 10): 0.5214370513219538,
    (0.5, 2.0, 1.0, 1, 5): 0.2750281590055647,
    (0.5, 1.0, 2.0, 2, 4): 0.011505657728140883,
    (0.3, 0.0, 2.0, 3, 1): 2.5108334296492924e-08,
}


@pytest.mark.parametrize("args", sorted(HARD_EXCESS_PINS))
def test_hard_excess_pinned_bits(args: tuple) -> None:
    log_value, order, rel_change, trunc_weight, tail_bound = HARD_EXCESS_PINS[args]
    assert exact_En_hard_detailed(*args) == (
        log_value,
        {
            "order": order,
            "rel_change": rel_change,
            "trunc_weight": trunc_weight,
            "tail_bound": tail_bound,
        },
    )


@pytest.mark.parametrize("args", sorted(FINITE_EXCESS_PINS))
def test_finite_excess_pinned_bits(args: tuple) -> None:
    assert exact_En_finiteN(*args) == FINITE_EXCESS_PINS[args]


def test_finite_excess_detailed() -> None:
    # n = 1 runs no quadrature, and its series (upper parameter -5 over
    # 3 variables) terminates exactly at weight 15, so its tail is 0.
    log_value, diag = exact_En_finiteN_detailed(0.5, 1.0, 2.0, 1, 5)
    assert math.exp(log_value) == exact_En_finiteN(0.5, 1.0, 2.0, 1, 5)
    assert diag == {"order": 0, "rel_change": 0.0, "trunc_weight": 15, "tail_bound": 0.0}
    # n = 2 runs the quadrature ladder
    _, diag = exact_En_finiteN_detailed(0.5, 1.0, 2.0, 2, 4)
    assert diag["order"] == 8
    assert diag["tail_bound"] >= diag["rel_change"] > 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_finite_excess_large_endpoint_does_not_overflow(n: int) -> None:
    # exp(beta s (y_1 + ... + y_n) / 2) overflowed at a node and the call
    # ended in OverflowError; over its bound exp(beta s n / 2) it cannot,
    # and the ladder reports that it does not settle.
    with pytest.raises(QuadratureError, match="not settled at order 60"):
        exact_En_finiteN(800.0, 0.0, 2.0, n, 1)


def test_finite_excess_zero_delegates_to_gap() -> None:
    log_value, diag = exact_En_finiteN_detailed(0.5, 1.0, 2.0, 0, 6)
    want_log, series = exact_E0_finiteN_detailed(0.5, 1.0, 2.0, 6)
    assert log_value == want_log
    assert diag == {
        "order": 0,
        "rel_change": 0.0,
        "trunc_weight": series.max_weight_used,
        "tail_bound": series.tail_estimate,
    }


def test_settled_quadrature_escalates_then_raises() -> None:
    # int_0^1 int_0^1 (1 - x)(1 - y)(x - y)**2 (x + y) dx dy = 1/45; the rule
    # is exact for polynomials, so the second order already agrees with the
    # first.
    total, order, rel_change = _settled_quadrature(
        lambda points: points.sum(axis=1), 2, 1.0, 2.0, 1e-12
    )
    assert math.isclose(total, 1.0 / 45.0, rel_tol=1e-14)
    assert order == _QUAD_ORDERS[1] and rel_change < 1e-12
    # A kink inside (0, 1) keeps changing in the fifth digits at every order.
    with pytest.raises(QuadratureError, match="not settled at order 60"):
        _settled_quadrature(
            lambda points: np.abs(points[:, 0] - 1.0 / 3.0) ** 0.5, 1, 0.0, 2.0, 1e-12
        )


def test_settled_quadrature_accepts_a_last_change_below_the_root_tolerance() -> None:
    # |y - 1/3|**1.5 has a kink the rule never resolves to _QUAD_TOL: no two
    # levels agree to 1e-9, and the order-60 level is kept because its change
    # (1.33e-5) is below sqrt(_QUAD_TOL).  Against the exact integral
    # ((1/3)**2.5 + (2/3)**2.5) / 2.5 its error is 2.41e-5, within
    # sqrt(_QUAD_TOL) but 1.8 times the change it reports.
    total, order, rel_change = _settled_quadrature(
        lambda points: np.abs(points[:, 0] - 1.0 / 3.0) ** 1.5, 1, 0.0, 2.0, _QUAD_TOL
    )
    exact = ((1.0 / 3.0) ** 2.5 + (2.0 / 3.0) ** 2.5) / 2.5
    assert order == _QUAD_ORDERS[-1]
    assert _QUAD_TOL <= rel_change < math.sqrt(_QUAD_TOL)
    assert abs(total - exact) <= math.sqrt(_QUAD_TOL) * exact


@pytest.mark.parametrize("n", [2, 3])
def test_folded_rule_is_the_tensor_rule(n: int) -> None:
    # The Vandermonde factor vanishes on the diagonal, so for a symmetric
    # integrand n! times the strictly increasing tuples is the whole tensor
    # rule, summed here exactly over all order**n tuples.
    seen = []

    def integrand(points: np.ndarray) -> np.ndarray:
        seen.append(points)
        return np.exp(points.sum(axis=1) / 2.0)

    total, order, _ = _settled_quadrature(integrand, n, 1.0, 2.0, 1e-12)
    assert len(seen[-1]) == math.comb(order, n)
    assert (np.diff(seen[-1], axis=1) > 0.0).all()
    nodes, weights = _jacobi_rule(order, 1.0)
    tensor = math.fsum(
        math.prod(w for _, w in point)
        * _pairwise_vandermonde(tuple(y for y, _ in point), 2.0)
        * math.exp(sum(y for y, _ in point) / 2.0)
        for point in itertools.product(zip(nodes.tolist(), weights.tolist()), repeat=n)
    )
    assert abs(total - tensor) <= 1e-15 * tensor
    # The level's factors are the pairwise products, at every even beta.
    for beta in (2.0, 4.0, 6.0):
        points, _, factors = gap._folded_level(order, n, 1.0, beta)
        want = [_pairwise_vandermonde(y, beta) for y in points.tolist()]
        np.testing.assert_allclose(factors, want, rtol=1e-15, atol=0.0)


def _pairwise_vandermonde(y: tuple[float, ...], beta: float) -> float:
    """``prod_{i<j} |y_j - y_i|**beta``, one pair at a time."""
    return math.prod(abs(yj - yi) ** beta for yi, yj in itertools.combinations(y, 2))


def _log_selberg(n: int, power: float, beta: float) -> float:
    """Log of ``int_{[0,1]^n} prod_i (1 - y_i)**power prod_{i<j} |y_i -
    y_j|**beta dy``, Selberg's product of gamma functions."""
    g = beta / 2.0
    return sum(
        math.lgamma(1.0 + j * g) + math.lgamma(power + 1.0 + j * g) + math.lgamma(1.0 + (j + 1) * g)
        - math.lgamma(power + 2.0 + (n + j - 1) * g) - math.lgamma(1.0 + g)
        for j in range(n)
    )


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("power", [0.0, 1.0])
@pytest.mark.parametrize("n", [2, 3])
def test_settled_quadrature_is_selberg_at_every_beta(n: int, power: float, beta: float) -> None:
    # With f = 1 the integral is Selberg's.  At odd beta the folded tensor
    # rule met the kink of |y_i - y_j|**beta and never settled; under the
    # nested map the integrand left is a polynomial, so the first two
    # levels agree.
    seen = []

    def ones(points: np.ndarray) -> np.ndarray:
        seen.append(points)
        return np.ones(len(points))

    total, order, _ = _settled_quadrature(ones, n, power, beta, 1e-12)
    assert order == _QUAD_ORDERS[1]
    assert abs(math.log(total) - _log_selberg(n, power, beta)) <= 1e-14
    count = math.comb(order, n) if beta == 2.0 else order**n
    assert seen[-1].shape == (count, n)
    assert (np.diff(seen[-1], axis=1) > 0.0).all()


@pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_ratio_level_is_selberg_at_every_beta(n: int, beta: float) -> None:
    # With exact_t the integrand integrates t itself: for f = 1 it returns
    # int_0^1 t**c dt = 1 / (c + 1), c = (n-1)(1 + beta n / 2), at each of
    # the order**(n-1) ratio nodes, and the integral is Selberg's at power 0.
    seen = []
    c = (n - 1) * (1.0 + beta * n / 2.0)

    def ones(points: np.ndarray) -> np.ndarray:
        seen.append(points)
        return np.full(len(points), 1.0 / (c + 1.0))

    total, order, _ = _settled_quadrature(ones, n, 0.0, beta, 1e-12, exact_t=True)
    assert order == _QUAD_ORDERS[1]
    assert abs(math.log(total) - _log_selberg(n, 0.0, beta)) <= 1e-14
    assert seen[-1].shape == (order ** (n - 1), n)
    assert (np.diff(seen[-1], axis=1) > 0.0).all() and (seen[-1][:, -1] == 1.0).all()


def test_quadrature_node_budget(monkeypatch: pytest.MonkeyPatch) -> None:
    # A level over the budget raises before it is built.
    monkeypatch.setattr(gap, "_QUAD_NODE_BUDGET", 20)
    with pytest.raises(ResourceLimitError, match="at order 27 needs 27 nodes, over the budget"):
        _settled_quadrature(
            lambda points: np.abs(points[:, 0] - 1.0 / 3.0) ** 0.5, 1, 0.0, 2.0, 1e-12
        )
    built = []
    monkeypatch.setattr(gap, "_nested_level", lambda *args: built.append(args))
    monkeypatch.setattr(gap, "_ratio_level", lambda *args: built.append(args))
    with pytest.raises(ResourceLimitError, match="at order 6 needs 216 nodes"):
        exact_En_hard_detailed(4.0, 2.0, 1.0, 3)
    # the hard edge at a = 0 integrates t exactly: order**2 nodes at n = 3
    with pytest.raises(ResourceLimitError, match="at order 6 needs 36 nodes"):
        exact_En_hard_detailed(4.0, 0.0, 1.0, 3)
    assert built == []


@pytest.mark.parametrize(
    "args",
    [
        (4.0, 2.0, 2.0, 2), (4.0, 2.0, 2.0, 3), (4.0, 1.0, 2.0, 2), (4.0, 1.0, 2.0, 3),
        (4.0, 0.5, 4.0, 2),
        (0.5, 1.0, 2.0, 2, 4), (0.5, 1.0, 2.0, 3, 4), (0.3, 0.0, 2.0, 2, 1), (0.3, 0.0, 2.0, 3, 1),
    ],
)
def test_nested_map_agrees_with_the_fold_at_even_beta(
    args: tuple, monkeypatch: pytest.MonkeyPatch
) -> None:
    # Each node set checks the other: at even beta the route runs the fold,
    # and with the fold's level swapped for the map's it runs the map.  The
    # hard edge at a = 0 runs neither (_ratio_level), so no row is there.
    route = exact_En_hard_detailed if len(args) == 4 else exact_En_finiteN_detailed
    fold = route(*args)[0]
    monkeypatch.setattr(gap, "_QUAD_ORDERS", _QUAD_ORDERS[:4])
    monkeypatch.setattr(gap, "_folded_level", gap._nested_level)
    nested = route(*args)[0]
    assert abs(math.expm1(nested - fold)) <= 1e-13, (nested, fold)


# ------------------------------------------------------------ asymptotic forms


def test_leading_asymptotic_variants() -> None:
    # The three variants share every coefficient except the log slope.
    expected_log = {"PU": 0.0, "MG": -0.125, "F1A": -0.25}
    for variant, c_log in expected_log.items():
        form = asymptotic_E0(1.0, 2.0, variant=variant)
        assert form.source == variant
        np.testing.assert_allclose(form.c_s, -0.25, rtol=1e-15)
        np.testing.assert_allclose(form.c_sqrt, 1.0, rtol=1e-15)
        np.testing.assert_allclose(form.c_log, c_log, atol=1e-15)
        np.testing.assert_allclose(
            form.c_const, -0.5 * math.log(2.0 * math.pi), rtol=1e-14
        )
    with pytest.raises(ValueError):
        asymptotic_E0(1.0, 2.0, variant="bogus")


_FORM_BETAS = (0.5, 1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, 6.0, 7.3)
_FORM_AS = (0.0, 1.0 / 3.0, 1.0, 1.5, 2.5, 4.0, 9.1)


@pytest.mark.parametrize("beta", _FORM_BETAS)
def test_excess_constant_vanishes_at_n_zero(beta: float) -> None:
    # Each double-gamma ratio of log_tau_hard_n is exactly 1 at n = 0.  It
    # was the double-gamma rounding of log Gamma(1): -1.2e-13 at beta = 0.5.
    assert [log_tau_hard_n(0, a, beta) for a in _FORM_AS] == [0.0] * len(_FORM_AS)


@pytest.mark.parametrize("beta", _FORM_BETAS)
def test_leading_form_is_the_excess_form_at_n_zero(beta: float) -> None:
    # asymptotic_E0 is asymptotic_En at n = 0, field for field; "PU" and
    # "MG" differ from it in c_log only.
    for a in _FORM_AS:
        excess = asymptotic_En(0, a, beta)
        assert asymptotic_E0(a, beta, "F1A") == replace(excess, source="F1A"), a
        for variant in ("PU", "MG"):
            rival = asymptotic_E0(a, beta, variant)
            assert rival == replace(excess, c_log=rival.c_log, source=variant), a


def test_asymptotic_form_evaluation() -> None:
    form = asymptotic_E0(1.0, 2.0)
    s = 100.0
    log_direct = (
        form.c_s * s
        + form.c_sqrt * math.sqrt(s)
        + form.c_log * math.log(s)
        + form.c_const
    )
    np.testing.assert_allclose(form.log_evaluate(s), log_direct, rtol=1e-15)


def test_excess_asymptotic_coefficients() -> None:
    for n, a, beta in ((1.0, 1.0, 2.0), (2.0, 2.0, 1.0)):
        form = asymptotic_En(n, a, beta)
        assert form.source == "C2D"
        np.testing.assert_allclose(form.c_s, -beta / 8.0, rtol=1e-15)
        np.testing.assert_allclose(form.c_sqrt, beta * (a / 2.0 + n), rtol=1e-15)
        np.testing.assert_allclose(
            form.c_log,
            -beta * a * (a - 1.0) / 8.0 - a / 4.0 - beta * (n * n + n * a) / 4.0,
            rtol=1e-14,
        )
        np.testing.assert_allclose(
            form.c_const,
            log_tau_hard(a, beta) + log_tau_hard_n(n, a, beta),
            rtol=1e-13,
        )


def test_excess_ratio_coefficients() -> None:
    # The large-gap form of E(n) / E(0) is the difference of the two forms.
    for n, a, beta in ((1.0, 1.0, 2.0), (2.0, 2.0, 1.0)):
        excess, base = asymptotic_En(n, a, beta), asymptotic_E0(a, beta)
        np.testing.assert_allclose(excess.c_s - base.c_s, 0.0, atol=1e-15)
        np.testing.assert_allclose(excess.c_sqrt - base.c_sqrt, beta * n, rtol=1e-15)
        np.testing.assert_allclose(
            excess.c_log - base.c_log, -beta * (n * n + n * a) / 4.0, rtol=1e-14
        )
        np.testing.assert_allclose(
            excess.c_const - base.c_const, log_tau_hard_n(n, a, beta), rtol=1e-13
        )


def test_duality_of_asymptotic_forms() -> None:
    for beta, n, a in ((2.0, 1.0, 2.0), (4.0, 0.0, 2.0), (1.0, 1.0, 4.0)):
        report = duality_check(beta, n, a)
        assert report["max_coeff_diff"] < 1e-10
        assert len(report["lhs"]) == len(report["rhs"]) == 4
    # The beta = 2, a = 2 point maps onto itself.
    self_dual = duality_check(2.0, 1.0, 2.0)
    np.testing.assert_allclose(self_dual["lhs"], self_dual["rhs"], rtol=1e-12)


def test_multi_argument_reduction_to_leading_form() -> None:
    # With no conditioned eigenvalues the multi-argument asymptotic
    # collapses onto the leading form (up to the removed exponential).
    s = 400.0
    form = asymptotic_E0(1.0, 2.0)
    lhs = log_multi_F01_asympt(s, (), 1.0, 0, 2.0)
    rhs = form.log_evaluate(s) + 2.0 * s / 8.0
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0, 7.0])
def test_multi_argument_at_equal_scales_is_the_shifted_leading_form(beta: float, n: int) -> None:
    # With every scale equal to s0 the n extra blocks are the lower parameter
    # a + 2n of the leading form, so the pair term between the blocks has
    # the leading form's constant and powers as its reference.
    for a in (0.0, 1.0, 2.0):
        for s in (1.0, 16.0, 400.0, 2500.0):
            got = log_multi_F01_asympt(s, (s,) * n, a, n, beta)
            want = asymptotic_E0(a + 2.0 * n, beta).log_evaluate(s) + beta * s / 8.0
            assert abs(got - want) <= 3.5e-15 * max(1.0, abs(want)), (a, s, got, want)
        # and the value does not depend on the order of the blocks
        values = [
            log_multi_F01_asympt(300.0, scales, a, n, beta)
            for scales in itertools.permutations((100.0, 256.0, 400.0)[:n])
        ]
        assert max(values) - min(values) <= 1e-15 * max(abs(v) for v in values)


def _published_multi_F01(s0: float, s_list: tuple[float, ...], a: float, n: int, beta: float) -> float:
    """``log_multi_F01_asympt`` with the as-published constant at ``A = a +
    2n`` (no ``2**(A - beta A / 2)``, ``f_{beta/2}`` at ``A - 1``) and
    powers of ``s / 4`` in place of ``sqrt(s)``."""
    big_a, half_power = a + 2.0 * n, 0.5 * (1.0 - beta / 2.0)
    shift = -log_a_const(big_a, beta) + (
        -beta * big_a * (big_a - 1.0) / 4.0 * math.log(beta / 2.0)
        - big_a / 2.0 * math.log(math.pi * beta) + log_f_beta_half(big_a - 1.0, beta)
    )
    for x, weight in ((s0, a), *((sj, 2.0) for sj in s_list)):
        shift -= half_power * weight * (math.log(x / 4.0) - math.log(math.sqrt(x)))
    return log_multi_F01_asympt(s0, s_list, a, n, beta) + shift


def test_multi_argument_published_offset() -> None:
    # The as-published constant differs by exactly a factor two here.
    corrected = log_multi_F01_asympt(400.0, (256.0,), 1.0, 1, 2.0)
    printed = _published_multi_F01(400.0, (256.0,), 1.0, 1, 2.0)
    np.testing.assert_allclose(math.exp(corrected - printed), 2.0, rtol=1e-9)


# ------------------------------------------------------- fluctuation formulas


def _equilibrium_log_moment(shift: float) -> float:
    # integral of log(shift + x) against the scaled equilibrium density
    # 2/pi sqrt((1-x)/x) on (0, 1)
    value, _ = quad(
        lambda x: math.log(shift + x) * (2.0 / math.pi) * math.sqrt((1.0 - x) / x),
        0.0,
        1.0,
        epsabs=1e-12,
        limit=200,
    )
    return value


def test_linstat_mean_equilibrium_oracle() -> None:
    for beta, a, s0, s_list in ((2.0, 1.0, 0.3, (0.5,)), (1.0, 2.0, 0.3, ())):
        ls = LinearStatistic(s_tilde_0=s0, s_tilde_list=s_list, a=a, beta=beta)
        weights = [(beta * a / 2.0, s0)] + [(beta, sj) for sj in s_list]
        lead = sum(w * _equilibrium_log_moment(sj) for w, sj in weights)
        const = (1.0 / (2.0 * beta) - 0.25) * sum(
            w * math.log((1.0 + sj) / sj) for w, sj in weights
        )
        for N in (20, 40):
            np.testing.assert_allclose(
                linstat_mean(ls, N), lead * N + const, rtol=1e-10
            )


def test_linstat_variance_fourier_oracle() -> None:
    # Independent Fourier-coefficient computation of the fluctuation sum.
    def nu(x: float) -> float:
        return -(2.0 * x + 1.0) + 2.0 * math.sqrt(x * x + x)

    for beta, a, s0, s_list in (
        (2.0, 1.0, 0.3, (0.5,)),
        (4.0, 0.5, 0.4, (0.7,)),
        (1.0, 2.0, 0.3, ()),
    ):
        ls = LinearStatistic(s_tilde_0=s0, s_tilde_list=s_list, a=a, beta=beta)
        w0 = beta * a / 2.0
        nu0 = nu(s0)
        nus = [nu(sj) for sj in s_list]
        total = 0.0
        for k in range(1, 800):
            a_k = -(2.0 / k) * (w0 * nu0**k + beta * sum(nj**k for nj in nus))
            total += k * a_k * a_k
        want = total / (2.0 * beta)
        np.testing.assert_allclose(linstat_variance(ls), want, rtol=1e-10)


def test_linear_statistic_at_equal_shifts_is_one_merged_shift() -> None:
    # n shifts equal to s_tilde_0 weigh beta each, so the statistic is the one
    # shift s_tilde_0 at a + 2n: a reference for the pair terms of the
    # variance, which the merged statistic has none of.
    for x in (0.05, 0.3, 4.0):
        for a in (0.0, 1.0, 2.5):
            for beta in (0.5, 1.0, 2.0, 4.0, 7.0):
                for n in (2, 3):
                    ls = LinearStatistic(x, (x,) * n, a, beta)
                    merged = LinearStatistic(x, (), a + 2.0 * n, beta)
                    pairs = [(linstat_variance(ls), linstat_variance(merged))]
                    pairs += [(linstat_mean(ls, N), linstat_mean(merged, N)) for N in (1, 20)]
                    for got, want in pairs:
                        assert abs(got - want) <= 2.0**-51 * max(1.0, abs(want)), (x, a, beta, n)


def test_char_poly_moment_regression() -> None:
    # The Gaussian moment < prod_l (s_tilde + x_l)**(beta a / 2) > at N = 20.
    ls = LinearStatistic(0.3, (), 1.0, 2.0)
    np.testing.assert_allclose(
        math.exp(linstat_mean(ls, 20) + linstat_variance(ls) / 2.0),
        1.077574348054638e-06,
        rtol=1e-10,
    )


def _expanded_large_deviation(N: int, s_tilde: float, a: float, beta: float) -> mp.mpf:
    """``log_large_deviation_E0`` as one expanded closed form, in mpmath at
    the module's 40 digits, with ``log f_{beta/2}(a)`` taken from
    :func:`log_f_beta_half` (its own tests pin the double gamma)."""
    log_f = mp.mpf(log_f_beta_half(a, beta))
    N, s_tilde, a, beta = (mp.mpf(v) for v in (N, s_tilde, a, beta))
    root = mp.sqrt(s_tilde * (s_tilde + 1))
    plus = mp.sqrt(s_tilde + 1) + mp.sqrt(s_tilde)
    return (
        -2 * beta * N * N * s_tilde
        - beta * a * (a - 1) / 4 * mp.log(N * beta / 2)
        - a / 2 * mp.log(mp.pi * N * beta)
        + log_f
        + N * beta * a * (root - s_tilde + mp.log(plus))
        + beta * a / 4 * (1 / beta - mp.mpf(1) / 2) * mp.log(1 + 1 / s_tilde)
        - beta * a * a / 4 * mp.log(root)
        + beta * a * a / 2 * mp.log(plus / 2)
    )


def test_large_deviation_matches_expanded_form() -> None:
    # The norm ratio times the Gaussian linear statistic is the expanded
    # closed form to rounding, over the whole grid; the worst point is
    # (20, 0.01, 7, 4) at 7.9e-14, where the large terms cancel to 2.8.
    errors = {}
    for point in itertools.product(
        (1, 2, 10, 20, 50, 400, 100_000), (0.01, 0.3, 2.0, 50.0), (0.0, 1.0, 2.5, 7.0),
        (0.7, 2.0, 4.0),
    ):
        want = _expanded_large_deviation(*point)
        errors[point] = float(abs(log_large_deviation_E0(*point) - want) / max(1, abs(want)))
    worst = max(errors, key=errors.get)
    assert errors[worst] < 2e-13, (worst, errors[worst])


def test_large_deviation_consistency() -> None:
    assert log_large_deviation_E0(20, 0.3, 1.0, 2.0) < 0.0


def test_large_deviation_tracks_exact() -> None:
    # The relative log-error against the exact finite-size value shrinks
    # with the ensemble size.
    errs = []
    for N in (10, 20):
        t = 0.3 * 4.0 * N
        log_exact = math.log(exact_E0_finiteN(t, 1.0, 2.0, N))
        log_ld = log_large_deviation_E0(N, 0.3, 1.0, 2.0)
        errs.append(abs(log_ld - log_exact) / abs(log_exact))
    assert errs[1] < errs[0]


def test_norm_ratio_stirling_error_shrinks() -> None:
    gaps = [
        abs(log_norm_ratio_exact(N, 1.0, 2.0) - log_norm_ratio_stirling(N, 1.0, 2.0))
        for N in (20, 80)
    ]
    assert gaps[1] < gaps[0]
    assert gaps[1] < 2e-3 * abs(log_norm_ratio_exact(80, 1.0, 2.0))


# ------------------------------------------------------------------ validation


def test_quantization_errors() -> None:
    with pytest.raises(ParameterQuantizationError):
        exact_E0_hard(1.0, 0.7, 2.0)  # beta*a/2 not an integer
    with pytest.raises(ParameterQuantizationError):
        exact_En_hard(1.0, 1.0, 2.5, 1)  # beta not an integer


def test_finite_routes_reject_negative_size() -> None:
    with pytest.raises(ValueError, match="N must be nonnegative"):
        exact_E0_finiteN_detailed(1.0, 1.0, 2.0, -2)
    with pytest.raises(ValueError, match="N must be nonnegative"):
        exact_En_finiteN_detailed(1.0, 1.0, 2.0, 1, -2)


def test_finite_routes_reject_fractional_size() -> None:
    # A fractional N is no ensemble: the E(0) route used to return 0.7136
    # and the E(n) route to raise TypeError from range().
    with pytest.raises(ValueError, match="N must be nonnegative and integral, got 2.5"):
        exact_E0_finiteN(0.5, 1.0, 2.0, 2.5)
    with pytest.raises(ValueError, match="N must be nonnegative and integral, got 2.5"):
        exact_En_finiteN(0.5, 1.0, 2.0, 1, 2.5)
    # integral floats are sizes
    assert exact_E0_finiteN(0.5, 1.0, 2.0, 5.0) == exact_E0_finiteN(0.5, 1.0, 2.0, 5)
    assert exact_En_finiteN(0.5, 1.0, 2.0, 1, 5.0) == exact_En_finiteN(0.5, 1.0, 2.0, 1, 5)


def test_finite_routes_at_zero_size() -> None:
    # No remaining eigenvalues: the gap is empty for sure, and with one
    # eigenvalue of density x exp(-x) at beta = 2, a = 1 the chance it
    # lies in (0, 1) is 1 - 2/e.
    assert exact_E0_finiteN(1.0, 1.0, 2.0, 0) == 1.0
    np.testing.assert_allclose(
        exact_En_finiteN(1.0, 1.0, 2.0, 1, 0), 1.0 - 2.0 / math.e, rtol=1e-12
    )


@pytest.mark.parametrize(
    "route",
    [
        lambda n: exact_En_hard_detailed(0.0, 1.0, 2.0, n),
        lambda n: exact_En_finiteN_detailed(0.0, 1.0, 2.0, n, 4),
    ],
    ids=["hard", "finiteN"],
)
def test_excess_at_zero_endpoint(route) -> None:
    # An empty interval holds no eigenvalue: E(n >= 1) is 0 exactly, with
    # no quadrature run, while E(0) is 1.
    assert route(0)[0] == 0.0
    for n in (1, 3):
        assert route(n) == (
            -math.inf, {"order": 0, "rel_change": 0.0, "trunc_weight": 0, "tail_bound": 0.0}
        )


@pytest.mark.parametrize(
    "N, s_tilde, message",
    [
        (0, 0.3, "N must be at least 1"),
        (10, math.nan, "s_tilde must be finite and positive"),
        # a fractional N used to return a number for no ensemble
        (2.5, 0.3, "N must be at least 1 and integral, got 2.5"),
    ],
)
def test_large_deviation_rejects_bad_input(N: int, s_tilde: float, message: str) -> None:
    with pytest.raises(ValueError, match=message):
        log_large_deviation_E0(N, s_tilde, 1.0, 2.0)


@pytest.mark.parametrize("a", [-1.0, math.nan, math.inf])
def test_large_deviation_rejects_bad_a(a: float) -> None:
    # a negative a was reported under the double gamma's name "n"
    with pytest.raises(ValueError, match=f"^a must be finite and nonnegative, got {a}$"):
        log_large_deviation_E0(10, 0.3, a, 2.0)


@settings(deadline=None, max_examples=30)
@given(
    s_pair=st.tuples(
        st.floats(min_value=0.01, max_value=30.0),
        st.floats(min_value=0.01, max_value=30.0),
    )
)
def test_gap_probability_monotone(s_pair: tuple[float, float]) -> None:
    lo, hi = sorted(s_pair)
    p_lo = exact_E0_hard(lo, 1.0, 2.0)
    p_hi = exact_E0_hard(hi, 1.0, 2.0)
    assert 0.0 < p_hi <= p_lo <= 1.0 + 1e-12
