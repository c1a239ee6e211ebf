"""Tests for gap probabilities, asymptotic forms, and fluctuation formulas."""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from betagap import gap
from betagap.barnes import log_tau_hard, log_tau_hard_n
from betagap.errors import ParameterQuantizationError, QuadratureError
from betagap.gap import (
    _QUAD_ORDERS,
    _QUAD_TOL,
    LinearStatistic,
    _batch_args,
    _jacobi_rule,
    _settled_quadrature,
    _vandermonde,
    asymptotic_E0,
    asymptotic_En,
    asymptotic_En_ratio,
    char_poly_moment_asympt,
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
from betagap.hypergeom import HypergeomSpec, SeriesResult, pFq_alpha

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


def test_published_variant_bookkeeping_disagrees() -> None:
    # The alternative bookkeeping is kept for comparison only: it badly
    # misses the direct-quadrature oracle away from n = 0.
    printed = exact_En_finiteN(0.8, 1.0, 2.0, 1, 1, variant="printed")
    np.testing.assert_allclose(printed, 0.03025329761534303, rtol=1e-9)
    corrected = exact_En_finiteN(0.8, 1.0, 2.0, 1, 1)
    assert abs(printed / corrected - 1.0) > 0.5
    with pytest.raises(ValueError):
        exact_En_finiteN(0.8, 1.0, 2.0, 1, 1, variant="bogus")
    with pytest.raises(ParameterQuantizationError):
        exact_En_finiteN(0.8, 0.5, 2.0, 1, 1, variant="printed")


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


def _ladder_series(spec: HypergeomSpec, tol: float, max_weight: int | None) -> SeriesResult:
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
    series replaced by the ladder: both raise the same error type, or
    agree to 1e-13 relative."""
    try:
        log_value = route()[0]
    except Exception as error:  # the ladder must raise the same type
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


@pytest.mark.parametrize("variant", ["corrected", "printed"])
@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("N", [1, 5, 10])
def test_single_excess_finite_matches_the_ladder(
    variant: str, beta: float, N: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # a = 2/beta puts one argument at -s beside the conditioned ones, a = 0
    # none; the printed variant needs an integral a (at beta = 4 both
    # raise) and conditions a arguments (at a = 0 none, and both raise).
    for a, s in itertools.product((0.0, 2.0 / beta), (0.1, 0.5, 2.0, 5.0)):
        _routes_agree(
            lambda: exact_En_finiteN_detailed(s, a, beta, 1, N, variant=variant), monkeypatch
        )


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
# 0, rel_change 0 and the series' own tail (values within 8.9e-16).
HARD_EXCESS_PINS = {
    (1.0, 0.0, 1.0, 1): (-2.1421585207014013, 0, 0.0, 9, 2.721979436590153e-19),
    (1.0, 0.0, 2.0, 1): (-1.508799814031318, 0, 0.0, 11, 6.4528436927420745e-19),
    (1.0, 1.0, 2.0, 1): (-4.269634634858525, 0, 0.0, 11, 1.3348032210459121e-17),
    (1.0, 2.0, 1.0, 1): (-5.992396265376198, 0, 0.0, 10, 7.343396040038893e-19),
    (10.0, 0.0, 2.0, 1): (-0.17714816856738969, 0, 0.0, 17, 8.118278700936135e-17),
    (10.0, 1.0, 2.0, 1): (-0.6179399721991099, 0, 0.0, 19, 1.3268045641152424e-16),
    (4.0, 0.0, 1.0, 1): (-0.9466111376720514, 0, 0.0, 11, 3.406095564983511e-18),
    (4.0, 0.0, 2.0, 1): (-0.4653945511863855, 0, 0.0, 14, 1.3745125182943006e-17),
    (4.0, 0.0, 2.0, 2): (-5.464790441170959, 12, 0.0, 16, 1.1420335506043466e-15),
    (4.0, 1.0, 2.0, 1): (-1.8241327419135258, 0, 0.0, 15, 4.236321034882273e-17),
    (4.0, 2.0, 1.0, 1): (-3.3461246569469503, 0, 0.0, 12, 2.0199981476424516e-16),
}

# (s, a, beta, n, N) -> E_{N+n}(n; (0, s)), pinned the same way.
FINITE_EXCESS_PINS = {
    (0.5, 0.0, 1.0, 1, 10): 0.6312057207905936,
    (0.5, 0.0, 1.0, 1, 5): 0.6894767780690154,
    (0.5, 0.0, 2.0, 1, 10): 0.5172571788964266,
    (0.5, 0.0, 2.0, 1, 5): 0.8219353346969261,
    (0.5, 1.0, 2.0, 1, 10): 0.809252648736131,
    (0.5, 1.0, 2.0, 1, 5): 0.6732268230326234,
    (0.5, 2.0, 1.0, 1, 10): 0.521437051321954,
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
    assert diag["order"] == 12
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
    assert _vandermonde((0.5, 0.25, 1.0), 2.0) == 0.0625 * 0.25 * 0.5625
    # A kink inside (0, 1) keeps changing in the fifth digits at every order.
    with pytest.raises(QuadratureError, match="not settled at order 60"):
        _settled_quadrature(
            lambda points: np.abs(points[:, 0] - 1.0 / 3.0) ** 0.5, 1, 0.0, 2.0, 1e-12
        )


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
        * _vandermonde(tuple(y for y, _ in point), 2.0)
        * math.exp(sum(y for y, _ in point) / 2.0)
        for point in itertools.product(zip(nodes.tolist(), weights.tolist()), repeat=n)
    )
    assert abs(total - tensor) <= 1e-15 * tensor


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
    for n, a, beta in ((1.0, 1.0, 2.0), (2.0, 2.0, 1.0)):
        form = asymptotic_En_ratio(n, a, beta)
        assert form.source == "EF"
        np.testing.assert_allclose(form.c_s, 0.0, atol=1e-15)
        np.testing.assert_allclose(form.c_sqrt, beta * n, rtol=1e-15)
        np.testing.assert_allclose(
            form.c_log, -beta * (n * n + n * a) / 4.0, rtol=1e-14
        )
        np.testing.assert_allclose(
            form.c_const, log_tau_hard_n(n, a, beta), rtol=1e-13
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


def test_multi_argument_published_offset() -> None:
    # The as-published constant differs by exactly a factor two here.
    corrected = log_multi_F01_asympt(400.0, (256.0,), 1.0, 1, 2.0)
    printed = log_multi_F01_asympt(400.0, (256.0,), 1.0, 1, 2.0, variant="printed")
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
        np.testing.assert_allclose(
            linstat_variance(ls) / linstat_variance(ls, prefactor="2overbeta"),
            beta * beta,
            rtol=1e-12,
        )
    with pytest.raises(ValueError):
        linstat_variance(
            LinearStatistic(s_tilde_0=0.3, s_tilde_list=(), a=1.0, beta=2.0),
            prefactor="bogus",
        )


def test_char_poly_moment_regression() -> None:
    np.testing.assert_allclose(
        char_poly_moment_asympt(0.3, 1.0, 2.0, 20), 1.077574348054638e-06, rtol=1e-10
    )


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


def test_printed_variant_rejects_zero_size() -> None:
    # Its prefactor takes lgamma(N), which has a pole at N = 0.
    with pytest.raises(ValueError, match="N must be positive for the printed variant"):
        exact_En_finiteN(0.5, 1.0, 2.0, 1, 0, variant="printed")


@pytest.mark.parametrize("n", [1, 2])
def test_printed_variant_rejects_zero_a(n: int) -> None:
    # Its conditioned multiplicity is a: at a = 0 an internal ValueError
    # about q or about the batch rows surfaced, naming neither.
    message = "^a must be a positive integer for the printed variant, got 0.0$"
    with pytest.raises(ValueError, match=message):
        exact_En_finiteN(0.5, 0.0, 2.0, n, 3, variant="printed")


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
