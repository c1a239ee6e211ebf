"""Tests for gap probabilities, asymptotic forms, and fluctuation formulas."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from betagap.barnes import log_tau_hard_n, tau_hard
from betagap.errors import ParameterQuantizationError, QuadratureError
from betagap.gap import (
    _QUAD_ORDERS,
    LinearStatistic,
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
    large_deviation_E0,
    linstat_mean,
    linstat_variance,
    log_large_deviation_E0,
    log_multi_F01_asympt,
    log_norm_ratio_exact,
    log_norm_ratio_stirling,
    rescale_endpoint,
    smallest_eigenvalue_pdf,
)

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


def test_rescale_endpoint() -> None:
    np.testing.assert_allclose(rescale_endpoint(3.0, 0.5, 4.0), 0.75, rtol=1e-15)
    np.testing.assert_allclose(rescale_endpoint(2.0, 1.0, 2.0), 2.0, rtol=1e-15)


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


# (s, a, beta, n) -> (log value, order, rel_change, trunc_weight, tail_bound),
# as computed before both routes shared one quadrature loop, then re-pinned
# when series layers became whole-array sums (last digits of rel_change)
# and tail_bound became relative to each node's series value.
HARD_EXCESS_PINS = {
    (1.0, 0.0, 1.0, 1): (-2.1421585207014013, 12, 0.0, 9, 2.3605357453683632e-18),
    (1.0, 0.0, 2.0, 1): (
        -1.508799814031318, 12, 1.9546546959000269e-16, 11, 1.9546546959000269e-16
    ),
    (1.0, 1.0, 2.0, 1): (
        -4.269634634858525, 12, 1.9318143717247055e-16, 12, 1.9318143717247055e-16
    ),
    (1.0, 2.0, 1.0, 1): (
        -5.992396265376199, 12, 4.086173641285412e-16, 10, 4.086173641285412e-16
    ),
    (10.0, 0.0, 2.0, 1): (
        -0.17714816856738902, 12, 6.527693395887934e-16, 17, 7.146087165783929e-16
    ),
    (10.0, 1.0, 2.0, 1): (
        -0.6179399721991096, 12, 4.2265105151566457e-16, 20, 2.0242984796889135e-15
    ),
    (4.0, 0.0, 1.0, 1): (
        -0.9466111376720513, 12, 3.470571356511471e-16, 11, 3.470571356511471e-16
    ),
    (4.0, 0.0, 2.0, 1): (
        -0.4653945511863852, 12, 3.9028807669026074e-16, 14, 3.9028807669026074e-16
    ),
    (4.0, 0.0, 2.0, 2): (
        -5.464790441170957, 12, 3.216050254958443e-15, 16, 3.216050254958443e-15
    ),
    (4.0, 1.0, 2.0, 1): (
        -1.8241327419135258, 12, 1.2656002044576434e-16, 16, 8.7161123370131195e-16
    ),
    (4.0, 2.0, 1.0, 1): (-3.3461246569469507, 12, 0.0, 13, 1.7307118655274093e-16),
}

# (s, a, beta, n, N) -> E_{N+n}(n; (0, s)), pinned the same way.
FINITE_EXCESS_PINS = {
    (0.5, 0.0, 1.0, 1, 10): 0.6312057207905937,
    (0.5, 0.0, 1.0, 1, 5): 0.6894767780690157,
    (0.5, 0.0, 2.0, 1, 10): 0.5172571788964269,
    (0.5, 0.0, 2.0, 1, 5): 0.8219353346969265,
    (0.5, 1.0, 2.0, 1, 10): 0.8092526487361318,
    (0.5, 1.0, 2.0, 1, 5): 0.6732268230326235,
    (0.5, 2.0, 1.0, 1, 10): 0.5214370513219542,
    (0.5, 2.0, 1.0, 1, 5): 0.27502815900556465,
    (0.5, 1.0, 2.0, 2, 4): 0.011505657728140873,
    (0.3, 0.0, 2.0, 3, 1): 2.5108334296493103e-08,
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
    log_value, diag = exact_En_finiteN_detailed(0.5, 1.0, 2.0, 1, 5)
    assert math.exp(log_value) == exact_En_finiteN(0.5, 1.0, 2.0, 1, 5)
    assert diag["trunc_weight"] == 15
    assert diag["tail_bound"] >= diag["rel_change"] > 0.0
    assert diag["order"] == 12


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
    # int_0^1 int_0^1 (1 - x)(1 - y)(x + y) dx dy = 1/6; the rule is exact
    # for polynomials, so the second order already agrees with the first.
    total, order, rel_change = _settled_quadrature(
        lambda y: y[0] + y[1], 2, 1.0, 1e-12
    )
    assert math.isclose(total, 1.0 / 6.0, rel_tol=1e-14)
    assert order == _QUAD_ORDERS[1] and rel_change < 1e-12
    assert _vandermonde((0.5, 0.25, 1.0), 2.0) == 0.0625 * 0.25 * 0.5625
    # A kink inside (0, 1) keeps changing in the fifth digits at every order.
    with pytest.raises(QuadratureError, match="not settled at order 60"):
        _settled_quadrature(lambda y: abs(y[0] - 1.0 / 3.0) ** 0.5, 1, 0.0, 1e-12)


def test_smallest_eigenvalue_density() -> None:
    # At a = 0, beta = 2 the smallest-eigenvalue density is
    # exp(-s/4) / 4 exactly.
    for s in (0.5, 2.0, 5.0):
        np.testing.assert_allclose(
            smallest_eigenvalue_pdf(0, s, 0.0, 2.0),
            math.exp(-s / 4.0) / 4.0,
            rtol=1e-6,
        )
    assert smallest_eigenvalue_pdf(1, 2.0, 0.0, 2.0, h=1e-3) > 0.0
    with pytest.raises(ValueError):
        smallest_eigenvalue_pdf(4, 1.0, 0.0, 2.0)


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
    np.testing.assert_allclose(form.evaluate(s), math.exp(log_direct), rtol=1e-15)


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
            math.log(tau_hard(a, beta)) + log_tau_hard_n(n, a, beta),
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
    log_value = log_large_deviation_E0(20, 0.3, 1.0, 2.0)
    assert log_value < 0.0
    np.testing.assert_allclose(
        large_deviation_E0(20, 0.3, 1.0, 2.0), math.exp(log_value), rtol=1e-14
    )


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


def test_finite_routes_at_zero_size() -> None:
    # No remaining eigenvalues: the gap is empty for sure, and with one
    # eigenvalue of density x exp(-x) at beta = 2, a = 1 the chance it
    # lies in (0, 1) is 1 - 2/e.
    assert exact_E0_finiteN(1.0, 1.0, 2.0, 0) == 1.0
    np.testing.assert_allclose(
        exact_En_finiteN(1.0, 1.0, 2.0, 1, 0), 1.0 - 2.0 / math.e, rtol=1e-12
    )


@pytest.mark.parametrize(
    "N, s_tilde, message",
    [(0, 0.3, "N must be at least 1"), (10, math.nan, "s_tilde must be positive")],
)
def test_large_deviation_rejects_bad_input(N: int, s_tilde: float, message: str) -> None:
    with pytest.raises(ValueError, match=message):
        log_large_deviation_E0(N, s_tilde, 1.0, 2.0)


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
