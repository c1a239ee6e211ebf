"""Tests for the torus and contour quadrature routes."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest

from betagap import contour
from betagap.contour import hard_contour_E0, torus_E0_finiteN, torus_E0_hard
from betagap.errors import (
    CancellationError,
    NonConvergenceError,
    ParameterQuantizationError,
    QuadratureError,
    ResourceLimitError,
)
from betagap.gap import (
    exact_E0_finiteN,
    exact_E0_finiteN_detailed,
    exact_E0_hard,
    exact_E0_hard_detailed,
)


# ------------------------------------------------------------ route agreement


def test_contour_matches_series_one_dimensional() -> None:
    series = exact_E0_hard(2.0, 2.0 / 3.0, 3.0)
    contour = hard_contour_E0(2.0, 2.0 / 3.0, 3.0)
    np.testing.assert_allclose(series, 0.8832197212325036, rtol=1e-12)
    np.testing.assert_allclose(contour, series, rtol=1e-10)


def test_contour_matches_series_two_dimensional() -> None:
    series = exact_E0_hard(1.5, 1.0, 4.0)
    contour = hard_contour_E0(1.5, 1.0, 4.0)
    np.testing.assert_allclose(contour, series, rtol=1e-7)


def test_contour_matches_series_fractional_ray_phase() -> None:
    # beta = 4/3 puts a genuinely fractional power on the negative-axis
    # rays, exercising the principal-branch phase bookkeeping.
    series = exact_E0_hard(1.0, 3.0, 4.0 / 3.0)
    contour = hard_contour_E0(1.0, 3.0, 4.0 / 3.0)
    np.testing.assert_allclose(contour, series, rtol=1e-7)


def test_ray_contribution_cancels_at_integer_phase() -> None:
    # At beta = 2 the two ray edges carry opposite phases and cancel, so
    # the contour equals the torus route, which is its circle part alone.
    np.testing.assert_allclose(
        hard_contour_E0(2.0, 1.0, 2.0), torus_E0_hard(2.0, 1.0, 2.0), rtol=1e-10
    )
    np.testing.assert_allclose(
        hard_contour_E0(2.0, 1.0, 2.0), exact_E0_hard(2.0, 1.0, 2.0), rtol=1e-10
    )


def test_torus_hard_edge_matches_series() -> None:
    np.testing.assert_allclose(
        torus_E0_hard(2.0, 1.0, 2.0), exact_E0_hard(2.0, 1.0, 2.0), rtol=1e-10
    )
    # two-dimensional circular average
    np.testing.assert_allclose(
        torus_E0_hard(1.5, 4.0, 1.0), exact_E0_hard(1.5, 4.0, 1.0), rtol=1e-10
    )


def test_torus_finite_size_matches_series() -> None:
    np.testing.assert_allclose(
        torus_E0_finiteN(0.5, 2.0 / 3.0, 3.0, 4),
        exact_E0_finiteN(0.5, 2.0 / 3.0, 3.0, 4),
        rtol=1e-10,
    )
    np.testing.assert_allclose(
        torus_E0_finiteN(0.4, 2.0, 2.0, 3),
        exact_E0_finiteN(0.4, 2.0, 2.0, 3),
        rtol=1e-10,
    )


def test_zero_dimension_is_exact_exponential() -> None:
    np.testing.assert_allclose(
        hard_contour_E0(3.0, 0.0, 2.0), math.exp(-2.0 * 3.0 / 8.0), rtol=1e-14
    )


def test_torus_and_contour_pinned_bits() -> None:
    # Exact bits of both torus routes in dimensions 1 and 2, which share
    # one trapezoid body, and of the contour in dimensions 1 and 2.
    assert torus_E0_finiteN(0.5, 2.0 / 3.0, 3.0, 4) == 0.2750488006388016
    assert torus_E0_finiteN(0.4, 2.0, 2.0, 3) == 0.9412444954504848
    assert torus_E0_hard(2.0, 1.0, 2.0) == 0.9498773125498133
    assert torus_E0_hard(1.5, 4.0, 1.0) == 0.9999301184155079
    assert hard_contour_E0(2.0, 1.0, 2.0) == 0.9498773125498129
    assert hard_contour_E0(1.0, 3.0, 4.0 / 3.0) == 0.9999266070183511


# ------------------------------------------------------------------ kernel


def _complex_kernel_reference(
    s: float, a: float, beta: float, circle_n: int, ray_n: int
) -> complex:
    """The dimension-2 pass as full complex matrices over every node pair:
    ``w = 2 - z_j/z_k - z_k/z_j`` raised to ``2/beta`` on the principal
    branch, the circle-circle block plus twice the circle-ray block, over
    both ray edges separately.

    The diagonal of the circle-circle block is zeroed by index: the
    complex ``w`` there is roundoff of order 1e-16 (not always exactly
    zero), which the power 1/2 at ``beta = 4`` lifts to 1e-8."""
    q = 2.0 / beta - 1.0
    _, z, amp = contour._contour_nodes(s, q, circle_n, ray_n)
    p2 = 2.0 / beta
    z_c, a_c = z[:circle_n], amp[:circle_n]
    z_r, a_r = z[circle_n:], amp[circle_n:]
    w_cc = 2.0 - z_c[:, None] / z_c[None, :] - z_c[None, :] / z_c[:, None]
    np.fill_diagonal(w_cc, 1.0)
    k_cc = np.exp(p2 * np.log(w_cc))
    np.fill_diagonal(k_cc, 0.0)
    w_cr = 2.0 - z_c[:, None] / z_r[None, :] - z_r[None, :] / z_c[:, None]
    k_cr = np.exp(p2 * np.log(w_cr))
    return complex(a_c @ k_cc @ a_c) + 2.0 * complex(a_c @ k_cr @ a_r)


@pytest.mark.parametrize("radius", [1.0, 0.8])
@pytest.mark.parametrize("beta", [4.0, 2.0, 4.0 / 3.0, 1.0, 0.8])
def test_contour_kernel_matches_complex_reference(
    monkeypatch: pytest.MonkeyPatch, beta: float, radius: float
) -> None:
    # The real circle-circle kernel and the one circle-ray block over the
    # summed ray edges agree with the full complex matrices.
    monkeypatch.setattr(contour, "_CONTOUR_RADIUS", radius)
    a = 4.0 / beta
    for s in (0.5, 2.0):
        value = contour._contour_components(s, a, beta, 64, 24)
        reference = _complex_kernel_reference(s, a, beta, 64, 24)
        assert abs(value - reference) <= 1e-13 * abs(reference)


def test_contour_kernel_row_blocks_cover_every_row(monkeypatch: pytest.MonkeyPatch) -> None:
    # A circle count that is no multiple of the row block gives the same
    # pass as one block over all rows.
    value = contour._contour_components(1.0, 3.0, 4.0 / 3.0, 300, 40)
    monkeypatch.setattr(contour, "_ROW_BLOCK", 300)
    whole = contour._contour_components(1.0, 3.0, 4.0 / 3.0, 300, 40)
    assert abs(value - whole) <= 1e-14 * abs(whole)


def test_contour_level_memory_grows_with_row_block() -> None:
    # One 1024 + 2 * 384 node level built n x n complex matrices (68 MB
    # traced); row blocks keep it a few MB.
    contour._contour_components(1.0, 3.0, 4.0 / 3.0, 1024, 384)  # caches the rules
    tracemalloc.start()
    try:
        contour._contour_components(1.0, 3.0, 4.0 / 3.0, 1024, 384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_torus_kernel_row_blocks_cover_every_row(monkeypatch: pytest.MonkeyPatch) -> None:
    # Row blocks that do not divide the grid give the same value, to the
    # bit, as one block over all rows.
    value = torus_E0_finiteN(0.4, 2.0, 2.0, 3)
    monkeypatch.setattr(contour, "_ROW_BLOCK", 4096)
    assert torus_E0_finiteN(0.4, 2.0, 2.0, 3) == value


def test_torus_level_memory_grows_with_row_block() -> None:
    # Settling at 2048 points per dimension, the torus built n x n pair
    # matrices and their complex copy (101 MB traced); row blocks keep it a
    # few MB.
    torus_E0_finiteN(0.5, 4.0 / 3.0, 3.0, 4)  # caches the rules
    tracemalloc.start()
    try:
        torus_E0_finiteN(0.5, 4.0 / 3.0, 3.0, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# --------------------------------------------------------------- independence


def test_radius_independence(monkeypatch: pytest.MonkeyPatch) -> None:
    # The integrand is analytic between the two contours, so the value
    # cannot depend on the circle radius.
    base_1 = hard_contour_E0(2.0, 2.0 / 3.0, 3.0)
    base_2 = hard_contour_E0(1.0, 3.0, 4.0 / 3.0)
    monkeypatch.setattr(contour, "_CONTOUR_RADIUS", 0.8)
    np.testing.assert_allclose(hard_contour_E0(2.0, 2.0 / 3.0, 3.0), base_1, rtol=1e-12)
    np.testing.assert_allclose(hard_contour_E0(1.0, 3.0, 4.0 / 3.0), base_2, rtol=1e-9)


def test_tolerance_stability() -> None:
    loose = hard_contour_E0(2.0, 1.0, 2.0, tol=1e-6)
    tight = hard_contour_E0(2.0, 1.0, 2.0, tol=1e-10)
    np.testing.assert_allclose(loose, tight, rtol=1e-6)


# ------------------------------------------------------------------ validation


def test_tol_validation() -> None:
    # One tol check serves all three circle routes.
    routes = (
        lambda tol: hard_contour_E0(2.0, 1.0, 2.0, tol=tol),
        lambda tol: torus_E0_hard(2.0, 1.0, 2.0, tol=tol),
        lambda tol: torus_E0_finiteN(0.5, 1.0, 2.0, 4, tol=tol),
    )
    for route in routes:
        for tol in (0.0, -1e-8, math.nan):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                route(tol)


def test_dimension_quantization() -> None:
    with pytest.raises(ParameterQuantizationError):
        hard_contour_E0(1.0, 0.7, 2.0)  # beta*a/2 = 0.7
    with pytest.raises(ResourceLimitError):
        hard_contour_E0(1.0, 3.0, 2.0)  # beta*a/2 = 3 needs three variables


def test_torus_hard_requires_integer_inverse_beta() -> None:
    with pytest.raises(
        ParameterQuantizationError,
        match="2/beta must be a nonnegative integer for this route, got 0.666",
    ):
        torus_E0_hard(0.5, 2.0 / 3.0, 3.0)
    # the finite-size torus route has no such restriction
    assert torus_E0_finiteN(0.5, 2.0 / 3.0, 3.0, 4) > 0.0


def test_no_doubling_budget_raises() -> None:
    with pytest.raises(NonConvergenceError):
        hard_contour_E0(2.0, 2.0 / 3.0, 3.0, tol=1e-18)


def test_value_above_one_raises() -> None:
    # At beta = 3, a = 4/3 the contour settled on 1.00336, which is no
    # probability; 4/beta is not an integer there, so the dimension-2 cap
    # now raises before any quadrature.
    with pytest.raises(ParameterQuantizationError, match="4/beta must be a positive integer"):
        hard_contour_E0(1.0, 4.0 / 3.0, 3.0)


@pytest.mark.parametrize(
    "s, beta",
    [(0.147, 4.659), (1.0, 3.0), (0.155, 4.528), (19.6, 1.386)],
)
def test_dimension_two_needs_integer_four_over_beta(s: float, beta: float) -> None:
    # Off integer 4/beta the dimension-2 contour printed values off by up
    # to 5.7e-2 (beta = 4.659, s = 0.147) with no error.
    with pytest.raises(ParameterQuantizationError, match="4/beta must be a positive integer"):
        hard_contour_E0(s, 4.0 / beta, beta)
    # dimension 1 at the same beta is not capped
    np.testing.assert_allclose(
        hard_contour_E0(s, 2.0 / beta, beta), exact_E0_hard(s, 2.0 / beta, beta), rtol=1e-7
    )


@pytest.mark.parametrize("a", [0.0, 1.0])
@pytest.mark.parametrize(
    "route",
    [
        lambda a: torus_E0_finiteN(0.5, a, 2.0, 4),
        lambda a: torus_E0_hard(1.0, a, 2.0),
        lambda a: hard_contour_E0(1.0, a, 2.0),
    ],
    ids=["torus-finiteN", "torus-hard", "contour"],
)
def test_circle_routes_return_a_python_float(route, a: float) -> None:
    # At beta a / 2 = 1 all three returned np.float64, the settled real part
    # of a numpy complex, and a float only at a = 0.
    assert type(route(a)) is float


def test_quadrature_error_prints_a_plain_float(monkeypatch: pytest.MonkeyPatch) -> None:
    # A numpy scalar in the value still shows in the message as a float.
    monkeypatch.setattr(contour, "_settled_limit", lambda *args: np.float64(-1e-3))
    for route in (
        lambda: torus_E0_finiteN(0.5, 1.0, 2.0, 4),
        lambda: torus_E0_hard(1.0, 1.0, 2.0),
        lambda: hard_contour_E0(1.0, 1.0, 2.0),
    ):
        with pytest.raises(QuadratureError, match=r"gave -\d[\d.e-]*, outside") as raised:
            route()
        assert "np." not in str(raised.value)


@pytest.mark.parametrize(
    "route, s",
    [(hard_contour_E0, 3100.0), (torus_E0_hard, 10000.0)],
)
def test_underflowing_value_raises(route, s: float) -> None:
    # Both returned 0.0 with no error; the message names the log value,
    # which the series route matches.
    with pytest.raises(QuadratureError, match=r"underflows: its log value -\d") as raised:
        route(s, 1.0, 2.0)
    log_value = float(str(raised.value).split("log value ")[1].split()[0])
    np.testing.assert_allclose(log_value, exact_E0_hard_detailed(s, 1.0, 2.0)[0], rtol=1e-12)


@pytest.mark.parametrize(
    "route, series, args",
    [
        (hard_contour_E0, exact_E0_hard_detailed, (6000.0, 0.0, 2.0)),
        (hard_contour_E0, exact_E0_hard_detailed, (2900.0, 0.0, 2.0)),
        (torus_E0_hard, exact_E0_hard_detailed, (6000.0, 0.0, 2.0)),
        (torus_E0_hard, exact_E0_hard_detailed, (2900.0, 0.0, 2.0)),
        (torus_E0_finiteN, exact_E0_finiteN_detailed, (400.0, 0.0, 2.0, 10)),
    ],
    ids=["contour-6000", "contour-2900", "torus-6000", "torus-2900", "torus-finiteN-400"],
)
def test_underflowing_closed_form_raises(route, series, args: tuple) -> None:
    # At beta a / 2 = 0 the routes are closed forms.  They returned 0.0 at
    # s = 6000 and the subnormal 1.369e-315 at s = 2900, with no error; the
    # message names the series route's log value (-1500.0 at s = 6000).
    with pytest.raises(QuadratureError, match=r"underflows: its log value -\d") as raised:
        route(*args)
    log_value = float(str(raised.value).split("log value ")[1].split()[0])
    assert log_value == series(*args)[0]


@pytest.mark.parametrize("route", [hard_contour_E0, torus_E0_hard])
@pytest.mark.parametrize("s", [2900.0, 2970.0, 3000.0])
def test_values_with_a_subnormal_prefactor_match_the_series(route, s: float) -> None:
    # exp(log_pref) is subnormal here (zero above s of about 2981 on the
    # contour, 2973 on the circle) while the value itself is a normal float:
    # the prefactor times the integral was 1.5e-9 off at s = 2900, up to 10%
    # off at s = 2970 and 0.0 at s = 3000.
    series = math.exp(exact_E0_hard_detailed(s, 1.0, 2.0)[0])
    np.testing.assert_allclose(route(s, 1.0, 2.0), series, rtol=1e-12)


def test_finite_size_torus_overflow_raises() -> None:
    # exp(s z) overflows on the grid; numpy warned three times and the
    # doubling then failed with NonConvergenceError.
    with pytest.raises(QuadratureError, match=r"s = 2000.0, N = 3 "):
        torus_E0_finiteN(2000.0, 1.0, 2.0, 3)


@pytest.mark.parametrize(
    "s, a, ratio",
    [(30.0, 1.0, "1.0e+09"), (50.0, 1.0, "8.4e+16"), (30.0, 2.0, "6.8e+16")],
    ids=["s30", "s50", "s30-dimension-2"],
)
def test_finite_size_torus_names_its_cancellation(s: float, a: float, ratio: str) -> None:
    # Terms of modulus up to 1e9 (or 1e17) times the value cancel on the
    # grid: the doubling failed with "did not settle within 6 (4)
    # resolution levels", which no finer grid can mend.
    message = (
        f"torus finite-size integral lost to cancellation: summed term magnitude exceeds "
        f"its value by {ratio}, so rounding moves it by more than tol/10 = 1.0e-09"
    )
    with pytest.raises(CancellationError, match=f"^{re.escape(message)}$"):
        torus_E0_finiteN(s, a, 2.0, 3)


def test_settled_torus_value_keeps_its_bits() -> None:
    # The ratio is 1.7e5 here, within the rounding budget of tol = 1e-8:
    # the value settles and is the parent's to the last bit.
    assert torus_E0_finiteN(20.0, 1.0, 2.0, 3) == 1.7463401297694266e-23


@pytest.mark.parametrize("s", [20.0, 50.0])
def test_tolerance_below_rounding_stays_nonconvergence(s: float) -> None:
    # tol / 10 below 2**-52 is out of reach whatever the cancellation.
    with pytest.raises(NonConvergenceError, match="did not settle to relative tolerance 1.0e-16"):
        torus_E0_finiteN(s, 1.0, 2.0, 3, tol=1e-16)


def test_probability_bounds(monkeypatch: pytest.MonkeyPatch) -> None:
    # Every circle route passes its value through the same [0, 1 + tol]
    # check: a negative integral (the prefactors are positive) raises.
    monkeypatch.setattr(contour, "_settled_limit", lambda *args: -1e-3)
    for route in (
        lambda: torus_E0_finiteN(0.5, 1.0, 2.0, 4),
        lambda: torus_E0_hard(1.0, 1.0, 2.0),
        lambda: hard_contour_E0(1.0, 1.0, 2.0),
    ):
        with pytest.raises(QuadratureError, match="outside"):
            route()
    assert contour._scaled_probability(0.0, 1.0 + 1e-9, 1e-8, "route") == 1.0 + 1e-9
    assert contour._scaled_probability(0.0, 0.0, 1e-8, "route") == 0.0
    with pytest.raises(QuadratureError):
        contour._scaled_probability(0.0, 1.0 + 2e-8, 1e-8, "route")
