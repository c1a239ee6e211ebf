"""The integer-parameter, count and finite-value rules shared by the series,
Barnes, contour and Monte Carlo routes."""

from __future__ import annotations

import math

import pytest

from betagap.barnes import log_b_const, log_morris_value, log_tau_hard
from betagap.contour import hard_contour_E0, torus_E0_finiteN, torus_E0_hard
from betagap.errors import ParameterQuantizationError, quantized, require_finite
from betagap.gap import (
    LinearStatistic,
    asymptotic_E0,
    asymptotic_En,
    duality_check,
    exact_E0_finiteN_detailed,
    exact_E0_hard,
    exact_E0_hard_detailed,
    exact_En_finiteN_detailed,
    exact_En_hard,
    exact_En_hard_detailed,
    linstat_mean,
    log_large_deviation_E0,
    log_multi_F01_asympt,
    log_norm_ratio_exact,
    log_norm_ratio_stirling,
)
from betagap.mc import EnsembleSpec, estimate_gap


def test_quantized_rounds_near_integers() -> None:
    assert quantized("m", 2.0) == 2
    assert quantized("m", 3.0 + 5e-10) == 3
    assert quantized("m", 0.0) == 0
    assert isinstance(quantized("m", 1.0), int)


@pytest.mark.parametrize("value", [0.5, -1.0, 1.0 + 1e-8])
def test_quantized_rejects_finite_values(value: float) -> None:
    with pytest.raises(ParameterQuantizationError) as info:
        quantized("beta*a/2", value)
    assert str(info.value) == (
        f"beta*a/2 must be a nonnegative integer for this route, got {value}"
    )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_quantized_rejects_non_finite_values(value: float) -> None:
    with pytest.raises(ParameterQuantizationError, match=r"^beta must be"):
        quantized("beta", value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact_E0_hard(1.0, math.inf, 2.0),
        lambda: exact_E0_hard(1.0, math.nan, 2.0),
        lambda: exact_En_hard(1.0, math.inf, 2.0, 1),
        lambda: log_tau_hard(math.inf, 2.0),
        lambda: log_b_const(math.nan, 2.0),
        lambda: hard_contour_E0(1.0, math.inf, 2.0),
    ],
    ids=["E0-a-inf", "E0-a-nan", "En-a-inf", "tau-a-inf", "b-a-nan", "contour-a-inf"],
)
def test_routes_reject_non_finite_parameters(call) -> None:
    with pytest.raises(ParameterQuantizationError):
        call()


@pytest.mark.parametrize(
    "value, positive, kind",
    [(-1.0, False, "nonnegative"), (math.nan, False, "nonnegative"),
     (math.inf, True, "positive"), (0.0, True, "positive")],
)
def test_require_finite_message(value: float, positive: bool, kind: str) -> None:
    with pytest.raises(ValueError) as info:
        require_finite("s", value, positive=positive)
    assert str(info.value) == f"s must be finite and {kind}, got {value}"


def test_require_finite_accepts_domain() -> None:
    require_finite("s", 0.0)
    require_finite("s", 2.5, positive=True)


@pytest.mark.parametrize("s", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "route",
    [
        lambda s: exact_E0_hard_detailed(s, 1.0, 2.0),
        lambda s: exact_E0_finiteN_detailed(s, 1.0, 2.0, 4),
        # a NaN s used to run the n = 1 quadrature into the strip budget
        lambda s: exact_En_hard_detailed(s, 1.0, 2.0, 1),
        lambda s: exact_En_finiteN_detailed(s, 1.0, 2.0, 1, 3),
        lambda s: torus_E0_finiteN(s, 1.0, 2.0, 4),
        lambda s: torus_E0_hard(s, 1.0, 2.0),
        lambda s: hard_contour_E0(s, 1.0, 2.0),
    ],
    ids=["E0-hard", "E0-finiteN", "En-hard", "En-finiteN", "torus-finiteN", "torus-hard",
         "contour"],
)
def test_routes_reject_bad_endpoint(route, s: float) -> None:
    with pytest.raises(ValueError, match=r"^s must be finite and (nonnegative|positive)"):
        route(s)


@pytest.mark.parametrize("route", [torus_E0_hard, hard_contour_E0])
def test_circle_routes_reject_zero_endpoint(route) -> None:
    # their prefactor carries log(4/s)
    with pytest.raises(ValueError, match=r"^s must be finite and positive, got 0.0"):
        route(0.0, 1.0, 2.0)


@pytest.mark.parametrize("beta", [0.0, -4.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "route",
    [
        # a = 0 takes each route's shortcut past the integral or series,
        # which used to return exp(-beta s / 8) > 1 for a negative beta
        lambda beta: torus_E0_finiteN(2.0, 0.0, beta, 3),
        lambda beta: torus_E0_hard(2.0, 0.0, beta),
        lambda beta: hard_contour_E0(2.0, 0.0, beta),
        lambda beta: exact_E0_hard_detailed(1.0, 0.0, beta),
        lambda beta: exact_E0_finiteN_detailed(1.0, 0.0, beta, 3),
        lambda beta: log_large_deviation_E0(10, 0.3, 1.0, beta),
        lambda beta: exact_En_hard_detailed(1.0, 0.0, beta, 1),
        lambda beta: exact_En_finiteN_detailed(1.0, 0.0, beta, 1, 4),
    ],
    ids=["torus-finiteN", "torus-hard", "contour", "E0-hard", "E0-finiteN", "largedev",
         "En-hard", "En-finiteN"],
)
def test_routes_reject_bad_beta(route, beta: float) -> None:
    with pytest.raises(ValueError, match=r"^beta must be finite and positive"):
        route(beta)


@pytest.mark.parametrize("N", [-3, 0, 2.5])
@pytest.mark.parametrize("a", [0.0, 1.0])
def test_torus_finite_size_rejects_bad_N(a: float, N) -> None:
    with pytest.raises(ValueError, match=r"^N must be a positive integer"):
        torus_E0_finiteN(0.5, a, 2.0, N)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: EnsembleSpec(2.0, 1.0, 2.5), "N must be a positive integer, got 2.5"),
        (lambda: EnsembleSpec(2.0, 1.0, math.nan), "N must be a positive integer, got nan"),
        (lambda: estimate_gap(EnsembleSpec(2.0, 1.0, 3), 1.0, n=math.nan, samples=1000),
         "n must be a nonnegative integer, got nan"),
        (lambda: estimate_gap(EnsembleSpec(2.0, 1.0, 3), 1.0, samples=1000.5),
         "samples must be at least 1000, got 1000.5"),
        (lambda: log_morris_value(math.nan, 1.0, 1.0, 1.0),
         "n must be a nonnegative integer, got nan"),
    ],
    ids=["N=2.5", "N=nan", "n=nan", "samples=1000.5", "morris-n=nan"],
)
def test_counts_reject_non_integers(call, message: str) -> None:
    # Each used to pass, or to end in TypeError or "cannot convert float
    # NaN to integer", before the count rule became errors.counted.
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LinearStatistic(math.nan, (), 1.0, 2.0),
         "s_tilde_0 must be finite and positive, got nan"),
        (lambda: LinearStatistic(math.inf, (), 1.0, 2.0),
         "s_tilde_0 must be finite and positive, got inf"),
        (lambda: LinearStatistic(0.3, (0.5, math.nan), 1.0, 2.0),
         r"s_tilde_list\[1\] must be finite and positive, got nan"),
        (lambda: LinearStatistic(0.3, (), math.nan, 2.0),
         "a must be finite and nonnegative, got nan"),
        (lambda: LinearStatistic(0.3, (), 1.0, -2.0),
         "beta must be finite and positive, got -2.0"),
        (lambda: linstat_mean(LinearStatistic(0.3, (), 1.0, 2.0), -5),
         "N must be at least 1 and integral, got -5"),
        (lambda: log_norm_ratio_stirling(0, 1.0, 2.0), "N must be at least 1 and integral, got 0"),
        (lambda: log_norm_ratio_exact(-1, 1.0, 2.0),
         "N must be nonnegative and integral, got -1"),
        (lambda: log_norm_ratio_exact(4, 1.0, math.nan),
         "beta must be finite and positive, got nan"),
        (lambda: log_multi_F01_asympt(math.nan, (), 1.0, 0, 2.0),
         "s0 must be finite and positive, got nan"),
        (lambda: log_multi_F01_asympt(-1.0, (), 1.0, 0, 2.0),
         "s0 must be finite and positive, got -1.0"),
        (lambda: log_multi_F01_asympt(4.0, (0.0,), 1.0, 1, 2.0),
         r"s_list\[0\] must be finite and positive, got 0.0"),
        (lambda: duality_check(4.0, 0.0, 0.5), "dual parameters out of range: n'=1.0, a'=-1.0"),
        (lambda: asymptotic_E0(1.0, 2.0).log_evaluate(math.nan),
         "s must be finite and positive, got nan"),
        (lambda: asymptotic_E0(1.0, 2.0).log_evaluate(math.inf),
         "s must be finite and positive, got inf"),
        (lambda: asymptotic_En(1, 1.0, 2.0).log_evaluate(0.0),
         "s must be finite and positive, got 0.0"),
        (lambda: asymptotic_En(1, 1.0, 2.0).log_evaluate(-1.0),
         "s must be finite and positive, got -1.0"),
    ],
    ids=["ls-shift-nan", "ls-shift-inf", "ls-list-nan", "ls-a-nan", "ls-beta-negative",
         "mean-N-negative", "stirling-N-zero", "exact-N-negative", "exact-beta-nan",
         "multi-s0-nan", "multi-s0-negative", "multi-list-zero", "duality-a-negative",
         "form-s-nan", "form-s-inf", "form-s-zero", "form-s-negative"],
)
def test_closed_forms_reject_bad_input(call, message: str) -> None:
    # Each returned nan or a number, or raised "math domain error" or an
    # error under another name, before the closed forms checked their input.
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hard_contour_E0(2.0, 0.0, 2.0, tol=math.nan),
         "tol must be finite and positive, got nan"),
        (lambda: hard_contour_E0(2.0, 0.0, 2.0, tol=math.inf),
         "tol must be finite and positive, got inf"),
        (lambda: torus_E0_hard(2.0, 0.0, 2.0, tol=-1.0),
         "tol must be finite and positive, got -1.0"),
        (lambda: torus_E0_finiteN(0.5, 0.0, 2.0, 3, tol=math.nan),
         "tol must be finite and positive, got nan"),
        (lambda: exact_En_hard(0.0, 1.0, 2.0, 1, tol=math.nan),
         "tol must be finite and positive, got nan"),
        (lambda: exact_En_hard_detailed(5e-324, 1.0, 2.0, 1, tol=0.0),
         "tol must be finite and positive, got 0.0"),
        (lambda: exact_En_hard_detailed(0.0, 1.0, 2.0, 1, max_weight=-3),
         "max_weight must be a nonnegative integer, got -3"),
        (lambda: exact_En_finiteN_detailed(0.0, 1.0, 2.0, 2, 3, max_weight=2.5),
         "max_weight must be a nonnegative integer, got 2.5"),
    ],
    ids=["contour-tol-nan", "contour-tol-inf", "torus-tol-negative", "torus-finite-tol-nan",
         "En-s0-tol-nan", "En-subnormal-tol-zero", "En-s0-max-weight-negative",
         "En-finite-s0-max-weight-fraction"],
)
def test_series_and_circle_controls_checked_where_the_route_starts(call, message: str) -> None:
    # Each early return (a = 0 on the circle routes, s = 0 or a subnormal s
    # for E(n)) used to skip the check: a QuadratureError, a value, 0.0 or
    # -inf came back instead of the error naming the control.
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
