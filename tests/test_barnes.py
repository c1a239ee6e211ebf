"""Tests for the double-gamma machinery and gamma-product constants."""

from __future__ import annotations

import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from betagap.barnes import (
    MAX_SHIFT_STEPS,
    log_a_const,
    log_b_const,
    log_f_beta_half,
    log_gamma2,
    log_morris_value,
    log_tau_hard,
    log_tau_hard_n,
)
from betagap.gap import duality_check

mp.mp.dps = 40

LOG_2PI = math.log(2.0 * math.pi)


def test_double_gamma_matches_barnes_g() -> None:
    # At equal periods the double gamma is a normalized reciprocal of
    # the Barnes G-function: the shifted log-ratio is a closed form.
    for z in (0.5, 1.3, 2.0, 3.7, 5.2):
        lhs = log_gamma2(z, 1.0) - log_gamma2(1.0, 1.0)
        rhs = (z - 1.0) / 2.0 * LOG_2PI - float(mp.log(mp.barnesg(z)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_shift_by_one() -> None:
    for z in (0.5, 1.1, 2.3, 4.9):
        for tau in (0.5, 1.0, 2.0):
            lhs = log_gamma2(z + 1.0, tau)
            rhs = (
                log_gamma2(z, tau)
                - (z / tau - 0.5) * math.log(tau)
                + 0.5 * LOG_2PI
                - math.lgamma(z / tau)
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_shift_by_tau() -> None:
    for z in (0.5, 1.1, 2.3, 4.9):
        for tau in (0.5, 1.0, 2.0):
            lhs = log_gamma2(z + tau, tau)
            rhs = log_gamma2(z, tau) + 0.5 * LOG_2PI - math.lgamma(z)
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_period_inversion() -> None:
    # Swapping the two periods is a pure power-of-tau prefactor.
    for z in (1.5, 3.0):
        for tau in (0.5, 2.0):
            lhs = log_gamma2(z, tau)
            rhs = (
                -(1.0 + z * z / (2.0 * tau)) + z * (1.0 + tau) / (2.0 * tau)
            ) * math.log(tau) + log_gamma2(z / tau, 1.0 / tau)
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_product_function_at_integers() -> None:
    # f reduces to a finite product of gamma factors at integer argument.
    for beta in (1.0, 2.0, 4.0):
        want = math.prod(math.gamma(1.0 + beta * j / 2.0) for j in range(4))
        np.testing.assert_allclose(
            log_f_beta_half(4.0, beta), math.log(want), atol=1e-12, rtol=0
        )
    np.testing.assert_allclose(log_f_beta_half(1.0, 1.7), 0.0, atol=1e-12, rtol=0)


def test_product_function_recurrence() -> None:
    n, beta = 1.37, 3.0
    lhs = log_f_beta_half(n + 1.0, beta) - log_f_beta_half(n, beta)
    np.testing.assert_allclose(lhs, math.lgamma(1.0 + beta * n / 2.0), atol=1e-12)


def test_product_function_inversion_rewrite() -> None:
    # The period-inversion identity carried to the product function.
    for av in (1.5, 3.0):
        for tau in (0.5, 2.0):
            lhs = log_f_beta_half(av, 2.0 / tau)
            rhs = (
                ((av - 1.0) / 2.0 - (av - 1.0) / (2.0 * tau)) * LOG_2PI
                + ((1.0 - av) / 2.0 - av * (av - 1.0) / (2.0 * tau))
                * math.log(tau)
                + log_f_beta_half((av - 1.0) / tau + 1.0, 2.0 * tau)
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_gamma_sum_continuation() -> None:
    # Sum of log-gamma values along the beta lattice written through f.
    for beta, n, av in ((2.0, 1, 1.0), (2.0, 2, 1.5), (1.0, 2, 3.0)):
        tau = 2.0 / beta
        count = round(beta * n)
        lhs = sum(
            math.lgamma(av + 2.0 * j / beta) - 0.5 * LOG_2PI
            for j in range(1, count + 1)
        )
        rhs = (
            (2.0 * n * n / tau + 2.0 * n * av / tau - n / tau + n)
            * math.log(tau)
            - n * LOG_2PI
            + log_f_beta_half(2.0 * n + av, beta)
            - log_f_beta_half(av, beta)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_gamma_difference_continuation() -> None:
    for beta, n, av in ((2.0, 2, 1.0), (4.0, 1, 2.0)):
        lhs = sum(
            math.lgamma(1.0 + (j + 1.0) * beta / 2.0) for j in range(n)
        ) - sum(math.lgamma(1.0 + (j + av) * beta / 2.0) for j in range(n, 2 * n))
        rhs = (
            log_f_beta_half(n + 1.0, beta)
            + log_f_beta_half(n + av, beta)
            - log_f_beta_half(2.0 * n + av, beta)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_hard_edge_constant_frozen_values() -> None:
    for (av, beta), want in (
        ((1.0, 2.0), 1.0 / math.sqrt(2.0 * math.pi)),
        ((1.0, 4.0), math.sqrt(math.pi) / (4.0 * math.pi)),
        ((4.0, 1.0), 12.0 / math.pi),
    ):
        np.testing.assert_allclose(log_tau_hard(av, beta), math.log(want), atol=1e-12, rtol=0)


def test_scaled_constant_matches_hard_edge_constant() -> None:
    # The two independent constructions of the leading constant agree
    # wherever the gamma-product form is defined.
    for beta in (1.0, 2.0, 4.0):
        for m in (1, 2, 3):
            av = 2.0 * m / beta
            np.testing.assert_allclose(
                log_a_const(av, beta), log_tau_hard(av, beta), atol=1e-12, rtol=0
            )


def _literal_tau_hard_n(n: int, a: float, beta: float) -> float:
    """``log_tau_hard_n`` as finite gamma products (integers ``n`` and ``beta n``)."""
    log_value = (
        -(a + n) * beta * n * math.log(2.0) - math.lgamma(n + 1.0)
        + n * (a + n - 1.0) * beta / 2.0 * math.log(beta / 2.0)
    )
    for j in range(1, round(beta * n) + 1):
        log_value += math.lgamma(a + 2.0 * j / beta) - 0.5 * LOG_2PI
    for j in range(n):
        log_value += math.lgamma(1.0 + (j + 1.0) * beta / 2.0)
        log_value -= math.lgamma(1.0 + (j + n + a) * beta / 2.0)
    return log_value


def test_excess_eigenvalue_constant() -> None:
    assert log_tau_hard_n(0, 1.0, 2.0) == 0.0
    np.testing.assert_allclose(
        log_tau_hard_n(1, 1.0, 2.0), math.log(1.0 / (32.0 * math.pi)), atol=1e-12, rtol=0
    )
    # The literal finite product and the continued form agree where the
    # product is defined.
    for n, av, beta in ((1, 2.0, 2.0), (2, 4.0, 1.0)):
        np.testing.assert_allclose(
            _literal_tau_hard_n(n, av, beta), log_tau_hard_n(n, av, beta), atol=1e-12
        )


def _duality_constants(beta: float, n: float, a: float) -> tuple[float, float]:
    """Logs of both sides of the constant identity under ``beta -> 4/beta``:
    the ``c_const`` entries of :func:`duality_check`."""
    report = duality_check(beta, n, a)
    return report["lhs"][3], report["rhs"][3]


def test_duality_constants_agree() -> None:
    for beta, n, av in ((2.0, 1.0, 2.0), (4.0, 0.0, 2.0), (1.0, 1.0, 4.0)):
        log_lhs, log_rhs = _duality_constants(beta, n, av)
        np.testing.assert_allclose(log_lhs, log_rhs, atol=1e-10, rtol=0)
    for (beta, n, av), want in (
        ((4.0, 0.0, 2.0), 1.0 / (4.0 * math.pi)),
        ((1.0, 1.0, 4.0), 0.002104536587404689),
        ((2.0, 1.0, 2.0), 0.000791571747205763),
    ):
        np.testing.assert_allclose(
            _duality_constants(beta, n, av)[0], math.log(want), atol=1e-12, rtol=0
        )


def _published_duality_lhs(beta: float, n: float, a: float) -> float:
    """The left constant of :func:`duality_check` with the stated power of
    ``beta/2``."""
    power = a * (beta * a / 2.0 + 1.0) / 2.0 - beta * a / 2.0 + (n * n + n * a) * beta / 2.0
    return log_a_const(a, beta) + log_tau_hard_n(n, a, beta) + power * math.log(beta / 2.0)


def test_duality_published_variant() -> None:
    # The as-published exponent disagrees by a power of the scale factor
    # except where the map is the identity.
    same = _published_duality_lhs(2.0, 1.0, 2.0)
    np.testing.assert_allclose(same, _duality_constants(2.0, 1.0, 2.0)[0], atol=1e-7, rtol=0)
    log_lhs_printed = _published_duality_lhs(4.0, 0.0, 2.0)
    log_lhs = _duality_constants(4.0, 0.0, 2.0)[0]
    assert abs(log_lhs_printed - log_lhs - math.log(0.25)) < 1e-10


def test_normalization_constant() -> None:
    np.testing.assert_allclose(log_b_const(1.0, 2.0), 0.0, atol=1e-12, rtol=0)


def test_morris_closed_form_and_quadrature() -> None:
    # Single-variable circular average: gamma ratio on one side, direct
    # quadrature of the integrand on the other.
    for a, bb in ((0.5, 1.25), (1.0, 1.0), (2.0, 0.5)):
        closed = log_morris_value(1, a, bb, 0.7)
        want = math.gamma(1.0 + a + bb) / (math.gamma(1.0 + a) * math.gamma(1.0 + bb))
        np.testing.assert_allclose(closed, math.log(want), atol=1e-12, rtol=0)

        def integrand(x: float, p: float = a + bb, d: float = a - bb) -> float:
            return (2.0 * math.cos(math.pi * x)) ** p * math.cos(math.pi * x * d)

        numeric, _ = quad(integrand, -0.5, 0.5, epsabs=1e-13, limit=200)
        np.testing.assert_allclose(closed, math.log(numeric), atol=1e-10, rtol=0)

        p, d = a + bb, a - bb
        tanh_sinh = float(
            mp.quad(
                lambda x: (2.0 * mp.cos(mp.pi * x)) ** p * mp.cos(mp.pi * x * d),
                [-0.5, 0.5],
            )
        )
        np.testing.assert_allclose(closed, math.log(tanh_sinh), atol=1e-12, rtol=0)


def test_morris_interaction_free_at_one_variable() -> None:
    values = {log_morris_value(1, 0.8, 1.1, c) for c in (0.5, 1.0, 2.0)}
    np.testing.assert_allclose(sorted(values), [min(values)] * len(values), atol=1e-12, rtol=0)


def test_domain_errors() -> None:
    for z, tau in ((0.0, 1.0), (-1.0, 2.0), (1.0, 0.0), (1.0, -2.0)):
        with pytest.raises(ValueError):
            log_gamma2(z, tau)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: log_a_const(math.nan, 2.0), "a must be finite and nonnegative, got nan"),
        (lambda: log_tau_hard_n(math.nan, 1.0, 2.0), "n must be finite and nonnegative, got nan"),
        (lambda: log_tau_hard_n(1.0, math.inf, 2.0), "a must be finite and nonnegative, got inf"),
        (lambda: log_f_beta_half(math.inf, 2.0), "n must be finite and nonnegative, got inf"),
    ],
    ids=["a_const-a-nan", "tau_hard_n-n-nan", "tau_hard_n-a-inf", "f_beta_half-n-inf"],
)
def test_constants_name_their_arguments(call, message: str) -> None:
    # These used to report log_gamma2's internal argument name z.
    with pytest.raises(ValueError, match=message):
        call()


def test_non_finite_and_huge_arguments() -> None:
    # In a child process with a timeout: an infinite or huge z used to be
    # walked down to the window one unit per step, without end or bound.
    script = """
import math
from betagap.barnes import log_gamma2
from betagap.errors import ResourceLimitError
for z, tau in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan), (1e9, 1.0)):
    try:
        log_gamma2(z, tau)
    except (ValueError, ResourceLimitError) as exc:
        print(type(exc).__name__, exc)
"""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=False, timeout=60
    )
    assert result.stdout.splitlines() == [
        "ValueError z must be finite and positive, got inf",
        "ValueError tau must be finite and positive, got inf",
        "ValueError z must be finite and positive, got nan",
        "ValueError tau must be finite and positive, got nan",
        f"ResourceLimitError log_gamma2 at z=1000000000.0 needs more than "
        f"{MAX_SHIFT_STEPS} shift steps",
    ]
    # the largest argument inside the budget still evaluates
    z = MAX_SHIFT_STEPS + 1.5
    np.testing.assert_allclose(
        log_gamma2(z + 1.0, 1.0), log_gamma2(z, 1.0) + 0.5 * LOG_2PI - math.lgamma(z),
        rtol=1e-9,
    )


@settings(deadline=None, max_examples=60)
@given(
    z=st.floats(min_value=0.1, max_value=6.0, allow_nan=False),
    tau=st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
)
def test_shift_property(z: float, tau: float) -> None:
    lhs = log_gamma2(z + tau, tau)
    rhs = log_gamma2(z, tau) + 0.5 * LOG_2PI - math.lgamma(z)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)
