"""The in-package Gauss–Jacobi rules and the Hurwitz zeta of the double
gamma tail, against exact moments and 40-digit mpmath, the fused Newton
pass against the per-degree recurrence it replaced, and the iteration-free
Gauss–Legendre rules and their Bessel tables against 40-digit values."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from betagap import quadrature
from betagap.barnes import _hurwitz_zeta
from betagap.gap import _QUAD_ORDERS
from betagap.quadrature import gauss_jacobi


@pytest.mark.parametrize("order", [8, 12, 18, 27, 40, 60])
@pytest.mark.parametrize("power", [0, 1, 2, 3, 4])
def test_jacobi_rule_integrates_polynomials_exactly(order: int, power: int) -> None:
    # An order-n Gauss rule is exact through degree 2n - 1:
    # int (1-x)**a (1+x)**j dx = 2**(a+j+1) B(a+1, j+1), here as a fraction.
    x, w = gauss_jacobi(order, float(power), 0.0)
    for j in range(2 * order):
        exact = Fraction(
            2 ** (power + j + 1) * math.factorial(power) * math.factorial(j),
            math.factorial(power + j + 1),
        )
        assert math.fsum(w * (1.0 + x) ** j) == pytest.approx(float(exact), rel=5e-13)


def _legendre_root(n: int, x0: float) -> tuple[mp.mpf, mp.mpf]:
    """Newton-polished zero of ``P_n`` near ``x0`` and its Gauss weight
    ``2 / ((1 - x**2) P_n'(x)**2)``, in 40-digit arithmetic: the three-term
    recurrence runs in 200-bit fixed point on Python integers, the Newton
    steps in mpmath."""
    bits = 200

    def value_and_slope(x: mp.mpf) -> tuple[mp.mpf, mp.mpf]:
        fixed = int(mp.ldexp(x, bits))
        p_prev, p = 1 << bits, fixed
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * (fixed * p >> bits) - k * p_prev) // (k + 1)
        p, p_prev = mp.ldexp(p, -bits), mp.ldexp(p_prev, -bits)
        return p, n * (x * p - p_prev) / (x * x - 1)

    with mp.workdps(40):
        x = mp.mpf(x0)
        for _ in range(3):
            p, slope = value_and_slope(x)
            x -= p / slope
        _, slope = value_and_slope(x)
        return x, 2 / ((1 - x * x) * slope * slope)


def test_legendre_rule_at_4096_nodes() -> None:
    n = 4096
    x, w = gauss_jacobi(n, 0.0, 0.0)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2.0) <= 1e-14
    for i in (0, 1, 5, 700, n // 2, n - 1):
        root, weight = _legendre_root(n, float(x[i]))
        assert abs(float(root) - x[i]) <= 1.2e-16
        assert abs(float(w[i] / weight) - 1.0) <= 2e-15


# Orders 133 and 332 each have a node 2.2e-16 off when the angle's pi (k -
# 1/4) or pi (order/2 - k + 1/2) is rounded before the small terms join it.
@pytest.mark.parametrize("order", [96, 97, 128, 133, 255, 256, 332, 1024])
def test_asymptotic_legendre_rule_matches_40_digits(order: int) -> None:
    x, w = gauss_jacobi(order, 0.0, 0.0)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2.0) <= 1e-14
    if order % 2:
        assert x[order // 2] == 0.0
    # the rule is exactly symmetric, so its upper half is every node
    for i in range(order // 2, order):
        root, weight = _legendre_root(order, float(x[i]))
        assert abs(float(root) - x[i]) <= 1.2e-16, i
        assert abs(float(w[i] / weight) - 1.0) <= 2e-15, i


@pytest.mark.parametrize("order", [96, 97])
def test_asymptotic_legendre_rule_integrates_polynomials_exactly(order: int) -> None:
    # int P_j = 0 for j >= 1: an order-n Gauss rule is exact through degree
    # 2n - 1, and P_{2n} is the first polynomial it misses.
    x, w = gauss_jacobi(order, 0.0, 0.0)
    p_prev, p = np.ones_like(x), x
    sums = [math.fsum(w * p)]
    for k in range(1, 2 * order):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        sums.append(math.fsum(w * p))
    assert max(map(abs, sums[:-1])) <= 2e-15
    assert abs(sums[-1]) > 0.1


def test_asymptotic_legendre_rules_run_no_recurrence(monkeypatch: pytest.MonkeyPatch) -> None:
    def recurrence(*args: object) -> None:
        raise AssertionError("the recurrence ran")

    monkeypatch.setattr(quadrature, "_with_derivative", recurrence)
    first = quadrature._ASYMPTOTIC_ORDER
    for order in [*range(first, first + 200), 384, 512, 768, 1536, 2048, 4096, 4097]:
        gauss_jacobi.__wrapped__(order, 0.0, 0.0)
    with pytest.raises(AssertionError, match="the recurrence ran"):
        gauss_jacobi.__wrapped__(first - 1, 0.0, 0.0)


def test_bessel_tables_are_rounded_mpmath() -> None:
    with mp.workdps(40):
        zeros = [mp.besseljzero(0, k) for k in range(1, 41)]
        assert quadrature._J0_ZEROS == tuple(float(z) for z in zeros[:20])
        assert quadrature._J1_SQUARED == tuple(float(mp.besselj(1, z) ** 2) for z in zeros[:21])
        # McMahon's expansions beyond the tables
        k = np.arange(21.0, 41.0)
        for kk, zero, mu, j1_squared in zip(k.tolist(), zeros[20:], *quadrature._mcmahon(k)):
            assert abs(float((mp.pi * (kk - 0.25) + mu) / zero - 1)) <= 4e-16, kk
            assert abs(float(j1_squared / mp.besselj(1, zero) ** 2 - 1)) <= 4e-16, kk


def _per_degree_with_derivative(
    x: np.ndarray, alpha: np.ndarray, off: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``p_n(x)`` and ``p_n'(x)`` by separate recurrences, ten array
    operations per degree: the pass the fused one must reproduce bit for
    bit."""
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    dp_prev = np.zeros_like(x)
    dp = np.zeros_like(x)
    for shift, back, inverse in zip(alpha.tolist(), off.tolist(), (1.0 / off[1:]).tolist()):
        shifted = x - shift
        p_next = (shifted * p - back * p_prev) * inverse
        dp_next = (shifted * dp + p - back * dp_prev) * inverse
        p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
    return p, dp


def _assert_rule_bits(monkeypatch: pytest.MonkeyPatch, order: int, a: float, b: float) -> None:
    x, w = gauss_jacobi(order, a, b)
    with monkeypatch.context() as patched:
        patched.setattr(quadrature, "_with_derivative", _per_degree_with_derivative)
        x_ref, w_ref = gauss_jacobi.__wrapped__(order, a, b)
    assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref), (order, a, b)


@pytest.mark.parametrize("order", [8, 60, 95])
def test_legendre_rules_keep_their_bits(order: int, monkeypatch: pytest.MonkeyPatch) -> None:
    # Legendre orders below _ASYMPTOTIC_ORDER still run Newton's method.
    _assert_rule_bits(monkeypatch, order, 0.0, 0.0)


@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("m0", [0.0, 1.0])
def test_ladder_rules_keep_their_bits(
    beta: float, m0: float, monkeypatch: pytest.MonkeyPatch
) -> None:
    # The E(n) ladder's rules at beta a / 2 = m0: the folded level's (m0,
    # 0), the nested map's (m0, (n-1)(1 + beta n/2)) and the ratio axes'
    # (beta, (j-1)(1 + beta j/2)), for n = 2, 3.
    powers = {(m0, 0.0)}
    for n in (2, 3):
        powers.add((m0, (n - 1) * (1.0 + beta * n / 2.0)))
        powers.update((beta, (j - 1) * (1.0 + beta * j / 2.0)) for j in range(1, n))
    for order in _QUAD_ORDERS:
        for a, b in sorted(powers):
            _assert_rule_bits(monkeypatch, order, a, b)


@pytest.mark.parametrize("q", [33.0, 65.0, 1025.0])
def test_hurwitz_zeta_matches_mpmath(q: float) -> None:
    with mp.workdps(40):
        for k in range(2, 14):
            exact = mp.zeta(k, q)
            assert abs(float(mp.mpf(_hurwitz_zeta(k, q)) / exact - 1)) <= 5e-16


def test_rules_are_read_only() -> None:
    for x, w in (gauss_jacobi(12, 2.0, 0.0), gauss_jacobi(256, 0.0, 0.0)):
        for array in (x, w):
            with pytest.raises(ValueError):
                array[0] = 0.0
