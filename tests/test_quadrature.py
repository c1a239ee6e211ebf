"""The in-package Gauss–Jacobi rules and the Hurwitz zeta of the double
gamma tail, against exact moments and 40-digit mpmath, and the fused
Newton pass against the per-degree recurrence it replaced."""

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
    ``2 / ((1 - x**2) P_n'(x)**2)``, by the three-term recurrence in
    40-digit arithmetic."""

    def value_and_slope(x: mp.mpf) -> tuple[mp.mpf, mp.mpf]:
        p_prev, p = mp.mpf(1), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
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
    for i in (0, 1, 5, 700, n // 2):
        root, weight = _legendre_root(n, float(x[i]))
        assert abs(float(root) - x[i]) <= 1.2e-16
        # a node rounded to the nearest double moves its weight by about
        # ulp / (1 - |x|) relative, which dominates near the endpoints
        assert abs(float(w[i] / weight) - 1.0) <= 1e-13 + 2.4e-16 / (1.0 - abs(x[i]))


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


@pytest.mark.parametrize("order", [96, 256, 1024, 4096])
def test_legendre_rules_keep_their_bits(order: int, monkeypatch: pytest.MonkeyPatch) -> None:
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
