"""The in-package Gauss–Jacobi rules and the Hurwitz zeta of the double
gamma tail, against exact moments and 40-digit mpmath."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from betagap.barnes import _hurwitz_zeta
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
