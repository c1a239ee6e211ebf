"""Closed-form and Fredholm-determinant references for the gap probabilities.

Nothing here imports ``betagap``: every value is computed from classical
formulas with mpmath, NumPy and SciPy, so that a fault in the package's
series, quadrature or Jack code cannot hide in its own reference.  The
weight convention is the package's, ``lambda**(a beta/2) exp(-beta
lambda/2)``, with hard-edge scaling ``s -> s/(4N)``.

Regenerate any value from the command line, for example::

    python3 bench/reference.py E0_hard_beta2 4 1
    python3 bench/reference.py En_hard_beta2 4 0 2
"""

from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
from scipy.special import eval_genlaguerre, gammaln, jv

_DPS = 40


def E0_hard_beta2(s: float, a: int) -> float:
    """``e^{-s/4} det[I_{j-k}(sqrt s)]_{j,k=1..a}`` (hard edge, beta = 2)."""
    with mpmath.workdps(_DPS):
        r = mpmath.sqrt(mpmath.mpf(s))
        mat = mpmath.matrix(a, a)
        for j in range(a):
            for k in range(a):
                mat[j, k] = mpmath.besseli(j - k, r)
        det = mpmath.det(mat) if a else mpmath.mpf(1)
        return float(mpmath.exp(-mpmath.mpf(s) / 4) * det)


def E0_hard_one_var(s: float, beta: float) -> float:
    """``e^{-beta s/8} 0F1(; a; s/4)`` with ``a = 2/beta`` (``beta a/2 = 1``)."""
    with mpmath.workdps(_DPS):
        s_mp, beta_mp = mpmath.mpf(s), mpmath.mpf(beta)
        a = 2 / beta_mp
        return float(mpmath.exp(-beta_mp * s_mp / 8) * mpmath.hyp0f1(a, s_mp / 4))


def E0_hard_a0(s: float, beta: float) -> float:
    """``e^{-beta s/8}``: the hard-edge ``E(0)`` when ``a = 0``."""
    return math.exp(-beta * s / 8.0)


def _laguerre(n: int, alpha: int, x):
    """``L_n^{(alpha)}(x)`` by its finite sum; valid for negative integer alpha."""
    return mpmath.fsum(
        (-1) ** i * mpmath.binomial(n + alpha, n - i) * x**i / mpmath.factorial(i)
        for i in range(n + 1)
    )


def E0_finiteN_beta2(s: float, a: int, N: int) -> float:
    """``e^{-N s} det[L^{(k-j)}_{N+j-k}(-s)]_{j,k=1..a}`` (size ``N``, beta = 2)."""
    with mpmath.workdps(_DPS):
        x = -mpmath.mpf(s)
        mat = mpmath.matrix(a, a)
        for j in range(a):
            for k in range(a):
                mat[j, k] = _laguerre(N + j - k, k - j, x)
        det = mpmath.det(mat) if a else mpmath.mpf(1)
        return float(mpmath.exp(-N * mpmath.mpf(s)) * det)


def _counting_probabilities(kernel, s: float, n_max: int, nodes: int) -> list[float]:
    """``E(n)``, ``n = 0..n_max``, of a determinantal process on ``(0, s)``.

    Gauss-Legendre Nystrom discretization (Bornemann, Math. Comp. 79
    (2010) 871): with ``mu_i`` the eigenvalues of ``sqrt(w) K sqrt(w)``,
    ``E(n)`` is the coefficient of ``z^n`` in ``prod_i (1 - mu_i + mu_i z)``.
    """
    t, w = np.polynomial.legendre.leggauss(nodes)
    x = s * (t + 1.0) / 2.0
    w = w * s / 2.0
    root_w = np.sqrt(w)
    mu = np.linalg.eigvalsh(root_w[:, None] * kernel(x) * root_w[None, :])
    poly = np.array([1.0])  # coefficients in increasing powers of z
    for m in mu:
        poly = np.convolve(poly, [1.0 - m, m])
    return [float(c) for c in poly[: n_max + 1]]


def _bessel_kernel(a: float):
    def kernel(x: np.ndarray) -> np.ndarray:
        r = np.sqrt(x)
        ja, ja1 = jv(a, r), jv(a + 1.0, r)
        # sqrt(x) J_a'(sqrt x) = a J_a(sqrt x) - sqrt(x) J_{a+1}(sqrt x)
        dj = a * ja - r * ja1
        num = ja[:, None] * dj[None, :] - dj[:, None] * ja[None, :]
        diff = x[:, None] - x[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / (2.0 * diff)
        diag = (ja * ja - jv(a + 1.0, r) * jv(a - 1.0, r)) / 4.0
        out[np.diag_indices_from(out)] = diag
        return out

    return kernel


def En_hard_beta2(s: float, a: float, n: int, nodes: int = 60) -> float:
    """Hard-edge ``E(n; (0, s))`` at beta = 2: Bessel-kernel Fredholm determinant."""
    return _counting_probabilities(_bessel_kernel(a), s, n, nodes)[n]


def _laguerre_kernel(a: float, size: int):
    log_norms = np.array(
        [0.5 * (gammaln(k + 1.0) - gammaln(k + a + 1.0)) for k in range(size)]
    )

    def kernel(x: np.ndarray) -> np.ndarray:
        envelope = np.exp(0.5 * a * np.log(x) - x / 2.0)
        phi = np.array(
            [np.exp(log_norms[k]) * envelope * eval_genlaguerre(k, a, x) for k in range(size)]
        )
        return phi.T @ phi

    return kernel


def En_finiteN_beta2(s: float, a: float, n: int, size: int, nodes: int = 60) -> float:
    """``E_size(n; (0, s))`` at beta = 2, weight ``lambda^a e^{-lambda}``.

    Fredholm determinant of the size-``size`` Laguerre kernel.
    """
    return _counting_probabilities(_laguerre_kernel(a, size), s, n, nodes)[n]


def F01_alpha1(c: float, xs: tuple[float, ...]) -> float:
    """``0F1(; c; x)`` at Jack parameter 1 for distinct ``x``.

    ``det[x_i^{m-j} 0F1(; c-j+1; x_i)] / prod_{i<j} (x_i - x_j)``.
    """
    m = len(xs)
    with mpmath.workdps(_DPS):
        x = [mpmath.mpf(v) for v in xs]
        mat = mpmath.matrix(m, m)
        for i in range(m):
            for j in range(m):
                mat[i, j] = x[i] ** (m - 1 - j) * mpmath.hyp0f1(c - j, x[i])
        vander = mpmath.fprod(x[i] - x[j] for i in range(m) for j in range(i + 1, m))
        return float(mpmath.det(mat) / vander)


def asymptotic_E0_F1A_c_log(a: float, beta: float) -> float:
    """``log s`` coefficient of the F1A large-gap form, ``-beta a(a-1)/8 - a/4``."""
    return -beta * a * (a - 1.0) / 8.0 - a / 4.0


def digits(value: float, reference: float) -> float:
    """``-log10`` of the relative error, capped at 16."""
    if value == reference:
        return 16.0
    rel = abs(value - reference) / abs(reference)
    return min(16.0, -math.log10(rel))


_COMMANDS = {
    "E0_hard_beta2": (E0_hard_beta2, (float, int)),
    "E0_hard_one_var": (E0_hard_one_var, (float, float)),
    "E0_hard_a0": (E0_hard_a0, (float, float)),
    "E0_finiteN_beta2": (E0_finiteN_beta2, (float, int, int)),
    "En_hard_beta2": (En_hard_beta2, (float, float, int)),
    "En_finiteN_beta2": (En_finiteN_beta2, (float, float, int, int)),
}


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in _COMMANDS:
        raise SystemExit(f"usage: reference.py {{{'|'.join(_COMMANDS)}}} ARGS...")
    func, types = _COMMANDS[sys.argv[1]]
    print(repr(func(*(t(v) for t, v in zip(types, sys.argv[2:], strict=True)))))
