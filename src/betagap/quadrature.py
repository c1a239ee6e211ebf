"""Gauss–Jacobi quadrature rules.

``gauss_jacobi(order, a, b)`` gives the nodes and weights of the
``order``-point Gauss rule for ``int_{-1}^{1} (1-x)**a (1+x)**b f(x) dx``;
``a = b = 0`` is Gauss–Legendre.  Starting nodes come from the
Golub–Welsch eigenvalues of the Jacobi matrix (Golub & Welsch, Math.
Comp. 23 (1969) 221) or, for Legendre, from Tricomi's asymptotic zeros,
which need no ``O(order**3)`` eigensolve at the contour's thousands of
nodes.  Both are polished by Newton's method on the three-term
recurrence of the orthonormal polynomials (scaled to ``p_0 = 1``).  Each
pass carries ``p`` and ``p'`` as one two-row array, one fused step per
degree in preallocated buffers: the operations of the two recurrences in
their order, in fewer array calls, so the rules keep their bits.  The
weights come from the derivative form ``1 / ((1 - x**2) p_n'(x)**2)``
scaled to the weight's total mass ``2**(a+b+1) B(a+1, b+1)``, as
``scipy.special.roots_jacobi`` scales them.

``ratio_moments(power, rate, count)`` needs no rule: it gives the
moments ``int_0^1 (1-r)**power exp(rate r) r**d dr`` in closed form, for
the series that are integrated term by term.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["gauss_jacobi", "ratio_moments"]

#: Newton steps allowed after the starting nodes; one to four suffice.
_NEWTON_STEPS = 8

#: Newton stops after a step this small: convergence is quadratic, so the
#: error left is far below rounding.
_NEWTON_TOL = 1e-15


def _recurrence(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal ``alpha_k`` (``k < order``) and off-diagonal ``b_k``
    (``k <= order``, ``b_0 = 0``) of the Jacobi matrix."""
    k = np.arange(order + 1, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = (b * b - a * a) / (s * (s + 2.0))
        off = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    # the general forms are 0/0 at k = 0 and, for a + b = -1, at k = 1
    alpha[0] = (b - a) / (a + b + 2.0)
    off[0] = 0.0
    off[1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    return alpha[:order], np.sqrt(off)


def _with_derivative(
    x: np.ndarray, alpha: np.ndarray, off: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``p_n(x)`` and ``p_n'(x)`` of the recurrence-normalized polynomials
    (``p_0 = 1``), for ``n = len(alpha)``.

    Each degree is one fused step on the two-row state ``(p, p')``:
    ``next = ((x - alpha_k) state + (0, p) - b_k prev) * (1 / b_{k+1})``,
    in preallocated buffers, with the floating-point operations of the
    separate recurrences for ``p`` and ``p'`` in the same order (a zero
    ``alpha_k``, as in every Legendre step, skips the exact ``x - 0.0``).
    """
    prev = np.zeros((2, len(x)))
    state = np.zeros((2, len(x)))
    state[0] = 1.0
    step = np.empty_like(state)
    scratch = np.empty_like(state)
    buffer = np.empty_like(x)
    for shift, back, inverse in zip(alpha.tolist(), off.tolist(), (1.0 / off[1:]).tolist()):
        shifted = np.subtract(x, shift, out=buffer) if shift else x
        np.multiply(shifted, state, out=step)
        step[1] += state[0]
        np.multiply(back, prev, out=scratch)
        step -= scratch
        step *= inverse
        prev, state, step = state, step, prev
    return state[0], state[1]


def _legendre_guess(order: int) -> np.ndarray:
    """Tricomi's asymptotic Legendre zeros at or above 0, increasing."""
    k = np.arange((order + 1) // 2, 0, -1)
    theta = math.pi * (4.0 * k - 1.0) / (4.0 * order + 2.0)
    n = float(order)
    correction = (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    x = (1.0 - (n - 1.0) / (8.0 * n**3) - correction) * np.cos(theta)
    if order % 2:
        x[0] = 0.0
    return x


@lru_cache(maxsize=128)
def gauss_jacobi(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of the ``order``-point Gauss rule for
    the weight ``(1-x)**a (1+x)**b`` on ``[-1, 1]``, with ``a, b > -1``.

    Rules are cached, so both arrays are read-only.
    """
    alpha, off = _recurrence(order, a, b)
    legendre = a == 0.0 and b == 0.0
    if legendre:
        x = _legendre_guess(order)
    else:
        matrix = np.diag(alpha) + np.diag(off[1:order], 1) + np.diag(off[1:order], -1)
        x = np.linalg.eigvalsh(matrix)
    for _ in range(_NEWTON_STEPS):
        p, dp = _with_derivative(x, alpha, off)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    _, dp = _with_derivative(x, alpha, off)
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    if legendre:
        lower = slice(order % 2, None)
        x = np.concatenate([-x[lower][::-1], x])
        w = np.concatenate([w[lower][::-1], w])
    log_mass = (
        (a + b + 1.0) * math.log(2.0)
        + math.lgamma(a + 1.0)
        + math.lgamma(b + 1.0)
        - math.lgamma(a + b + 2.0)
    )
    w = w * (math.exp(log_mass) / math.fsum(w))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def ratio_moments(power: int, rate: float, count: int) -> np.ndarray:
    """``exp(-rate) int_0^1 (1-r)**power exp(rate r) r**d dr`` for ``d <
    count``, with ``power`` a nonnegative integer and ``rate >= 0``.

    Expanding ``exp(rate r)`` leaves beta integrals, so the moment ``d``
    times ``exp(-rate)`` is a Poisson mixture of positive terms,

        sum_j pois_j(rate) B(d + j + 1, power + 1),
        B(D + 1, power + 1) = prod_{m=1..power} m / (D + m) / (D + power + 1),

    whatever the rate; at ``rate = 0`` it is ``B(d + 1, power + 1)``.
    The Poisson weights are built by their ratios outward from the mode
    and divided by their sum, over the mode plus or minus ``14
    sqrt(rate) + 40``, beyond which they fall below about ``exp(-98)`` of
    the mode.  Every ``B`` depends on ``d + j`` alone, so the mixture is
    one matrix-vector product over a sliding window of them.
    """
    mode = math.floor(rate)
    reach = math.ceil(14.0 * math.sqrt(rate)) + 40 if rate else 0
    lo, hi = max(mode - reach, 0), mode + reach
    weights = np.ones(hi - lo + 1)
    weights[mode - lo + 1 :] = np.cumprod(rate / np.arange(mode + 1, hi + 1))
    weights[: mode - lo] = np.cumprod(np.arange(mode, lo, -1) / rate)[::-1]
    shifted = np.arange(lo, hi + count, dtype=float)
    beta = 1.0 / (shifted + (power + 1.0))
    for m in range(1, power + 1):
        beta *= m / (shifted + m)
    if not rate:  # one Poisson weight, 1: the mixture is B itself
        return beta
    window = np.lib.stride_tricks.sliding_window_view(beta, len(weights))
    return (window @ weights) / weights.sum()
