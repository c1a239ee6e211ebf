"""Torus and branch-cut contour integral routes for gap probabilities.

Direct quadrature of the small-dimension integral representations of
``E(0; (0, s))`` — a finite-size torus integral, its hard-edge circle
limit (for ``2 / beta`` a positive integer), and the deformed contour
that removes that restriction.  These serve as oracles independent of
the hypergeometric series route.

All routes are pure and deterministic: quadrature tiles are reduced
with fixed-order vectorized sums.  Convergence is certified by
resolution doubling; when the pair interaction has a diagonal kink
(``4 / beta`` not an even integer) the doubling sequence converges
algebraically and is Richardson-extrapolated with a measured order.

In dimension 2 the torus and the contour share one pair form,
:func:`_circle_pair_form`, which builds the circle interaction ``|z_j -
z_k|**(4/beta)`` from half-angle sines and cosines and contracts it; the
routes keep their own grids, and only the contour adds its rays.  Every
pair kernel is built a block of rows at a time, so a level's memory
grows with the node count, not its square: 0.7 to 9.0 MB traced on the
contour, 4.5 MB on the torus.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .barnes import log_b_const, log_morris_value
from .errors import (
    CancellationError,
    NonConvergenceError,
    ParameterQuantizationError,
    QuadratureError,
    ResourceLimitError,
    counted,
    quantized,
    require_finite,
)
from .quadrature import gauss_jacobi

__all__ = [
    "torus_E0_finiteN",
    "torus_E0_hard",
    "hard_contour_E0",
]

_IMAG_REL_TOL = 1e-9
# Machine epsilon, 2**-52: a floating-point sum rounds by about this much
# of its summed term magnitude.
_FLOAT_EPS = sys.float_info.epsilon
# Log of the smallest normal float: a probability below it underflows.
_LOG_FLOAT_MIN = math.log(sys.float_info.min)
# Branch-cut contour layout: circle radius (the value does not depend on
# it, by contour deformation), starting Gauss-Legendre node counts on the
# circle and on each ray, and resolution levels (four doublings; the finest
# dimension-2 level has 4096 + 2 * 1536 nodes).  A dimension-2 level
# builds its kernels _ROW_BLOCK circle rows at a time: at beta = 4/3 the
# five levels peak at 0.7, 1.3, 2.4, 4.6 and 9.0 MB traced.
_CONTOUR_RADIUS = 1.0
_CIRCLE_NODES = 256
_RAY_NODES = 96
_CONTOUR_LEVELS = 5
_ROW_BLOCK = 128


def _dimension(a: float, beta: float) -> int:
    """Quantize ``beta a / 2`` and enforce the dimension cap."""
    m = quantized("beta*a/2", beta * a / 2.0)
    if m > 2:
        raise ResourceLimitError(f"integral dimension beta*a/2 = {m} exceeds the cap of 2")
    return m


def _settled_limit(
    evaluate: Callable[[int], complex],
    levels: int,
    tol: float,
    label: str,
) -> float:
    """Real part of the limit of a doubling sequence of complex values.

    Accepts when one doubling moves the value by less than ``tol / 10``
    relatively, or — for algebraically converging sequences — when two
    successive Richardson extrapolations with the measured decay ratio
    agree to the same threshold.  The imaginary part of the accepted value
    must be noise relative to its real part.  The real part is returned as
    a Python ``float``.  Each route checks ``tol`` where it starts.
    """
    values: list[np.complex128] = []
    previous_extrap: np.complex128 | None = None
    for level in range(levels):
        values.append(np.complex128(evaluate(level)))
        if len(values) >= 2:
            denom = max(abs(values[-1]), 1e-300)
            if abs(values[-1] - values[-2]) / denom < tol / 10.0:
                settled = values[-1]
                break
        if len(values) >= 3:
            d1 = abs(values[-2] - values[-3])
            d2 = abs(values[-1] - values[-2])
            if d2 > 0.0 and d1 / d2 > 1.5:
                rho = d1 / d2
                extrap = values[-1] + (values[-1] - values[-2]) / (rho - 1.0)
                if previous_extrap is not None:
                    denom = max(abs(extrap), 1e-300)
                    if abs(extrap - previous_extrap) / denom < tol / 10.0:
                        settled = extrap
                        break
                previous_extrap = extrap
    else:
        raise NonConvergenceError(
            f"{label} did not settle to relative tolerance {tol:.1e} "
            f"within {levels} resolution levels"
        )
    if abs(settled.imag) > _IMAG_REL_TOL * max(abs(settled.real), 1e-300):
        raise QuadratureError(
            f"{label}: imaginary residue {settled.imag:.3e} "
            f"exceeds tolerance relative to {settled.real:.3e}"
        )
    return float(settled.real)


def _scaled_probability(log_pref: float, value: float, tol: float, label: str) -> float:
    """``exp(log_pref) * value``, the end of every circle route.

    When ``log_pref + log(value)`` lies below the log of the smallest
    normal float the product underflows, so raise ``QuadratureError``
    naming it.  When only the prefactor lies below, ``exp(log_pref)``
    would be subnormal (or zero) and carry too few bits, so the value is
    ``exp(log_pref + log(value))``.  A product outside ``[0, 1 + tol]``
    means the quadrature failed, so raise ``QuadratureError``.  A closed
    form is ``value`` 1.0, whose product is ``exp(log_pref)``.
    """
    if value > 0.0:
        log_value = log_pref + math.log(value)
        if log_value < _LOG_FLOAT_MIN:
            raise QuadratureError(
                f"{label} underflows: its log value {log_value!r} lies below "
                f"{_LOG_FLOAT_MIN!r}, the log of the smallest normal float"
            )
        if log_pref < _LOG_FLOAT_MIN:
            log_pref, value = 0.0, math.exp(log_value)
    value = math.exp(log_pref) * value
    if not 0.0 <= value <= 1.0 + tol:
        raise QuadratureError(f"{label} gave {float(value)!r}, outside [0, 1 + tol]")
    return value


def _circle_pair_form(f: np.ndarray, theta: np.ndarray, power: float) -> complex:
    """``sum_{j,k} f_j f_k |2 sin((theta_j - theta_k) / 2)|**power``.

    The dimension-2 pair interaction ``|z_j - z_k|**power`` of the points
    ``z = e^{i theta}`` of one circle grid, contracted on both sides with
    the complex ``f``: the one place the torus and the contour build it.
    The real kernel is built ``_ROW_BLOCK`` rows at a time from a table of
    half-angle sines and cosines, ``2 sin((x - y) / 2) = 2 sin(x/2) cos(y/2)
    - cos(x/2) 2 sin(y/2)``, so no pair needs a transcendental call and the
    diagonal is exactly 0.  Each block is contracted with the real and
    imaginary parts of ``f``.
    """
    sines, cosines = 2.0 * np.sin(theta / 2.0), np.cos(theta / 2.0)
    parts = np.stack([f.real, f.imag], axis=1)
    k_parts = np.empty_like(parts)
    for start in range(0, len(theta), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        kernel = np.multiply.outer(sines[rows], cosines)
        kernel -= np.multiply.outer(cosines[rows], sines)
        np.abs(kernel, out=kernel)
        kernel **= power
        k_parts[rows] = kernel @ parts
    (x, y), (kx, ky) = parts.T, k_parts.T
    return complex(x @ kx - y @ ky, x @ ky + y @ kx)


def _torus_trapezoid(
    nodes: Callable[[int], tuple[np.ndarray, np.ndarray, float]],
    start: int,
    m: int,
    beta: float,
    tol: float,
    label: str,
) -> float:
    """Settled trapezoid rule on the ``m``-torus, ``m`` in ``{1, 2}``.

    ``nodes(n)`` gives the one-variable integrand ``f``, the circle angles
    ``theta`` and the weight ``w`` of an ``n``-point grid.  Dimension 1
    sums ``f w``; dimension 2 couples two copies through the pair
    interaction ``|z_j - z_k|**(4/beta)`` of :func:`_circle_pair_form`,
    whose cancellation check takes it over ``|f|`` too.  The grid starts
    at ``start`` points per dimension and doubles over 6 levels in
    dimension 1, 4 in dimension 2.  Returns the real part of the settled
    value.

    A value that does not settle is checked for cancellation: when ``tol /
    10`` lies above the machine epsilon ``2**-52`` and the finest level's
    summed term magnitude times ``2**-52`` exceeds ``tol / 10`` of its
    value, rounding alone moves the sum by more than the tolerance, so
    raise ``CancellationError`` naming the ratio of magnitude to value.
    """

    def total(f: np.ndarray, theta: np.ndarray, w: float) -> complex:
        if m == 1:
            return complex(np.sum(f) * w)
        return _circle_pair_form(f, theta, 4.0 / beta) * w * w

    finest: list = []

    def evaluate(level: int) -> complex:
        f, theta, w = nodes(start * 2**level)
        value = total(f, theta, w)
        finest[:] = f, theta, w, value
        return value

    try:
        return _settled_limit(evaluate, 6 if m == 1 else 4, tol, label)
    except NonConvergenceError:
        f, theta, w, value = finest
        magnitude = total(np.abs(f), theta, w).real
        if tol / 10.0 > _FLOAT_EPS and magnitude * _FLOAT_EPS > tol / 10.0 * abs(value):
            ratio = magnitude / abs(value) if value else math.inf
            raise CancellationError(
                f"{label} lost to cancellation: summed term magnitude exceeds its "
                f"value by {ratio:.1e}, so rounding moves it by more than tol/10 = "
                f"{tol / 10.0:.1e}"
            ) from None
        raise


def torus_E0_finiteN(
    s: float,
    a: float,
    beta: float,
    N: int,
    tol: float = 1e-8,
) -> float:
    """Finite-size gap probability via the normalized torus integral.

    Trapezoidal quadrature over ``[-1/2, 1/2]**(beta a / 2)`` of the
    product of ``(2 cos(pi x))**(N - 1 + 2/beta)`` factors, unimodular
    phases, ``exp(s exp(2 pi i x))`` factors, and the pair interaction
    ``|exp(2 pi i x_k) - exp(2 pi i x_j)|**(4/beta)``, divided by the
    gamma-product evaluation of the same integral at ``s = 0`` and
    scaled by ``exp(-beta N s / 2)``.  The grid starts at 512 points in
    dimension 1 and 256 per dimension in dimension 2.

    Parameters
    ----------
    s : float
        Gap endpoint (unscaled eigenvalue axis); finite and nonnegative.
    a, beta : float
        Ensemble parameters: ``beta`` finite and positive, ``beta * a / 2``
        in ``{0, 1, 2}``.
    N : int
        Ensemble size; a positive integer.
    tol : float
        Relative tolerance of the resolution doubling; finite and positive.

    Returns
    -------
    float
        ``E_N(0; (0, s))``.

    Raises
    ------
    QuadratureError
        If the value lies outside ``[0, 1 + tol]`` or below the smallest
        normal float.
    CancellationError
        If the value does not settle because its terms cancel beyond what
        rounding lets ``tol`` reach (:func:`_torus_trapezoid`), as at
        moderate ``s`` for small ``N``.
    """
    require_finite("beta", beta, positive=True)
    m = _dimension(a, beta)
    require_finite("s", s)
    counted(N, f"N must be a positive integer, got {N}", 1)
    require_finite("tol", tol, positive=True)
    if m == 0:
        return _scaled_probability(-beta * N * s / 2.0, 1.0, tol, "torus finite-size integral")

    cos_power = N - 1.0 + 2.0 / beta
    log_morris = log_morris_value(m, 2.0 / beta - 1.0, float(N), 2.0 / beta)

    def nodes(n: int) -> tuple[np.ndarray, np.ndarray, float]:
        x = -0.5 + np.arange(1, n) / n  # interior trapezoid nodes; endpoints vanish
        theta = 2.0 * math.pi * x
        try:
            with np.errstate(over="raise", invalid="raise"):
                f = (
                    (2.0 * np.cos(math.pi * x)) ** cos_power
                    * np.exp(1j * math.pi * x * (2.0 / beta - 1.0 - N))
                    * np.exp(s * np.exp(1j * theta))
                )
        except FloatingPointError as exc:
            raise QuadratureError(
                f"torus finite-size integrand is not finite at s = {s!r}, N = {N!r} ({exc})"
            ) from exc
        return f, theta, 1.0 / n

    value = _torus_trapezoid(
        nodes, 512 if m == 1 else 256, m, beta, tol, "torus finite-size integral"
    )
    log_pref = -beta * N * s / 2.0 - log_morris
    return _scaled_probability(log_pref, value, tol, "torus finite-size integral")


def torus_E0_hard(
    s: float,
    a: float,
    beta: float,
    tol: float = 1e-8,
) -> float:
    """Hard-edge gap probability via the periodic circle integral.

    Valid for ``2 / beta`` a positive integer (the integrand is then
    single-valued on the circle) and ``beta a / 2`` in ``{0, 1, 2}``;
    the grid is uniform (periodic trapezoid) and starts at 256 points
    per dimension.

    Parameters
    ----------
    s : float
        Gap size in hard-edge units; finite and positive.
    a, beta : float
        Ensemble parameters.
    tol : float
        Relative tolerance of the resolution doubling; finite and positive.

    Returns
    -------
    float
        ``E(0; (0, s))``.

    Raises
    ------
    QuadratureError
        If the value lies outside ``[0, 1 + tol]`` or below the smallest
        normal float.
    CancellationError
        If the value does not settle because its terms cancel beyond what
        rounding lets ``tol`` reach (:func:`_torus_trapezoid`).
    """
    require_finite("beta", beta, positive=True)
    m = _dimension(a, beta)
    require_finite("s", s, positive=True)
    require_finite("tol", tol, positive=True)
    if m == 0:
        return _scaled_probability(-beta * s / 8.0, 1.0, tol, "circle integral")
    q = float(quantized("2/beta", 2.0 / beta) - 1)

    root_s = math.sqrt(s)
    log_pref = (
        log_b_const(a, beta)
        - beta * s / 8.0
        + q * m / 2.0 * math.log(4.0 / s)
        - m * math.log(2.0 * math.pi)
    )

    def nodes(n: int) -> tuple[np.ndarray, np.ndarray, float]:
        theta = -math.pi + 2.0 * math.pi * np.arange(n) / n
        f = np.exp(root_s * np.cos(theta) + 1j * q * theta)
        return f, theta, 2.0 * math.pi / n

    value = _torus_trapezoid(nodes, 256, m, beta, tol, "circle integral")
    return _scaled_probability(log_pref, value, tol, "circle integral")


def _contour_nodes(
    s: float, q: float, circle_n: int, ray_n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature nodes along the deformed contour.

    The contour is a circle of radius ``_CONTOUR_RADIUS`` plus two
    negative-axis rays joining it to the origin, parameterized as
    ``z = -radius v**2`` to cluster nodes at the origin; both carry
    Gauss–Legendre rules from :func:`gauss_jacobi`.  Returns the circle
    angles ``theta``, complex positions ``z`` and complex amplitudes
    ``amp`` (measure ``dz / (2 pi i z)`` with traversal direction, times
    the branch-resolved integrand factor ``exp(sqrt(s)(z + 1/z)/2)
    z**q``).  ``z`` and ``amp`` hold the ``circle_n`` circle nodes, then
    the ``ray_n`` upper ray edge nodes, then the ``ray_n`` lower ray edge
    nodes, which sit at the same points as the upper ones.
    """
    root_s = math.sqrt(s)
    radius = _CONTOUR_RADIUS

    theta, tw = gauss_jacobi(circle_n, 0.0, 0.0)
    theta = theta * math.pi
    tw = tw * math.pi
    z_circle = radius * np.exp(1j * theta)
    amp_circle = (
        (tw / (2.0 * math.pi))
        * np.exp(root_s * (z_circle + 1.0 / z_circle) / 2.0 + 1j * q * theta)
        * radius**q
    )

    v, vw = gauss_jacobi(ray_n, 0.0, 0.0)
    v = (v + 1.0) / 2.0
    vw = vw / 2.0
    u = radius * v * v
    mag = np.exp(-root_s * (u + 1.0 / u) / 2.0 + q * np.log(u)) * vw / (math.pi * v)
    amp_top = mag * (1j * np.exp(1j * math.pi * q))
    amp_bot = mag * (-1j * np.exp(-1j * math.pi * q))

    z = np.concatenate([z_circle, -u, -u])
    amp = np.concatenate([amp_circle, amp_top, amp_bot])
    return theta, z, amp


def _contour_components(
    s: float, a: float, beta: float, circle_n: int, ray_n: int
) -> complex:
    """One contour quadrature pass.

    For dimension 2 the double sum is assembled from the circle-circle
    and circle-ray blocks of the two-point power ``w**(2/beta)``, ``w =
    2 - z_j/z_k - z_k/z_j``.  On the circle ``w = |e^{i theta_j} -
    e^{i theta_k}|**2`` at every radius, so that block is the torus's
    pair form, :func:`_circle_pair_form` of the circle amplitudes at
    power ``4/beta``.  The circle-ray block takes the principal branch
    (continuous along it); both ray edges sit at the same points, so it
    is contracted once with the sum of their amplitudes, ``_ROW_BLOCK``
    circle rows at a time.  The ray-ray block is omitted.  Against a
    common real kernel its four edge combinations carry the phase factor
    ``2 cos(pi p) - 2 cos(3 pi p)`` with ``p = 2/beta`` (mixed edges give
    the first cosine; equal edges the second, with phase ``e^{+i pi p}``
    on the upper edge and ``e^{-i pi p}`` on the lower), which is zero
    only when ``4/beta`` is an integer.  That is why
    :func:`hard_contour_E0` admits dimension 2 only there.
    """
    m = _dimension(a, beta)
    q = 2.0 / beta - 1.0
    theta, z, amp = _contour_nodes(s, q, circle_n, ray_n)
    if m == 1:
        return complex(np.sum(amp))

    p2 = 2.0 / beta
    z_c, a_c = z[:circle_n], amp[:circle_n]
    z_r = z[circle_n : circle_n + ray_n]
    a_r = amp[circle_n : circle_n + ray_n] + amp[circle_n + ray_n :]
    k_ray = np.empty(circle_n, dtype=complex)
    for start in range(0, circle_n, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        zc = z_c[rows, None]
        k_ray[rows] = np.exp(p2 * np.log(2.0 - zc / z_r - z_r / zc)) @ a_r
    return _circle_pair_form(a_c, theta, 2.0 * p2) + 2.0 * complex(a_c @ k_ray)


def hard_contour_E0(s: float, a: float, beta: float, tol: float = 1e-8) -> float:
    """Hard-edge gap probability via the branch-cut contour.

    Works for every ``beta > 0`` with ``beta a / 2`` in ``{0, 1}``, and
    with ``beta a / 2 = 2`` where ``4 / beta`` is a positive integer (off
    that set the dimension-2 value has been seen wrong by up to 5.7e-2,
    so it raises there).  The circle integrand is continued through the
    negative-axis cut along two rays into the origin (parameterized as
    ``z = -u**2`` to cluster nodes where the integrand power is
    singular), with branch choices fixed by the contour deformation.
    The circle has radius 1;
    the Gauss–Legendre grid (the cached rules of
    :func:`betagap.quadrature.gauss_jacobi`, which at these orders come
    from Bogaert's iteration-free formulas) starts at 256 circle and 96
    ray nodes and doubles up to 4 times.

    Parameters
    ----------
    s : float
        Gap size in hard-edge units; finite and positive.
    a, beta : float
        Ensemble parameters.
    tol : float
        Relative tolerance of the resolution doubling; finite and positive.

    Returns
    -------
    float
        ``E(0; (0, s))``.

    Raises
    ------
    ParameterQuantizationError
        If ``beta a / 2 = 2`` and ``4 / beta`` is not a positive integer:
        the only dimension-2 points where the route has been seen exact.
    QuadratureError
        If the value lies outside ``[0, 1 + tol]`` or below the smallest
        normal float.
    """
    require_finite("beta", beta, positive=True)
    m = _dimension(a, beta)
    ratio = 4.0 / beta
    if m == 2 and (round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9):
        raise ParameterQuantizationError(
            f"4/beta must be a positive integer for the dimension-2 contour, got {ratio}"
        )
    require_finite("s", s, positive=True)
    require_finite("tol", tol, positive=True)
    if m == 0:
        return _scaled_probability(-beta * s / 8.0, 1.0, tol, "contour integral")
    q = 2.0 / beta - 1.0
    log_pref = (
        log_b_const(a, beta) - beta * s / 8.0 + q * m / 2.0 * math.log(4.0 / s)
    )

    def evaluate(level: int) -> complex:
        return _contour_components(
            s, a, beta, _CIRCLE_NODES * 2**level, _RAY_NODES * 2**level
        )

    value = _settled_limit(evaluate, _CONTOUR_LEVELS, tol, "contour integral")
    return _scaled_probability(log_pref, value, tol, "contour integral")
