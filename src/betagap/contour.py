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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .barnes import log_b_const, log_morris_value
from .errors import (
    NonConvergenceError,
    ParameterQuantizationError,
    QuadratureError,
    ResourceLimitError,
    quantized,
    require_finite,
)

__all__ = [
    "ContourSpec",
    "torus_E0_finiteN",
    "torus_E0_hard",
    "hard_contour_E0",
    "hard_contour_E0_parts",
]

_IMAG_REL_TOL = 1e-9


@dataclass(frozen=True)
class ContourSpec:
    """Quadrature layout for the branch-cut contour.

    ``inner_radius`` is the circle radius; the represented value is
    radius-independent by contour deformation, which makes varying it a
    consistency check.  ``ray_samples`` and ``circle_samples`` are the
    starting resolutions; they are doubled until the value settles.
    """

    inner_radius: float = 1.0
    ray_samples: int = 96
    circle_samples: int = 256
    tol: float = 1e-8
    max_doublings: int = 4

    def __post_init__(self) -> None:
        if self.inner_radius <= 0:
            raise ValueError(f"inner_radius must be positive, got {self.inner_radius}")
        if self.ray_samples < 8 or self.circle_samples < 8:
            raise ValueError("quadrature resolutions must be at least 8")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


def _dimension(a: float, beta: float) -> int:
    """Quantize ``beta a / 2`` and enforce the dimension cap."""
    m = quantized("beta*a/2", beta * a / 2.0)
    if m > 2:
        raise ResourceLimitError(f"integral dimension beta*a/2 = {m} exceeds the cap of 2")
    return m


def _check_imag(value: complex, where: str) -> float:
    """Return the real part, insisting the imaginary part is noise."""
    if abs(value.imag) > _IMAG_REL_TOL * max(abs(value.real), 1e-300):
        raise QuadratureError(
            f"{where}: imaginary residue {value.imag:.3e} "
            f"exceeds tolerance relative to {value.real:.3e}"
        )
    return value.real


def _settled_limit(
    evaluate: Callable[[int], np.ndarray],
    levels: int,
    tol: float,
    label: str,
) -> np.ndarray:
    """Limit of a doubling sequence of vector values.

    Accepts when one doubling moves the values (first component is the
    acceptance handle) by less than ``tol / 10`` relatively, or — for
    algebraically converging sequences — when two successive Richardson
    extrapolations with the measured decay ratio agree to the same
    threshold.
    """
    values: list[np.ndarray] = []
    previous_extrap: np.ndarray | None = None
    for level in range(levels):
        values.append(np.atleast_1d(np.asarray(evaluate(level), dtype=complex)))
        if len(values) >= 2:
            denom = max(abs(values[-1][0]), 1e-300)
            if abs(values[-1][0] - values[-2][0]) / denom < tol / 10.0:
                return values[-1]
        if len(values) >= 3:
            d1 = abs(values[-2][0] - values[-3][0])
            d2 = abs(values[-1][0] - values[-2][0])
            if d2 > 0.0 and d1 / d2 > 1.5:
                rho = d1 / d2
                extrap = values[-1] + (values[-1] - values[-2]) / (rho - 1.0)
                if previous_extrap is not None:
                    denom = max(abs(extrap[0]), 1e-300)
                    if abs(extrap[0] - previous_extrap[0]) / denom < tol / 10.0:
                        return extrap
                previous_extrap = extrap
    raise NonConvergenceError(
        f"{label} did not settle to relative tolerance {tol:.1e} "
        f"within {levels} resolution levels"
    )


def _torus_trapezoid(
    nodes: Callable[[int], tuple[np.ndarray, np.ndarray, float]],
    start: int,
    m: int,
    beta: float,
    tol: float,
    label: str,
) -> float:
    """Settled trapezoid rule on the ``m``-torus, ``m`` in ``{1, 2}``.

    ``nodes(n)`` gives the one-variable integrand ``f``, the circle points
    ``z`` and the weight ``w`` of an ``n``-point grid.  Dimension 1 sums
    ``f w``; dimension 2 couples two copies through the pair interaction
    ``|z_j - z_k|**(4/beta)``.  The grid starts at ``start`` points per
    dimension and doubles over 6 levels in dimension 1, 4 in dimension 2.
    Returns the real part of the settled value.
    """

    def evaluate(level: int) -> complex:
        f, z, w = nodes(start * 2**level)
        if m == 1:
            return complex(np.sum(f) * w)
        pair = np.abs(z[:, None] - z[None, :]) ** (4.0 / beta)
        return complex(f @ pair @ f * w * w)

    levels = 6 if m == 1 else 4
    total = _settled_limit(evaluate, levels, tol, label)[0]
    return _check_imag(total, label)


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
        Ensemble parameters with ``beta * a / 2`` in ``{0, 1, 2}``.
    N : int
        Ensemble size.
    tol : float
        Relative tolerance; see :func:`ContourSpec`.

    Returns
    -------
    float
        ``E_N(0; (0, s))``.
    """
    m = _dimension(a, beta)
    require_finite("s", s)
    if m == 0:
        return math.exp(-beta * N * s / 2.0)
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N}")

    cos_power = N - 1.0 + 2.0 / beta
    log_morris = log_morris_value(m, 2.0 / beta - 1.0, float(N), 2.0 / beta)

    def nodes(n: int) -> tuple[np.ndarray, np.ndarray, float]:
        x = -0.5 + np.arange(1, n) / n  # interior trapezoid nodes; endpoints vanish
        z = np.exp(2j * math.pi * x)
        f = (
            (2.0 * np.cos(math.pi * x)) ** cos_power
            * np.exp(1j * math.pi * x * (2.0 / beta - 1.0 - N))
            * np.exp(s * z)
        )
        return f, z, 1.0 / n

    value = _torus_trapezoid(
        nodes, 512 if m == 1 else 256, m, beta, tol, "torus finite-size integral"
    )
    return math.exp(-beta * N * s / 2.0 - log_morris) * value


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
        Relative tolerance; see :func:`ContourSpec`.

    Returns
    -------
    float
        ``E(0; (0, s))``.
    """
    m = _dimension(a, beta)
    require_finite("s", s, positive=True)
    if m == 0:
        return math.exp(-beta * s / 8.0)
    q_raw = 2.0 / beta - 1.0
    if abs(q_raw - round(q_raw)) > 1e-9 or round(q_raw) < 0:
        raise ParameterQuantizationError(
            f"2/beta must be a positive integer for the circle route, got {2.0 / beta}"
        )
    q = float(round(q_raw))

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
        return f, np.exp(1j * theta), 2.0 * math.pi / n

    value = _torus_trapezoid(nodes, 256, m, beta, tol, "circle integral")
    return math.exp(log_pref) * value


def _contour_nodes(
    s: float, q: float, radius: float, circle_n: int, ray_n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature nodes along the deformed contour.

    The contour is a circle of the given radius plus two negative-axis
    rays joining it to the origin, parameterized as ``z = -radius v**2``
    to cluster nodes at the origin.  Returns complex positions ``z``,
    complex amplitudes ``amp`` (measure ``dz / (2 pi i z)`` with
    traversal direction, times the branch-resolved integrand factor
    ``exp(sqrt(s)(z + 1/z)/2) z**q``), and a side tag (0 circle, +1
    upper ray edge, -1 lower ray edge).
    """
    from scipy.special import roots_legendre

    root_s = math.sqrt(s)

    theta, tw = roots_legendre(circle_n)
    theta = theta * math.pi
    tw = tw * math.pi
    z_circle = radius * np.exp(1j * theta)
    amp_circle = (
        (tw / (2.0 * math.pi))
        * np.exp(root_s * (z_circle + 1.0 / z_circle) / 2.0 + 1j * q * theta)
        * radius**q
    )

    v, vw = roots_legendre(ray_n)
    v = (v + 1.0) / 2.0
    vw = vw / 2.0
    u = radius * v * v
    mag = np.exp(-root_s * (u + 1.0 / u) / 2.0 + q * np.log(u)) * vw / (math.pi * v)
    amp_top = mag * (1j * np.exp(1j * math.pi * q))
    amp_bot = mag * (-1j * np.exp(-1j * math.pi * q))

    z = np.concatenate([z_circle, -u, -u])
    amp = np.concatenate([amp_circle, amp_top, amp_bot])
    side = np.concatenate(
        [np.zeros(circle_n), np.ones(ray_n), -np.ones(ray_n)]
    ).astype(int)
    return z, amp, side


def _contour_components(
    s: float, a: float, beta: float, radius: float, circle_n: int, ray_n: int
) -> tuple[complex, complex]:
    """One contour quadrature pass: (total, circle-only component).

    For dimension 2 the double sum is assembled from the circle-circle
    and circle-ray blocks with the principal branch of the two-point
    power (the principal branch is continuous along those blocks).  The
    ray-ray block is omitted because it vanishes identically: against a
    common real kernel its four edge combinations contribute the phase
    sum ``2 cos(pi p) - 2 cos(2 pi q - pi p)`` with ``p = 2/beta``
    (mixed edges give the first cosine, equal edges the second), and
    with ``q = p - 1`` the two cosines coincide for every ``beta``.
    """
    m = _dimension(a, beta)
    q = 2.0 / beta - 1.0
    z, amp, side = _contour_nodes(s, q, radius, circle_n, ray_n)
    if m == 1:
        total = complex(np.sum(amp))
        circle_only = complex(np.sum(amp[side == 0]))
        return total, circle_only

    p2 = 2.0 / beta
    on_circle = side == 0
    z_c, a_c = z[on_circle], amp[on_circle]
    z_r, a_r = z[~on_circle], amp[~on_circle]

    w_cc = 2.0 - z_c[:, None] / z_c[None, :] - z_c[None, :] / z_c[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        k_cc = np.where(w_cc == 0.0, 0.0, np.exp(p2 * np.log(np.where(w_cc == 0.0, 1.0, w_cc))))
    circle_only = complex(a_c @ k_cc @ a_c)

    w_cr = 2.0 - z_c[:, None] / z_r[None, :] - z_r[None, :] / z_c[:, None]
    k_cr = np.exp(p2 * np.log(w_cr))
    cross = complex(a_c @ k_cr @ a_r)

    return circle_only + 2.0 * cross, circle_only


def hard_contour_E0_parts(
    s: float, a: float, beta: float, spec: ContourSpec | None = None
) -> dict:
    """Hard-edge gap probability via the deformed contour, with parts.

    Returns a dict with the full ``value``, the ``circle`` component
    (all quadrature nodes on the circle), and the ``rays`` component
    (every term touching a ray node), each already carrying the
    prefactor.  For ``2 / beta`` a positive integer the ray component
    cancels exactly.
    """
    if spec is None:
        spec = ContourSpec()
    m = _dimension(a, beta)
    require_finite("s", s, positive=True)
    if m == 0:
        value = math.exp(-beta * s / 8.0)
        return {"value": value, "circle": value, "rays": 0.0}
    q = 2.0 / beta - 1.0
    log_pref = (
        log_b_const(a, beta) - beta * s / 8.0 + q * m / 2.0 * math.log(4.0 / s)
    )

    def evaluate(level: int) -> np.ndarray:
        circle_n = spec.circle_samples * 2**level
        ray_n = spec.ray_samples * 2**level
        if m == 2 and circle_n + 2 * ray_n > 8192:
            raise ResourceLimitError(
                "contour resolution exceeds the dimension-2 node budget"
            )
        total, circle_only = _contour_components(
            s, a, beta, spec.inner_radius, circle_n, ray_n
        )
        return np.array([total, circle_only])

    total, circle_only = _settled_limit(
        evaluate, spec.max_doublings + 1, spec.tol, "contour integral"
    )
    real_total = _check_imag(total, "contour integral")
    pref = math.exp(log_pref)
    return {
        "value": pref * real_total,
        "circle": pref * circle_only.real,
        "rays": pref * (real_total - circle_only.real),
    }


def hard_contour_E0(
    s: float, a: float, beta: float, spec: ContourSpec | None = None
) -> float:
    """Hard-edge gap probability via the branch-cut contour.

    Works for every ``beta > 0`` with ``beta a / 2`` in ``{0, 1, 2}``:
    the circle integrand is continued through the negative-axis cut
    along two rays into the origin (parameterized as ``z = -u**2`` to
    cluster nodes where the integrand power is singular), with branch
    choices fixed by the contour deformation.

    Parameters
    ----------
    s : float
        Gap size in hard-edge units; finite and positive.
    a, beta : float
        Ensemble parameters.
    spec : ContourSpec, optional
        Quadrature layout (defaults are adequate for moderate ``s``).

    Returns
    -------
    float
        ``E(0; (0, s))``.
    """
    return hard_contour_E0_parts(s, a, beta, spec)["value"]
