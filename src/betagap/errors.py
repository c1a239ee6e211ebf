"""Exception hierarchy and the integer-parameter, count and finite-value rules
shared by all betagap modules."""

from __future__ import annotations

import math

__all__ = [
    "BetagapError",
    "ParameterQuantizationError",
    "quantized",
    "counted",
    "require_finite",
    "LowerParameterPoleError",
    "CancellationError",
    "NonConvergenceError",
    "ResourceLimitError",
    "QuadratureError",
]


class BetagapError(Exception):
    """Base class for all errors raised by this package."""


class ParameterQuantizationError(BetagapError, ValueError):
    """A parameter combination violates an integrality constraint.

    Several evaluation routes only exist when a derived quantity such as
    ``beta * a / 2`` is a nonnegative integer; this error reports which
    quantity failed and what it evaluated to.
    """


def quantized(name: str, value: float) -> int:
    """``value`` as a nonnegative integer, to within ``1e-9``.

    Raises
    ------
    ParameterQuantizationError
        Naming ``name`` when ``value`` is NaN, infinite, negative or not
        within ``1e-9`` of an integer.
    """
    if math.isfinite(value):
        rounded = round(value)
        if abs(value - rounded) <= 1e-9 and rounded >= 0:
            return int(rounded)
    raise ParameterQuantizationError(
        f"{name} must be a nonnegative integer for this route, got {value}"
    )


def counted(value: float, message: str, least: int = 0, most: float = math.inf) -> int:
    """``value`` as an ``int`` if it is an integer from ``least`` to ``most``
    (integral floats pass); else ``ValueError`` with ``message``."""
    if not (least <= value <= most and float(value).is_integer()):
        raise ValueError(message)
    return int(value)


def require_finite(
    name: str, value: float, *, positive: bool = False, signed: bool = False
) -> None:
    """Reject ``value`` unless it is finite and nonnegative (positive when
    ``positive``, of either sign when ``signed``).

    Raises
    ------
    ValueError
        Naming ``name`` when ``value`` is NaN, infinite or, unless
        ``signed``, negative or, when ``positive``, zero.
    """
    if signed:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    elif not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {kind}, got {value}")


class LowerParameterPoleError(BetagapError, ZeroDivisionError):
    """A lower series parameter hits a pole before the series terminates."""


class CancellationError(BetagapError, ArithmeticError):
    """Catastrophic cancellation destroyed the requested accuracy."""


class NonConvergenceError(BetagapError, ArithmeticError):
    """An iterative computation failed to reach its tolerance."""


class ResourceLimitError(BetagapError, RuntimeError):
    """A computation exceeded an explicit size or depth limit."""


class QuadratureError(BetagapError, ArithmeticError):
    """A quadrature rule failed its internal consistency check."""
