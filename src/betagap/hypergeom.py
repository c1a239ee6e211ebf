"""Hypergeometric series of Jack-polynomial argument.

The series ``pFq``, summed over partitions ``kappa`` with generalized
Pochhammer ratios and ``C_kappa`` evaluations, is accumulated layer by
layer in weight.  Every term is carried both as a compensated float and
as ``(sign, log-magnitude)``; the log accumulators keep results usable
far outside float range, which matters because the finite-size gap
formulas multiply series values like ``exp(+1900)`` against prefactors
like ``exp(-1920)``.

``C_kappa(x)`` comes from the closed-form identity evaluation when the
argument has one distinct nonzero value, and otherwise from one
:class:`~betagap.jack.JackTable` per series, extended a weight layer at
a time as the sum goes deeper.  Neither path calls the Schur or
monomial evaluators, which remain as test oracles in :mod:`betagap.jack`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CancellationError,
    LowerParameterPoleError,
    NonConvergenceError,
)
from .jack import JackTable, jack_C_eval_signlog
from .partitions import gen_pochhammer_signlog, partitions_of_weight

__all__ = [
    "ArgBlocks",
    "HypergeomSpec",
    "SeriesResult",
    "pFq_alpha",
    "F01_repeated",
    "confluence_check",
    "DEFAULT_MAX_WEIGHT",
    "CONDITION_LIMIT",
]

#: Default weight ceiling for series truncation.
DEFAULT_MAX_WEIGHT = 200

#: Ratio of summed magnitudes to result magnitude beyond which a
#: sign-mixing series is declared numerically lost.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class ArgBlocks:
    """Series argument as value/multiplicity blocks.

    Blocks are canonicalized on construction — equal values merged,
    sorted by value then multiplicity — so argument lists that differ
    only by ordering produce bit-identical results.
    """

    blocks: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        merged: dict[float, int] = {}
        for value, mult in self.blocks:
            if mult < 0:
                raise ValueError(f"block multiplicity must be nonnegative, got {mult}")
            if mult == 0:
                continue
            merged[float(value)] = merged.get(float(value), 0) + int(mult)
        canonical = tuple(sorted(merged.items()))
        object.__setattr__(self, "blocks", canonical)

    @classmethod
    def from_values(cls, values) -> ArgBlocks:
        """Build blocks from a flat iterable of argument values."""
        return cls(tuple((float(v), 1) for v in values))

    @property
    def num_variables(self) -> int:
        """Total number of series variables."""
        return sum(mult for _, mult in self.blocks)

    def expanded(self) -> tuple[float, ...]:
        """Flat tuple of values, each repeated by its multiplicity."""
        out: list[float] = []
        for value, mult in self.blocks:
            out.extend([value] * mult)
        return tuple(out)


@dataclass(frozen=True)
class HypergeomSpec:
    """Parameters and argument of one ``pFq`` evaluation."""

    upper: tuple[float, ...]
    lower: tuple[float, ...]
    alpha: float
    args: ArgBlocks

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        object.__setattr__(self, "upper", tuple(float(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(float(b) for b in self.lower))


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a truncated series evaluation.

    ``value`` is the compensated float sum (it saturates to ``inf`` or
    ``0.0`` outside float range) while ``sign`` and ``log_value`` stay
    meaningful at any magnitude.  ``tail_estimate`` is the magnitude of
    the last weight layer, zero for exactly terminated series.
    """

    value: float
    log_value: float
    sign: int
    max_weight_used: int
    tail_estimate: float
    terminated_exactly: bool
    term_count: int


def _termination_cap(upper: tuple[float, ...]) -> int | None:
    """Largest first-row part before a nonpositive-integer upper
    parameter annihilates every term, or None when the series is
    infinite."""
    cap = None
    for a in upper:
        if a <= 0 and a == round(a):
            this_cap = int(-a)
            cap = this_cap if cap is None else min(cap, this_cap)
    return cap


def pFq_alpha(
    spec: HypergeomSpec,
    tol: float = 1e-12,
    max_weight: int | None = None,
) -> SeriesResult:
    """Sum a Jack-argument hypergeometric series by weight layers.

    Terms are grouped by partition weight.  The sum stops when three
    consecutive layers each fall below ``tol`` times the accumulated
    magnitude, or exactly when a nonpositive-integer upper parameter
    empties the admissible partition box.

    Parameters
    ----------
    spec : HypergeomSpec
        Parameters, deformation ``alpha``, and argument blocks.
    tol : float
        Relative layer tolerance for the stopping rule.
    max_weight : int, optional
        Weight ceiling (default ``DEFAULT_MAX_WEIGHT``).

    Returns
    -------
    SeriesResult

    Raises
    ------
    LowerParameterPoleError
        If a lower-parameter Pochhammer vanishes on a contributing term.
    CancellationError
        If sign-mixing terms exceed ``CONDITION_LIMIT`` times the result.
    NonConvergenceError
        If the stopping rule is not met by ``max_weight``.
    """
    if max_weight is None:
        max_weight = DEFAULT_MAX_WEIGHT
    m = spec.args.num_variables
    xs = spec.args.expanded()
    cap = _termination_cap(spec.upper)
    distinct = {value for value, _ in spec.args.blocks if value != 0.0}
    table = JackTable(xs, spec.alpha) if len(distinct) > 1 else None

    log_pos = -math.inf
    log_neg = -math.inf
    log_abs_total = -math.inf
    float_sum = 0.0
    float_comp = 0.0
    float_dead = False
    term_count = 0
    small_layers = 0
    last_layer = -math.inf
    terminated_exactly = False
    weight_used = 0

    k = 0
    while True:
        if cap is not None and k > cap * m:
            terminated_exactly = True
            break
        if k > max_weight:
            raise NonConvergenceError(
                f"series not converged by weight {max_weight} "
                f"(last layer magnitude {math.exp(min(last_layer, 700.0)):.3e})"
            )

        layer_log = -math.inf
        layer_nonempty = False
        if table is not None:
            jack_values, jack_logs, jack_sign = table.layer(k)
        for position, kappa in enumerate(partitions_of_weight(k, m)):
            if cap is not None and kappa and kappa[0] > cap:
                continue
            layer_nonempty = True
            sign = 1
            log_mag = -math.lgamma(k + 1)
            zero_term = False
            for a in spec.upper:
                s_a, l_a = gen_pochhammer_signlog(a, kappa, spec.alpha)
                if s_a == 0:
                    zero_term = True
                    break
                sign *= s_a
                log_mag += l_a
            if zero_term:
                continue
            for b in spec.lower:
                s_b, l_b = gen_pochhammer_signlog(b, kappa, spec.alpha)
                if s_b == 0:
                    raise LowerParameterPoleError(
                        f"lower parameter {b} has a pole at partition {kappa}"
                    )
                sign *= s_b
                log_mag -= l_b
            if table is None:
                s_c, l_c = jack_C_eval_signlog(kappa, xs, spec.alpha)
                if s_c == 0:
                    continue
                sign *= s_c
                log_mag += l_c
            else:
                c_value = jack_values[position]
                if c_value == 0.0:
                    continue
                sign *= jack_sign if c_value > 0.0 else -jack_sign
                log_mag += math.log(abs(c_value)) + jack_logs[position]

            term_count += 1
            log_abs_total = np.logaddexp(log_abs_total, log_mag)
            layer_log = np.logaddexp(layer_log, log_mag)
            if sign > 0:
                log_pos = np.logaddexp(log_pos, log_mag)
            else:
                log_neg = np.logaddexp(log_neg, log_mag)
            if not float_dead:
                if log_mag >= 709.0:
                    float_dead = True
                else:
                    term = sign * math.exp(log_mag)
                    fresh = float_sum + term
                    if abs(float_sum) >= abs(term):
                        float_comp += (float_sum - fresh) + term
                    else:
                        float_comp += (term - fresh) + float_sum
                    float_sum = fresh

        if k == 0 and not layer_nonempty:
            # no admissible partitions at all (cannot happen for k=0)
            break
        if k > 0 and not layer_nonempty:
            terminated_exactly = True
            break

        weight_used = k
        last_layer = layer_log
        log_s, _ = _signed_log_diff(log_pos, log_neg)
        if k > 0 and log_s > -math.inf and layer_log < math.log(tol) + log_s:
            small_layers += 1
            if small_layers >= 3:
                break
        else:
            small_layers = 0
        k += 1

    log_s, sign_s = _signed_log_diff(log_pos, log_neg)

    if log_neg > -math.inf:
        # log_s == -inf means the positive and negative totals agree to the
        # last bit — cancellation beyond float resolution, not a true zero.
        excess = math.inf if log_s == -math.inf else log_abs_total - log_s
        if excess > math.log(CONDITION_LIMIT):
            raise CancellationError(
                f"series lost to cancellation: summed magnitude exceeds "
                f"result by exp({excess:.1f})"
            )

    if not float_dead and abs(log_s) < 700.0 and math.isfinite(float_sum):
        value = float_sum + float_comp
    elif log_s == -math.inf:
        value = 0.0
    else:
        value = sign_s * math.exp(log_s) if log_s < 709.0 else sign_s * math.inf

    tail = 0.0 if terminated_exactly else math.exp(min(last_layer, 709.0))
    return SeriesResult(
        value=value,
        log_value=log_s,
        sign=sign_s,
        max_weight_used=weight_used,
        tail_estimate=tail,
        terminated_exactly=terminated_exactly,
        term_count=term_count,
    )


def _signed_log_diff(log_pos: float, log_neg: float) -> tuple[float, int]:
    """Log-magnitude and sign of ``exp(log_pos) - exp(log_neg)``."""
    if log_pos == log_neg:
        return -math.inf, 1
    hi, lo = max(log_pos, log_neg), min(log_pos, log_neg)
    log_mag = hi + math.log1p(-math.exp(lo - hi)) if lo > -math.inf else hi
    return log_mag, 1 if log_pos > log_neg else -1


def F01_repeated(
    c: float,
    t: float,
    m: int,
    alpha: float,
    tol: float = 1e-12,
    max_weight: int | None = None,
) -> SeriesResult:
    """``0F1`` with lower parameter ``c`` and ``m`` repeated arguments ``t``.

    Parameters
    ----------
    c : float
        Lower parameter.
    t : float
        Common argument value.
    m : int
        Number of repeated arguments.
    alpha : float
        Positive deformation parameter.
    tol, max_weight
        Forwarded to :func:`pFq_alpha`.

    Returns
    -------
    SeriesResult
    """
    spec = HypergeomSpec(upper=(), lower=(c,), alpha=alpha, args=ArgBlocks(((t, m),)))
    return pFq_alpha(spec, tol=tol, max_weight=max_weight)


def confluence_check(
    c: float,
    t: float,
    m: int,
    alpha: float,
    b: float = 256.0,
    tol: float = 1e-12,
    max_weight: int | None = None,
) -> float:
    """Relative gap between ``1F1(b; c; t/b)`` and ``0F1(c; t)``.

    The confluent limit sends the extra upper parameter to infinity
    while shrinking the argument, so the gap decays like ``1/b``; it is
    returned for the caller to judge.
    """
    limit = F01_repeated(c, t, m, alpha, tol=tol, max_weight=max_weight)
    spec = HypergeomSpec(
        upper=(b,), lower=(c,), alpha=alpha, args=ArgBlocks(((t / b, m),))
    )
    shifted = pFq_alpha(spec, tol=tol, max_weight=max_weight)
    return abs(shifted.value - limit.value) / abs(limit.value)
