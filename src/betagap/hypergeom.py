"""Hypergeometric series of Jack-polynomial argument.

The series ``pFq``, summed over partitions ``kappa`` with generalized
Pochhammer ratios and ``C_kappa`` evaluations, is accumulated layer by
layer in weight, each layer as whole arrays over its partitions.  A
layer enters both a compensated float total, as its correctly rounded
sum, and log accumulators, as log-sum-exps of its positive and negative
terms; the log accumulators keep results usable far outside float
range, which matters because the finite-size gap formulas multiply
series values like ``exp(+1900)`` against prefactors like
``exp(-1920)``.

The argument-free part of each term (the Pochhammer ratio, ``1/k!`` and,
when the argument has one distinct nonzero value, ``C_kappa(1, ..., 1)``)
is built once per parameter set, ``alpha`` and number of variables, and
cached a layer at a time, so every node of one quadrature and every
``s`` of a sweep share it (the Koev–Edelman economy).  Only the argument
is applied per call: ``t**|kappa|`` for one distinct value ``t``, and
otherwise one :class:`~betagap.jack.JackTable` per series, extended a
weight layer at a time as the sum goes deeper.  The series calls neither
the one-partition forms of :mod:`betagap.partitions` nor the Schur and
monomial evaluators; those remain as the public single-term API and the
test oracles.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CancellationError,
    LowerParameterPoleError,
    NonConvergenceError,
)
from .jack import JackTable, _hook_log_sums, _subtract_hook_runs
from .partitions import partitions_of_weight

# bench/tracing.py replaces partitions_of_weight and these two names on
# this module to count and time them, so they stay module attributes here
# although the series does not call these one-partition forms (they are
# the public single-term API and the test oracles of the layers).
from .jack import jack_C_eval_signlog  # noqa: F401
from .partitions import gen_pochhammer_signlog  # noqa: F401

__all__ = [
    "ArgBlocks",
    "HypergeomSpec",
    "SeriesResult",
    "pFq_alpha",
    "F01_repeated",
    "confluence_check",
    "DEFAULT_MAX_WEIGHT",
    "CONDITION_LIMIT",
    "MAX_COEFFICIENT_ENTRIES",
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
    the last weight layer relative to the value, ``exp(last_layer -
    log_value)``, zero for exactly terminated series.
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


#: Most coefficient entries kept at once.  An entry holds 17 bytes per
#: partition it has reached (a log, a row number and a sign flag), about a
#: fifth of what ``partitions_of_weight`` already caches for the same
#: layers: 4 MB for 3 variables to weight 200.  The 31 entries of the
#: benchmark's ``E(0)`` series take 0.44 MB together, tables included.
MAX_COEFFICIENT_ENTRIES = 64


@dataclass(frozen=True, slots=True)
class _CoefficientLayer:
    """The argument-free factors of the terms of one weight layer.

    ``nonempty`` says whether the layer has a partition inside the
    termination box; ``pole`` is the message of the first lower-parameter
    pole among its terms, if any.  Otherwise ``rows`` numbers the terms
    whose upper Pochhammer symbols do not vanish (and, on the identity
    path, whose ``C_kappa`` does not), in the order of
    ``partitions_of_weight(k, parts)``, and ``log_coef`` and ``negative``
    give each one's log-magnitude and sign.
    """

    nonempty: bool
    pole: str | None
    rows: np.ndarray
    log_coef: np.ndarray
    negative: np.ndarray


def _pochhammer_tables(
    x: float, alpha: float, parts: int, top: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row cumulative tables of ``[x]_kappa``.

    Row ``i`` holds, over the first ``n`` factors ``x - i/alpha + t`` of
    its rising factorial, the sum of ``log|factor|``, the number of
    negative factors and the number of zero factors, for ``n = 0..top``.
    A zero factor adds 0 to the log sum; its count marks the symbol zero.
    """
    factors = (x - np.arange(parts)[:, None] / alpha) + np.arange(top)[None, :]
    zero = factors == 0.0
    logs = np.zeros((parts, top + 1))
    np.cumsum(np.log(np.abs(np.where(zero, 1.0, factors))), axis=1, out=logs[:, 1:])
    negatives = np.zeros((parts, top + 1), dtype=np.int64)
    np.cumsum(factors < 0.0, axis=1, out=negatives[:, 1:])
    zeros = np.zeros((parts, top + 1), dtype=np.int64)
    np.cumsum(zero, axis=1, out=zeros[:, 1:])
    return logs, negatives, zeros


def _content_log_sums(alpha: float, n: int, rows: int, top: int) -> np.ndarray:
    """``S[i, c] = sum_{j<c} log(n - i + alpha j)``: the contents of the
    first ``c`` cells of row ``i`` in ``C_kappa`` at ``n`` ones."""
    contents = (n - np.arange(rows))[:, None] + alpha * np.arange(top)[None, :]
    table = np.zeros((rows, top + 1))
    np.cumsum(np.log(contents), axis=1, out=table[:, 1:])
    return table


class _Coefficients:
    """The argument-free part of every term of a series, layer by layer.

    A term is ``prod_a [a]_kappa / prod_b [b]_kappa * C_kappa(x) / k!``.
    Everything but ``C_kappa(x)`` depends only on the parameters,
    ``alpha`` and the number of variables ``parts``; when the argument is
    ``t`` repeated ``identity`` times (zeros aside), ``C_kappa(x) =
    t**k C_kappa(1, ..., 1)`` and the coefficient takes
    ``C_kappa(1, ..., 1)`` too, leaving ``t**k`` to the caller.  Its
    ``k!`` cancels the series' ``1 / k!``:

        C_kappa(1^n) / k! = alpha**k prod_cells (n - (i-1) + alpha (j-1))
                            / (upper * lower hook products).

    Pochhammer symbols, hooks and contents come from per-row cumulative
    tables indexed by the parts of a padded partition matrix, never a
    loop over cells.  A table row extends its sum one box at a time, so a
    layer reads the same floats however far the tables were built.
    Layers are built on first use, with every layer below them, under a
    lock, so threads may share one entry.
    """

    def __init__(
        self,
        upper: tuple[float, ...],
        lower: tuple[float, ...],
        alpha: float,
        parts: int,
        identity: int | None,
    ) -> None:
        self.upper = upper
        self.lower = lower
        self.alpha = alpha
        self.parts = parts
        self.identity = identity
        self.cap = _termination_cap(upper)
        self.layers: list[_CoefficientLayer] = []
        self._top = -1
        self._lock = threading.Lock()

    def layer(self, k: int) -> _CoefficientLayer:
        """Layer ``k``, built (with every layer below it) on first use."""
        if k >= len(self.layers):
            with self._lock:
                while len(self.layers) <= k:
                    self._build(len(self.layers))
        return self.layers[k]

    def _grow(self, k: int) -> None:
        self._top = top = max(2 * self._top, k, 16)
        alpha, parts = self.alpha, self.parts
        self._upper = [_pochhammer_tables(a, alpha, parts, top) for a in self.upper]
        self._lower = [_pochhammer_tables(b, alpha, parts, top) for b in self.lower]
        if self.identity is not None:
            self._upper_hooks = _hook_log_sums(alpha, parts - 1, top, upper=True)
            self._lower_hooks = _hook_log_sums(alpha, parts - 1, top)
            rows = min(parts, self.identity)
            self._contents = _content_log_sums(alpha, self.identity, rows, top)

    def _build(self, k: int) -> None:
        if k > self._top:
            self._grow(k)
        kappas = partitions_of_weight(k, self.parts)
        padded = np.zeros((len(kappas), self.parts + 1), dtype=np.intp)
        for row, kappa in enumerate(kappas):
            padded[row, : len(kappa)] = kappa
        rows = np.arange(len(kappas))
        if self.cap is not None:
            rows = rows[padded[:, 0] <= self.cap]
            padded = padded[rows]
        if self.identity is None:
            log_coef = np.full(len(rows), -math.lgamma(k + 1))
        else:
            log_coef = np.full(len(rows), k * math.log(self.alpha))
        negatives = np.zeros(len(rows), dtype=np.int64)
        upper_zero = np.zeros(len(rows), dtype=bool)
        cells = np.arange(self.parts), padded[:, : self.parts]
        for logs, negs, zeros in self._upper:
            log_coef += logs[cells].sum(axis=1)
            negatives += negs[cells].sum(axis=1)
            upper_zero |= zeros[cells].any(axis=1)
        lower_zero = []
        for logs, negs, zeros in self._lower:
            log_coef -= logs[cells].sum(axis=1)
            negatives += negs[cells].sum(axis=1)
            lower_zero.append(zeros[cells].any(axis=1))
        live = ~upper_zero
        poles = np.flatnonzero(np.any(lower_zero, axis=0) & live) if lower_zero else []
        if len(poles):
            b = next(b for b, zero in zip(self.lower, lower_zero) if zero[poles[0]])
            message = f"lower parameter {b} has a pole at partition {kappas[rows[poles[0]]]}"
            no_terms = rows[:0], np.zeros(0), np.zeros(0, dtype=bool)
            self.layers.append(_CoefficientLayer(True, message, *no_terms))
            return
        if self.identity is not None:
            if self.identity < self.parts:
                live &= padded[:, self.identity] == 0
            _subtract_hook_runs(log_coef, self._upper_hooks, padded)
            _subtract_hook_runs(log_coef, self._lower_hooks, padded)
            rows_n = self._contents.shape[0]
            log_coef += self._contents[np.arange(rows_n), padded[:, :rows_n]].sum(axis=1)
        arrays = rows[live], log_coef[live], negatives[live] % 2 == 1
        for array in arrays:  # shared by every caller of the cached entry
            array.flags.writeable = False
        self.layers.append(_CoefficientLayer(len(rows) > 0, None, *arrays))


@lru_cache(maxsize=MAX_COEFFICIENT_ENTRIES)
def _coefficients(
    upper: tuple[float, ...],
    lower: tuple[float, ...],
    alpha: float,
    parts: int,
    identity: int | None,
) -> _Coefficients:
    """The coefficient layers of one parameter set, shared by every argument."""
    return _Coefficients(upper, lower, alpha, parts, identity)


def _log_add(a: float, b: float) -> float:
    """``log(exp(a) + exp(b))``."""
    if a < b:
        a, b = b, a
    return a if b == -math.inf else a + math.log1p(math.exp(b - a))


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

    Each layer is whole-array arithmetic: the cached argument-free
    coefficients of its terms plus ``k log|t|`` (one distinct nonzero
    argument value ``t``) or the layer of a :class:`JackTable`, then one
    log-sum-exp per accumulator and a correctly rounded float sum.

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
    nonzero = [(value, mult) for value, mult in spec.args.blocks if value != 0.0]
    if len(nonzero) > 1:
        table = JackTable(spec.args.expanded(), spec.alpha)
        identity = None
    else:
        table = None
        identity = sum(mult for _, mult in nonzero)
        log_t = math.log(abs(nonzero[0][0])) if nonzero else 0.0
        t_negative = bool(nonzero) and nonzero[0][0] < 0.0
    coefficients = _coefficients(spec.upper, spec.lower, spec.alpha, m, identity)
    cap = coefficients.cap

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

        layer = coefficients.layer(k)
        if layer.pole is not None:
            raise LowerParameterPoleError(layer.pole)
        if not layer.nonempty:
            terminated_exactly = k > 0
            break
        log_mag, negative = layer.log_coef, layer.negative
        if table is None:
            if k:
                log_mag = log_mag + k * log_t
                if t_negative and k % 2:
                    negative = ~negative
        else:
            jack_values, jack_logs, jack_sign = table.layer(k)
            rows = layer.rows
            c_values = jack_values[rows]
            if not c_values.all():
                live = c_values != 0.0
                rows, c_values = rows[live], c_values[live]
                log_mag, negative = log_mag[live], negative[live]
            log_mag = log_mag + np.log(np.abs(c_values)) + jack_logs[rows]
            negative = negative ^ ((c_values < 0.0) if jack_sign > 0 else (c_values > 0.0))

        layer_log = -math.inf
        if log_mag.size:
            term_count += log_mag.size
            # log-sum-exp of the layer, of its positive and of its negative
            # terms, shifted by the largest term only outside +-600
            top = float(log_mag.max())
            shift = 0.0 if -600.0 < top < 600.0 else top
            weights = np.exp(log_mag - shift) if shift else np.exp(log_mag)
            pos, neg = np.bincount(negative, weights=weights, minlength=2).tolist()
            layer_log = shift + math.log(pos + neg)
            log_abs_total = _log_add(log_abs_total, layer_log)
            if pos:
                log_pos = _log_add(log_pos, shift + math.log(pos))
            if neg:
                log_neg = _log_add(log_neg, shift + math.log(neg))
            if top >= 709.0:
                float_dead = True
            if not float_dead:
                terms = np.exp(log_mag) if shift else weights
                try:
                    term = math.fsum(np.where(negative, -terms, terms).tolist())
                except OverflowError:
                    float_dead = True
                else:
                    fresh = float_sum + term
                    if abs(float_sum) >= abs(term):
                        float_comp += (float_sum - fresh) + term
                    else:
                        float_comp += (term - fresh) + float_sum
                    float_sum = fresh

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

    # relative: the last layer against the value, not its bare magnitude
    tail = 0.0 if terminated_exactly else math.exp(min(last_layer - log_s, 709.0))
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
