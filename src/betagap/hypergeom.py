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
is applied per series: ``t**|kappa|`` for one distinct value ``t``; the
series' node of a :class:`~betagap.jack.JackPairTable` for two distinct
values of one sign, whose polynomials in the ratio of the two values
are cached per ``alpha`` and multiplicities in the same way; otherwise
its node of a batched :class:`~betagap.jack.JackTable`.  Both tables
are extended a weight layer at a time as the sum goes deeper.  A
:class:`RatioIntegral` argument, the two-value argument integrated over
the ratio of its values, is the one node of a
:class:`~betagap.jack.JackPairIntegral` on the same path.  A batch
(the nodes of one quadrature level) sums its series together, one layer
for all of them at a time, each with its own accumulators and stopping
rule; a single series is a batch of one row, on the same path.  The
series calls no one-partition form; the reference evaluators that tests
check its layers against live in ``tests/oracles.py``.
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
from .jack import (
    JackPairIntegral,
    JackPairTable,
    JackTable,
    _hook_log_sums,
    _subtract_hook_runs,
    batch_nodes,
)
from .partitions import partitions_of_weight

# Nothing here calls these two one-partition forms.  They stay module
# attributes only because bench/tracing.py wraps them by name here (with
# partitions_of_weight), until the benchmark drops those dead counters.
from .jack import jack_C_eval_signlog  # noqa: F401
from .partitions import gen_pochhammer_signlog  # noqa: F401

__all__ = [
    "ArgBlocks",
    "RatioIntegral",
    "HypergeomSpec",
    "SeriesResult",
    "SeriesBatch",
    "pFq_alpha",
    "DEFAULT_MAX_WEIGHT",
    "CONDITION_LIMIT",
    "MAX_COEFFICIENT_ENTRIES",
]

#: Default weight ceiling for series truncation.
DEFAULT_MAX_WEIGHT = 200

#: Ratio of summed magnitudes to result magnitude beyond which a
#: sign-mixing series is declared numerically lost.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True, slots=True)
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

    def expanded(self) -> tuple[float, ...]:
        """Flat tuple of values, each repeated by its multiplicity."""
        out: list[float] = []
        for value, mult in self.blocks:
            out.extend([value] * mult)
        return tuple(out)


@dataclass(frozen=True, slots=True)
class RatioIntegral:
    """Series argument ``u`` repeated ``p`` times and ``u r`` ``q`` times,
    integrated over ``0 < r < 1`` against ``(1 - r)**power exp(rate r)``.

    The series of this argument is ``int_0^1 pFq(u 1^p, u r 1^q) (1 -
    r)**power exp(rate r) dr``, summed term by term exactly
    (:class:`~betagap.jack.JackPairIntegral`): the ``E(1)`` integral over
    the conditioned eigenvalue, with no quadrature nodes.
    """

    u: float
    p: int
    q: int
    power: int
    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.u) and self.u != 0.0):
            raise ValueError(f"u must be finite and nonzero, got {self.u}")
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise ValueError(f"rate must be finite and nonnegative, got {self.rate}")
        for name, least in (("p", 0), ("q", 1), ("power", 0)):
            value = getattr(self, name)
            if not (value >= least and float(value).is_integer()):
                raise ValueError(f"{name} must be an integer of at least {least}, got {value}")
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "u", float(self.u))
        object.__setattr__(self, "rate", float(self.rate))


@dataclass(frozen=True, slots=True)
class HypergeomSpec:
    """Parameters and argument of one ``pFq`` evaluation, or of a batch.

    ``args`` is one :class:`ArgBlocks`, one :class:`RatioIntegral`, or a
    batch: an array of argument values with one row per series, stored
    read-only.  The series of a batch share everything but their
    argument.  A row reads as :meth:`ArgBlocks.from_values` of its values
    would, and one :class:`ArgBlocks` is summed as the one row of its
    expanded values.
    """

    upper: tuple[float, ...]
    lower: tuple[float, ...]
    alpha: float
    args: ArgBlocks | RatioIntegral | np.ndarray

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not isinstance(self.args, (ArgBlocks, RatioIntegral)):
            points = np.array(self.args, dtype=float)
            if points.ndim != 2 or not points.size:
                raise ValueError(f"a batch needs rows of argument values, got shape {points.shape}")
            points.flags.writeable = False
            object.__setattr__(self, "args", points)
        object.__setattr__(self, "upper", tuple(float(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(float(b) for b in self.lower))


@dataclass(frozen=True, slots=True)
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


class SeriesBatch(tuple):
    """Outcomes of the series of a batch: one :class:`SeriesResult` per
    argument row, in row order.

    ``term_count`` totals and ``max_weight_used`` bounds the members, so
    that a batch answers those two as one series would.
    """

    __slots__ = ()

    @property
    def term_count(self) -> int:
        """Terms summed over every member."""
        return sum(result.term_count for result in self)

    @property
    def max_weight_used(self) -> int:
        """The deepest weight any member summed."""
        return max(result.max_weight_used for result in self)


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


#: Most coefficient entries kept at once.  An entry holds 25 bytes per
#: partition it has reached (a log, a row number, a sign flag and a sign
#: factor), about a third of what ``partitions_of_weight`` already caches
#: for the same layers: 6 MB for 3 variables to weight 200.
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
    give each one's log-magnitude and sign, ``signs`` the sign as a factor
    of 1 or -1, and ``top`` the largest ``log_coef`` (``-inf`` if none).
    """

    nonempty: bool
    pole: str | None
    rows: np.ndarray
    log_coef: np.ndarray
    negative: np.ndarray
    signs: np.ndarray
    top: float


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
            no_terms = rows[:0], np.zeros(0), np.zeros(0, dtype=bool), np.zeros(0)
            self.layers.append(_CoefficientLayer(True, message, *no_terms, -math.inf))
            return
        if self.identity is not None:
            if self.identity < self.parts:
                live &= padded[:, self.identity] == 0
            _subtract_hook_runs(log_coef, self._upper_hooks, padded)
            _subtract_hook_runs(log_coef, self._lower_hooks, padded)
            rows_n = self._contents.shape[0]
            log_coef += self._contents[np.arange(rows_n), padded[:, :rows_n]].sum(axis=1)
        negative = negatives[live] % 2 == 1
        arrays = rows[live], log_coef[live], negative, np.where(negative, -1.0, 1.0)
        for array in arrays:  # shared by every caller of the cached entry
            array.flags.writeable = False
        top = float(arrays[1].max()) if arrays[1].size else -math.inf
        self.layers.append(_CoefficientLayer(len(rows) > 0, None, *arrays, top))


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


class _Running:
    """The accumulators of one member's series while it runs."""

    __slots__ = (
        "log_pos", "log_neg", "log_abs_total", "float_sum", "float_comp",
        "float_dead", "term_count", "small_layers", "last_layer", "weight_used",
        "terminated_exactly",
    )

    def __init__(self) -> None:
        self.log_pos = -math.inf
        self.log_neg = -math.inf
        self.log_abs_total = -math.inf
        self.float_sum = 0.0
        self.float_comp = 0.0
        self.float_dead = False
        self.term_count = 0
        self.small_layers = 0
        self.last_layer = -math.inf
        self.weight_used = 0
        self.terminated_exactly = False

    def outcome(self) -> SeriesResult:
        """The member's :class:`SeriesResult`; raises ``CancellationError``
        if the series is lost."""
        log_s, sign_s = _signed_log_diff(self.log_pos, self.log_neg)
        if self.log_neg > -math.inf:
            # log_s == -inf means the positive and negative totals agree to
            # the last bit — cancellation beyond float resolution, not a zero.
            excess = math.inf if log_s == -math.inf else self.log_abs_total - log_s
            if excess > math.log(CONDITION_LIMIT):
                raise CancellationError(
                    f"series lost to cancellation: summed magnitude exceeds "
                    f"result by exp({excess:.1f})"
                )
        float_sum = self.float_sum
        if not self.float_dead and abs(log_s) < 700.0 and math.isfinite(float_sum):
            value = float_sum + self.float_comp
        elif log_s == -math.inf:
            value = 0.0
        else:
            value = sign_s * math.exp(log_s) if log_s < 709.0 else sign_s * math.inf
        # relative: the last layer against the value, not its bare magnitude
        if self.terminated_exactly:
            tail = 0.0
        else:
            tail = math.exp(min(self.last_layer - log_s, 709.0))
        return SeriesResult(
            value, log_s, sign_s, self.weight_used, tail, self.terminated_exactly,
            self.term_count,
        )


def _layer_terms(
    layer: _CoefficientLayer,
    k: int,
    table: JackTable | JackPairTable | JackPairIntegral | None,
    log_t: list[float],
    t_negative: list[bool],
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, list[float], list[int] | None]:
    """Layer ``k``'s terms, one row per running member.

    Returns their log-magnitudes and sign flags, their sign factors (None
    on the table path), each row's largest log-magnitude, and each row's
    number of nonzero terms (None: all of them).  On the identity path a
    member's terms are the coefficients plus ``k log|t|``, so the largest
    is the coefficients' largest plus the same (addition is monotone); on
    the table path they take the table's Jack values, and a vanishing
    value leaves a term of log-magnitude ``-inf``.
    """
    if table is None:
        if len(log_t) == 1:  # scalar arithmetic, as cheap as a lone series
            shift = k * log_t[0]
            log_mag = (layer.log_coef + shift)[None]
            if t_negative[0] and k % 2:
                return log_mag, ~layer.negative[None], -layer.signs[None], [layer.top + shift], None
            return log_mag, layer.negative[None], layer.signs[None], [layer.top + shift], None
        shift = k * np.array(log_t)
        flip = np.array(t_negative) & bool(k % 2)
        return (
            layer.log_coef + shift[:, None],
            layer.negative ^ flip[:, None],
            layer.signs * np.where(flip, -1.0, 1.0)[:, None],
            (layer.top + shift).tolist(),
            None,
        )
    jack_values, jack_logs, jack_signs = table.layer(k)
    rows = layer.rows
    c_values = jack_values[:, rows]
    negative = layer.negative ^ (c_values < 0.0) ^ (jack_signs < 0)[:, None]
    counts = None
    if c_values.all():
        log_mag = layer.log_coef + np.log(np.abs(c_values)) + jack_logs[:, rows]
    else:
        with np.errstate(divide="ignore"):
            log_mag = layer.log_coef + np.log(np.abs(c_values)) + jack_logs[:, rows]
        counts = np.count_nonzero(c_values, axis=1).tolist()
    tops = log_mag.max(axis=1).tolist() if rows.size else []
    return log_mag, negative, None, tops, counts


def _sum_layers(
    coefficients: _Coefficients,
    parts: int,
    members: int,
    table: JackTable | JackPairTable | JackPairIntegral | None,
    log_t: list[float],
    t_negative: list[bool],
    tol: float,
    max_weight: int,
) -> list[SeriesResult]:
    """Sum the series of one group of ``members`` layer by layer, and
    return each one's outcome (:meth:`_Running.outcome`).

    The members share ``coefficients``; row ``i`` of ``table`` (table
    path) or ``log_t[i]`` and ``t_negative[i]`` (identity path: ``log|t|``
    and the sign of ``t``) is member ``i``'s argument.  Each layer's terms
    are computed for every running member at once; each member keeps its
    own accumulators and stopping rule and leaves the group when it stops.
    """
    cap = coefficients.cap
    log_tol = math.log(tol)
    running = [_Running() for _ in range(members)]
    order = list(range(len(running)))  # member number of each running row
    done: dict[int, SeriesResult] = {}

    k = 0
    while running:
        if cap is not None and k > cap * parts:
            for state in running:
                state.terminated_exactly = True
            break
        if k > max_weight:
            last_layer = running[0].last_layer
            raise NonConvergenceError(
                f"series not converged by weight {max_weight} "
                f"(last layer magnitude {math.exp(min(last_layer, 700.0)):.3e})"
            )

        layer = coefficients.layer(k)
        if layer.pole is not None:
            raise LowerParameterPoleError(layer.pole)
        if not layer.nonempty:
            for state in running:
                state.terminated_exactly = k > 0
            break
        log_mag, negative, signs, tops, counts = _layer_terms(layer, k, table, log_t, t_negative)
        size = log_mag.shape[1]
        if size:
            # log-sum-exp of each row, of its positive and of its negative
            # terms, shifted by the row's largest term only outside +-600
            shifts = [0.0 if -600.0 < top < 600.0 or top == -math.inf else top for top in tops]
            if any(shifts):
                weights = np.exp(log_mag - np.array(shifts)[:, None])
            else:
                weights = np.exp(log_mag)
            width = len(running)
            bins = negative if width == 1 else negative + 2 * np.arange(width)[:, None]
            sums = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=2 * width)
            sums = sums.tolist()
            signed = None
        stopped = []
        for row, state in enumerate(running):
            count = size if counts is None else counts[row]
            layer_log = -math.inf
            if count:
                state.term_count += count
                top, shift = tops[row], shifts[row]
                pos, neg = sums[2 * row], sums[2 * row + 1]
                layer_log = shift + math.log(pos + neg)
                state.log_abs_total = _log_add(state.log_abs_total, layer_log)
                if pos:
                    state.log_pos = _log_add(state.log_pos, shift + math.log(pos))
                if neg:
                    state.log_neg = _log_add(state.log_neg, shift + math.log(neg))
                if top >= 709.0:
                    state.float_dead = True
                if not state.float_dead:
                    if shift:
                        terms = np.exp(log_mag[row])
                        terms = np.where(negative[row], -terms, terms).tolist()
                    else:
                        if signed is None:
                            if signs is None:
                                signed = np.where(negative, -weights, weights).tolist()
                            else:
                                signed = (weights * signs).tolist()
                        terms = signed[row]
                    try:
                        term = math.fsum(terms)
                    except OverflowError:
                        state.float_dead = True
                    else:
                        total = state.float_sum
                        fresh = total + term
                        if abs(total) >= abs(term):
                            state.float_comp += (total - fresh) + term
                        else:
                            state.float_comp += (term - fresh) + total
                        state.float_sum = fresh

            state.weight_used = k
            state.last_layer = layer_log
            log_s, _ = _signed_log_diff(state.log_pos, state.log_neg)
            if k > 0 and log_s > -math.inf and layer_log < log_tol + log_s:
                state.small_layers += 1
                if state.small_layers >= 3:
                    stopped.append(row)
            else:
                state.small_layers = 0
        if stopped:
            for row in stopped:
                done[order[row]] = running[row].outcome()
            keep = sorted(set(range(len(running))) - set(stopped))
            running = [running[row] for row in keep]
            order = [order[row] for row in keep]
            if table is None:
                log_t = [log_t[row] for row in keep]
                t_negative = [t_negative[row] for row in keep]
            elif running:
                table.keep(np.array(keep))
        k += 1

    for row, state in zip(order, running):
        done[row] = state.outcome()
    return [done[row] for row in range(len(done))]


def pFq_alpha(
    spec: HypergeomSpec,
    tol: float = 1e-12,
    max_weight: int | None = None,
) -> SeriesResult | SeriesBatch:
    """Sum a Jack-argument hypergeometric series by weight layers.

    Terms are grouped by partition weight.  The sum stops when three
    consecutive layers each fall below ``tol`` times the accumulated
    magnitude, or exactly when a nonpositive-integer upper parameter
    empties the admissible partition box.

    Each layer is whole-array arithmetic: the cached argument-free
    coefficients of its terms plus ``k log|t|`` (one distinct nonzero
    argument value ``t``) or the layer of a :class:`JackPairTable` or a
    :class:`JackTable`, then one log-sum-exp per accumulator and a
    correctly rounded float sum.

    One :class:`ArgBlocks` argument is a batch of one row, and one
    :class:`RatioIntegral` a batch of one member whose table is a
    :class:`~betagap.jack.JackPairIntegral` (with the identity-path
    coefficients when ``p = 0``).  A batch sums
    every member's series as it would alone, with the same stopping rule,
    checks and diagnostics, but computes each layer for all of them at
    once (:func:`_batch_groups`): the members with two distinct nonzero
    values of one sign share one two-value table per pair of
    multiplicities, the other members with more than one distinct value
    share batched Jack tables of at most
    :func:`~betagap.jack.batch_nodes` arguments each, and the rest share
    arrays by their number of nonzero values.

    Parameters
    ----------
    spec : HypergeomSpec
        Parameters, deformation ``alpha``, and argument blocks, an
        integrated two-value argument, or a batch of arguments.
    tol : float
        Relative layer tolerance for the stopping rule.
    max_weight : int, optional
        Weight ceiling (default ``DEFAULT_MAX_WEIGHT``).

    Returns
    -------
    SeriesResult or SeriesBatch
        A :class:`SeriesResult` for argument blocks or an integrated
        argument; a :class:`SeriesBatch`, in argument order, for a batch.

    Raises
    ------
    LowerParameterPoleError
        If a lower-parameter Pochhammer vanishes on a contributing term.
    CancellationError
        If sign-mixing terms exceed ``CONDITION_LIMIT`` times the result.
    NonConvergenceError
        If the stopping rule is not met by ``max_weight``.

    In a batch, the first member to fail raises its error.
    """
    if max_weight is None:
        max_weight = DEFAULT_MAX_WEIGHT
    if isinstance(spec.args, RatioIntegral):
        arg = spec.args
        parts = arg.p + arg.q
        identity = arg.q if arg.p == 0 else None
        coefficients = _coefficients(spec.upper, spec.lower, spec.alpha, parts, identity)
        table = JackPairIntegral(arg.u, arg.p, arg.q, arg.power, arg.rate, spec.alpha)
        return _sum_layers(coefficients, parts, 1, table, [], [], tol, max_weight)[0]
    single = isinstance(spec.args, ArgBlocks)
    points = [spec.args.expanded()] if single else spec.args.tolist()
    m = len(points[0])
    results: list[SeriesResult | None] = [None] * len(points)
    for path, numbers, u, t in _batch_groups(points):
        identity = path if isinstance(path, int) else None
        coefficients = _coefficients(spec.upper, spec.lower, spec.alpha, m, identity)
        log_t, t_negative = [], []
        if identity is not None:
            log_t = [math.log(abs(value)) for value in t]
            t_negative = [value < 0.0 for value in t]
        depth = None  # deepest weight a chunk of this call has reached
        while numbers:
            if path is None:
                size = batch_nodes(spec.alpha, m, depth)
                chunk, numbers = numbers[:size], numbers[size:]
                table = JackTable([points[row] for row in chunk], spec.alpha)
            else:
                chunk, numbers, table = numbers, [], None
                if identity is None:
                    table = JackPairTable(u, t, *path, spec.alpha)
            sums = _sum_layers(
                coefficients, m, len(chunk), table, log_t, t_negative, tol, max_weight
            )
            for row, result in zip(chunk, sums):
                results[row] = result
            depth = max(depth or 0, *(result.max_weight_used for result in sums))
    return results[0] if single else SeriesBatch(results)


def _batch_groups(points: list) -> list[tuple]:
    """The rows of a batch by path: ``(path, rows, u, t)``.

    ``path`` is the number of nonzero values for rows whose nonzero
    values all equal ``t`` (the identity path; ``t`` is 1 for a row of
    zeros).  It is ``(p, q)`` for rows of two distinct nonzero values of
    one sign, ``u`` repeated ``p`` times and ``t`` ``q`` times with
    ``|u| > |t|`` (:class:`~betagap.jack.JackPairTable`).  It is None for
    the other rows, with a zero beside other values, values of mixed sign
    or three or more distinct values (:class:`~betagap.jack.JackTable`).
    ``u`` and ``t`` hold one value per row where the path has them.
    """
    mixed: list[int] = []
    by_pair: dict[tuple[int, int], tuple[list, list, list]] = {}
    by_count: dict[int, tuple[list, list, list]] = {}
    for row, values in enumerate(points):
        nonzero = [value for value in values if value != 0.0]
        t = nonzero[0] if nonzero else 1.0
        if any(value != t for value in nonzero):
            distinct = set(nonzero)
            mixed_signs = min(distinct) < 0.0 < max(distinct)
            if len(distinct) > 2 or len(nonzero) < len(values) or mixed_signs:
                mixed.append(row)
                continue
            u, t = sorted(distinct, key=abs, reverse=True)
            rows, us, ts = by_pair.setdefault((values.count(u), values.count(t)), ([], [], []))
            us.append(u)
        else:
            rows, _, ts = by_count.setdefault(len(nonzero), ([], [], []))
        rows.append(row)
        ts.append(t)
    groups = [(None, mixed, [], [])] if mixed else []
    groups += [(pair, *by_pair[pair]) for pair in sorted(by_pair)]
    return groups + [(count, *by_count[count]) for count in sorted(by_count)]


def _signed_log_diff(log_pos: float, log_neg: float) -> tuple[float, int]:
    """Log-magnitude and sign of ``exp(log_pos) - exp(log_neg)``."""
    if log_pos == log_neg:
        return -math.inf, 1
    hi, lo = max(log_pos, log_neg), min(log_pos, log_neg)
    log_mag = hi + math.log1p(-math.exp(lo - hi)) if lo > -math.inf else hi
    return log_mag, 1 if log_pos > log_neg else -1
