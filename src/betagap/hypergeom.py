"""Hypergeometric series of Jack-polynomial argument.

The series ``pFq``, summed over partitions ``kappa`` with generalized
Pochhammer ratios and ``C_kappa`` evaluations, is accumulated layer by
layer in weight, each layer as whole arrays over its partitions.  A
layer enters one compensated float total, with the summed magnitude of
its terms beside it, both times ``2**-E`` for an integer exponent ``E``
(:class:`_Running`).  ``E`` stays 0 while the layers keep inside
``exp(+-600)``; past that a layer comes scaled by its own power of two,
and the total is rescaled exactly.  So results stay usable far outside
float range, which matters because the finite-size gap formulas multiply
series values like ``exp(+1900)`` against prefactors like
``exp(-1920)``.

The argument-free part of each term (the Pochhammer ratio, ``1/k!`` and,
when the argument has one distinct nonzero value, ``C_kappa(1, ..., 1)``)
is built once per parameter set, ``alpha`` and number of variables, and
cached a block of weight layers at a time, so every node of one
quadrature and every ``s`` of a sweep share it (the Koev–Edelman
economy).  A layer comes
from one of two sources, each carrying the coefficient entry it reads,
which sets where the series terminates and meets a pole.  An argument
of at most two distinct nonzero values of one sign, ``u`` repeated
``p`` times and ``u r`` ``q`` times (zeros aside: a zero is no
variable), applies nothing per partition at all: its layer depends on it only
through ``u**k`` and the vector ``w_d = r**d``, so each term's other
factors (its coefficient and, for ``p > 0``, ``C_kappa/P_kappa`` and the
coefficients ``c[d, kappa]`` of ``P_kappa(1^p, r^q)``, from
:func:`~betagap.jack._pair_coefficients`) are summed over the partitions
into ``G+-[k, d]``, one sum per sign of coefficient
(:class:`_Contraction`).  One distinct value ``t`` is the ``p = 0``,
``r = 1`` case over the nonzero variables, whose coefficients hold
``C_kappa(1^q)``.  These sums are cached per parameter set, ``alpha``,
``p`` and ``q``, a layer at a time as a series first reaches it, and a
layer costs each member two dot products of length ``k + 1``.  A
:class:`RatioIntegral` argument, the two-value argument integrated over
``r``, takes the moments of its weight for ``w``.  Any other argument is
its node of a batched :class:`~betagap.jack.JackTable`, extended a
weight layer at a time as the sum goes deeper.  Either source can also
integrate the argument's common scale out (``HypergeomSpec.t_power``),
which divides each layer by one number.  A batch (the nodes of
one quadrature level) sums its series together, one layer for all of
them at a time, each with its own sum and stopping rule
(:meth:`_Running.add`); a single series is a batch of one row, on the
same path.  The series calls no one-partition form; the reference
evaluators that tests check its layers against live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    CancellationError,
    LowerParameterPoleError,
    NonConvergenceError,
    counted,
    require_finite,
)
from .jack import (
    JackTable,
    _hook_log_sums,
    _Layers,
    _pair_coefficients,
    _subtract_hook_runs,
    batch_nodes,
)
from .partitions import partition_array
from .quadrature import ratio_moments

# Nothing here calls these three: two one-partition forms and the tuple
# enumeration.  They stay module attributes only because bench/tracing.py
# wraps them by name here, until the benchmark drops those dead counters.
from .jack import jack_C_eval_signlog  # noqa: F401
from .partitions import gen_pochhammer_signlog  # noqa: F401
from .partitions import partitions_of_weight  # noqa: F401

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

#: Default weight ceiling of a series that does not terminate.
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
    r)**power exp(rate r) dr``, summed term by term exactly: each weight
    layer contracts the cached two-value sums of :class:`_Contraction`
    with the moments of the weight
    (:func:`~betagap.quadrature.ratio_moments`) in place of the powers of
    a node's ``r``.  It is the ``E(1)`` integral over the conditioned
    eigenvalue, with no quadrature nodes.
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
            message = f"{name} must be an integer of at least {least}, got {value}"
            object.__setattr__(self, name, counted(value, message, least))
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
    expanded values.  Every parameter and argument value must be finite,
    and ``alpha`` positive; ``ValueError`` names the field that is not.

    ``t_power``, when given, integrates every argument's common scale
    ``t`` over ``(0, 1)`` against ``t**t_power``: each argument value
    carries ``t``, so layer ``k`` carries ``t**k`` and takes the factor
    ``1 / (k + t_power + 1)`` (:func:`_sum_layers`).  It must be finite
    and nonnegative.
    """

    upper: tuple[float, ...]
    lower: tuple[float, ...]
    alpha: float
    args: ArgBlocks | RatioIntegral | np.ndarray
    t_power: float | None = None

    def __post_init__(self) -> None:
        require_finite("alpha", self.alpha, positive=True)
        if self.t_power is not None:
            require_finite("t_power", self.t_power)
            object.__setattr__(self, "t_power", float(self.t_power))
        for name in ("upper", "lower"):
            values = tuple(float(value) for value in getattr(self, name))
            for value in values:
                require_finite(f"{name} parameter", value, signed=True)
            object.__setattr__(self, name, values)
        if isinstance(self.args, ArgBlocks):
            for value, _ in self.args.blocks:
                require_finite("argument value", value, signed=True)
        elif not isinstance(self.args, RatioIntegral):
            points = np.array(self.args, dtype=float)
            if points.ndim != 2 or not points.size:
                raise ValueError(f"a batch needs rows of argument values, got shape {points.shape}")
            for value in points[~np.isfinite(points)][:1].tolist():  # the first bad one
                require_finite("argument value", value, signed=True)
            points.flags.writeable = False
            object.__setattr__(self, "args", points)


@dataclass(frozen=True, slots=True)
class SeriesResult:
    """Outcome of a truncated series evaluation.

    ``value`` is the compensated float sum (it saturates to ``inf`` or
    ``0.0`` outside float range) while ``sign`` and ``log_value`` stay
    meaningful at any magnitude: the sum is kept as ``total * 2**E``, and
    ``log_value`` is ``E ln 2 + log|total|``, or ``log1p`` of ``total -
    1`` with its compensation where ``E = 0`` and ``total`` lies within
    a factor 2 of 1.  ``tail_estimate`` is the magnitude of the last
    weight layer relative to the value, zero for exactly terminated
    series.
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


#: Most coefficient entries kept at once.  An entry holds 17 bytes per
#: partition it has reached (a log, a row number and a sign flag): 4 MB
#: for 3 variables to weight 200.  The partition arrays it reads
#: (:func:`~betagap.partitions.partition_array`, 32 bytes per partition of
#: at most 3 parts, 7.5 MB for the same layers) are cached once per number
#: of parts, for every entry and the strip tables alike.
MAX_COEFFICIENT_ENTRIES = 64

#: Weight layers a :class:`_Coefficients` entry builds at once.  On the
#: cold pass of the benchmark's ``e0_series`` workload (2-core host),
#: blocks of 4 took about 10% longer than blocks of 8, and 16 no less.
_LAYER_BLOCK = 8


class _CoefficientLayer:
    """The argument-free factors of the terms of one weight layer.

    ``nonempty`` says whether the layer has a partition inside the
    termination box; ``pole`` is the message of the first lower-parameter
    pole among its terms, if any.  Otherwise ``rows`` numbers the terms
    whose upper Pochhammer symbols do not vanish, in the order of
    ``partitions_of_weight(k, parts)``, and ``log_coef`` and ``negative``
    give each one's log-magnitude and sign.
    """

    __slots__ = ("nonempty", "pole", "rows", "log_coef", "negative")

    def __init__(
        self,
        nonempty: bool,
        pole: str | None,
        rows: np.ndarray,
        log_coef: np.ndarray,
        negative: np.ndarray,
    ) -> None:
        self.nonempty, self.pole = nonempty, pole
        self.rows, self.log_coef, self.negative = rows, log_coef, negative


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


def _content_log_sums(alpha: float, n: int, top: int) -> np.ndarray:
    """``S[i, c] = sum_{j<c} log(n - i + alpha j)``: the contents of the
    first ``c`` cells of row ``i`` in ``C_kappa`` at ``n`` ones."""
    contents = (n - np.arange(n))[:, None] + alpha * np.arange(top)[None, :]
    table = np.zeros((n, top + 1))
    np.cumsum(np.log(contents), axis=1, out=table[:, 1:])
    return table


class _Coefficients(_Layers):
    """The argument-free part of every term of a series, layer by layer.

    A term is ``prod_a [a]_kappa / prod_b [b]_kappa * C_kappa(x) / k!``.
    Everything but ``C_kappa(x)`` depends only on the parameters,
    ``alpha`` and the number of variables ``parts``.  An entry is plain,
    or ``at_ones``: for an argument ``t`` repeated ``parts`` times,
    ``C_kappa(x) = t**k C_kappa(1^parts)``, and the coefficient takes
    ``C_kappa(1^parts)`` too, leaving ``t**k`` to the ``p = 0``
    contraction (:class:`_Contraction`).  Its ``k!`` cancels the series'
    ``1 / k!``:

        C_kappa(1^n) / k! = alpha**k prod_cells (n - (i-1) + alpha (j-1))
                            / (upper * lower hook products).

    Pochhammer symbols, hooks and contents come from per-row cumulative
    tables indexed by the parts of a padded partition matrix, never a
    loop over cells.  A table row extends its sum one box at a time, so a
    layer reads the same floats however far the tables were built.

    Layers are built on first use (:class:`~betagap.jack._Layers`), in
    blocks of ``_LAYER_BLOCK`` weights: the block's partition arrays
    (:func:`~betagap.partitions.partition_array`) are concatenated, the
    tables gathered once over all their rows, and the result split into
    one :class:`_CoefficientLayer` per weight, each with its own rows,
    signs and first pole.  Every operation is per row, so a layer holds
    the same bits as if it were built alone.  A pole layer built past the
    weight where a series stops is never read.
    """

    def __init__(
        self,
        upper: tuple[float, ...],
        lower: tuple[float, ...],
        alpha: float,
        parts: int,
        at_ones: bool,
    ) -> None:
        super().__init__()
        self.upper = upper
        self.lower = lower
        self.alpha = alpha
        self.parts = parts
        self.at_ones = at_ones
        self.cap = _termination_cap(upper)
        self._top = -1

    def _grow(self, k: int) -> None:
        self._top = top = max(2 * self._top, k, 16)
        alpha, parts = self.alpha, self.parts
        self._upper = [_pochhammer_tables(a, alpha, parts, top) for a in self.upper]
        self._lower = [_pochhammer_tables(b, alpha, parts, top) for b in self.lower]
        if self.at_ones:
            self._upper_hooks = _hook_log_sums(alpha, parts - 1, top, upper=True)
            self._lower_hooks = _hook_log_sums(alpha, parts - 1, top)
            self._contents = _content_log_sums(alpha, parts, top)

    def _build(self, k: int) -> None:
        stop = k + _LAYER_BLOCK
        if stop - 1 > self._top:
            self._grow(stop - 1)
        weights = range(k, stop)
        layers = [partition_array(w, self.parts) for w in weights]
        sizes = [len(layer) for layer in layers]
        padded = np.concatenate(layers)
        rows = np.concatenate([np.arange(size) for size in sizes])
        if self.at_ones:
            log_coef = np.repeat([w * math.log(self.alpha) for w in weights], sizes)
        else:
            log_coef = np.repeat([-math.lgamma(w + 1) for w in weights], sizes)
        bounds = np.cumsum([0] + sizes)
        if self.cap is not None:
            inside = padded[:, 0] <= self.cap
            padded, rows, log_coef = padded[inside], rows[inside], log_coef[inside]
            bounds = np.concatenate(([0], np.cumsum(inside)))[bounds]
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
        poles = np.flatnonzero(np.any(lower_zero, axis=0) & live) if lower_zero else rows[:0]
        if self.at_ones:
            _subtract_hook_runs(log_coef, self._upper_hooks, padded)
            _subtract_hook_runs(log_coef, self._lower_hooks, padded)
            log_coef += self._contents[cells].sum(axis=1)
        arrays = rows[live], log_coef[live], negatives[live] % 2 == 1
        for array in arrays:  # shared, as views, by every caller of the cached entry
            array.flags.writeable = False
        live_bounds = np.concatenate(([0], np.cumsum(live)))[bounds].tolist()
        first_poles = np.searchsorted(poles, bounds).tolist()
        bounds = bounds.tolist()
        for i in range(_LAYER_BLOCK):
            if first_poles[i] < first_poles[i + 1]:  # a pole in this layer
                row = poles[first_poles[i]]
                b = next(b for b, zero in zip(self.lower, lower_zero) if zero[row])
                kappa = tuple(part for part in padded[row].tolist() if part)
                message = f"lower parameter {b} has a pole at partition {kappa}"
                no_terms = rows[:0], np.zeros(0), np.zeros(0, dtype=bool)
                self.layers.append(_CoefficientLayer(True, message, *no_terms))
                continue
            lo, hi = live_bounds[i], live_bounds[i + 1]
            terms = [array[lo:hi] for array in arrays]
            self.layers.append(_CoefficientLayer(bounds[i + 1] > bounds[i], None, *terms))


@lru_cache(maxsize=MAX_COEFFICIENT_ENTRIES)
def _coefficients(
    upper: tuple[float, ...],
    lower: tuple[float, ...],
    alpha: float,
    parts: int,
    at_ones: bool,
) -> _Coefficients:
    """The coefficient layers of one parameter set, shared by every argument."""
    return _Coefficients(upper, lower, alpha, parts, at_ones)


#: ``ln 2`` in two parts: ``e * _LN2_HI`` is exact for every ``|e| <
#: 2**20``, so ``(x - e * _LN2_HI) - e * _LN2_LO`` reduces a log by ``e``
#: powers of two with no more error than the log itself carries.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _binary_exponent(log: float) -> int:
    """The power of two that scales ``exp(log)`` near 1: 0 inside
    ``exp(+-600)``, where every sum here stays in float range unscaled."""
    return 0 if -600.0 < log < 600.0 or log == -math.inf else round(log / _LN2_HI)


class _Running:
    """The sum of one member's series while it runs.

    The sum is ``(total + comp) 2**exponent``: a two-sum ``total`` and its
    compensation, with ``magnitude`` the summed magnitudes of its terms, all
    in the same scale.  A layer of another exponent meets the state on the
    larger of the two, and ``math.ldexp`` rescales the other side exactly
    (a series' first layer, of weight 0, has exponent 0 or more).
    """

    __slots__ = (
        "exponent", "total", "comp", "magnitude", "term_count", "small_layers",
        "last_layer", "weight_used", "terminated_exactly",
    )

    def __init__(self) -> None:
        self.exponent = 0
        self.total = 0.0
        self.comp = 0.0
        self.magnitude = 0.0
        self.term_count = 0
        self.small_layers = 0
        self.last_layer = 0.0
        self.weight_used = 0
        self.terminated_exactly = False

    def add(
        self, k: int, count: int, exponent: int, signed: float, magnitude: float, tol: float
    ) -> bool:
        """Take in layer ``k`` and say whether the series stops there.

        The layer has ``count`` terms, whose sum is ``signed 2**exponent``
        and whose magnitudes sum to ``magnitude 2**exponent``.  The series
        stops at the third layer in a row below ``tol`` times the running
        total.
        """
        if count:
            self.term_count += count
            if exponent > self.exponent:
                down = self.exponent - exponent
                self.total = math.ldexp(self.total, down)
                self.comp = math.ldexp(self.comp, down)
                self.magnitude = math.ldexp(self.magnitude, down)
                self.exponent = exponent
            elif exponent < self.exponent:
                signed = math.ldexp(signed, exponent - self.exponent)
                magnitude = math.ldexp(magnitude, exponent - self.exponent)
            total = self.total
            fresh = total + signed
            if abs(total) >= abs(signed):
                self.comp += (total - fresh) + signed
            else:
                self.comp += (signed - fresh) + total
            self.total = fresh
            self.magnitude += magnitude
        self.weight_used = k
        self.last_layer = magnitude
        if k > 0 and magnitude < tol * abs(self.total):
            self.small_layers += 1
            return self.small_layers >= 3
        self.small_layers = 0
        return False

    def outcome(self) -> SeriesResult:
        """The member's :class:`SeriesResult`; raises ``CancellationError``
        if the series is lost."""
        total, exponent = self.total, self.exponent
        value = total + self.comp
        sign = -1 if value < 0.0 else 1
        if not value:  # no term, or the terms cancel to the last bit
            log_scaled = -math.inf
        elif not exponent and 0.5 <= abs(total) <= 2.0:
            # near 1 the compensation holds bits that total + comp rounds away
            log_scaled = math.log1p((abs(total) - 1.0) + (self.comp if total > 0.0 else -self.comp))
        else:
            log_scaled = math.log(abs(value))
        if self.magnitude:
            excess = math.log(self.magnitude) - log_scaled
            if excess > math.log(CONDITION_LIMIT):
                raise CancellationError(
                    f"series lost to cancellation: summed magnitude exceeds "
                    f"result by exp({excess:.1f})"
                )
        log_value = log_scaled
        if exponent:
            log_value = exponent * _LN2_HI + (exponent * _LN2_LO + log_scaled)
            try:
                value = math.ldexp(value, exponent)
            except OverflowError:
                value = math.copysign(math.inf, value)
        # relative: the last layer against the value, not its bare magnitude
        if self.terminated_exactly or not self.last_layer:
            tail = 0.0
        else:
            tail = math.exp(math.log(self.last_layer) - log_scaled)
        return SeriesResult(
            value, log_value, sign, self.weight_used, tail, self.terminated_exactly,
            self.term_count,
        )


#: One member's layer, as :meth:`_Running.add` takes it: ``(count,
#: exponent, signed, magnitude)``.
_LayerSums = tuple[int, int, float, float]


class _TermSums:
    """Layer sums of a group of members from plain ``coefficients`` and a
    :class:`JackTable`, whose row ``i`` is member ``i``'s argument."""

    def __init__(self, table: JackTable, coefficients: _Coefficients) -> None:
        self.table = table
        self.coefficients = coefficients

    def layer(self, k: int) -> list[_LayerSums]:
        """Each running member's sums of layer ``k``.

        A member's terms take its Jack values from the table (a vanishing
        value leaves a term of log-magnitude ``-inf``, not counted).  They
        are scaled by the power of two of the member's largest term
        (:func:`_binary_exponent`), 1 inside ``exp(+-600)``, and summed
        correctly rounded (``math.fsum``).
        """
        jack_values, jack_logs, jack_signs = self.table.layer(k)
        layer = self.coefficients.layer(k)
        rows = layer.rows
        if not rows.size:
            return [(0, 0, 0.0, 0.0)] * len(jack_values)
        c_values = jack_values[:, rows]
        negative = layer.negative ^ (c_values < 0.0) ^ (jack_signs < 0)[:, None]
        with np.errstate(divide="ignore"):
            log_mag = layer.log_coef + np.log(np.abs(c_values)) + jack_logs[:, rows]
        counts = np.count_nonzero(c_values, axis=1).tolist()
        exponents = [_binary_exponent(top) for top in log_mag.max(axis=1).tolist()]
        if any(exponents):
            scales = np.array(exponents)[:, None]
            weights = np.exp((log_mag - scales * _LN2_HI) - scales * _LN2_LO)
        else:
            weights = np.exp(log_mag)
        signed = np.where(negative, -weights, weights).tolist()
        magnitudes = np.add.reduce(weights, axis=1).tolist()
        return [
            (count, exponent, math.fsum(terms), magnitude)
            for count, exponent, terms, magnitude in zip(counts, exponents, signed, magnitudes)
        ]

    def keep(self, rows: list[int]) -> None:
        """Drop every member but ``rows`` (in their new order)."""
        self.table.keep(np.array(rows))


class _ContractedLayer:
    """Layer ``k`` of a two-value series with its argument contracted out.

    ``weights[0, d]`` and ``weights[1, d]`` are ``G+[k, d]`` and ``G-[k,
    d]``: over the live terms of positive (negative) coefficient, the sum
    of ``|coef_kappa| (C_kappa/P_kappa) c[d, kappa] exp(-shift)``, with
    ``shift`` the largest log of ``|coef_kappa| C_kappa/P_kappa``.  ``count``
    is the number of live terms; ``weights`` is None when there are none.
    """

    __slots__ = ("count", "shift", "weights")

    def __init__(self, count: int, shift: float, weights: np.ndarray | None) -> None:
        self.count, self.shift, self.weights = count, shift, weights


class _Contraction(_Layers):
    """The two-value layers of one ``(upper, lower, alpha, p, q)``, with
    every factor but the argument summed over the partitions.

    At argument ``u`` repeated ``p`` times and ``u r`` ``q`` times, ``0 <
    r < 1``, a term of weight ``k`` is ``coef_kappa u**k C_kappa/P_kappa
    P_kappa(1^p, r^q)``, and ``P_kappa(1^p, r^q) = sum_d c[d, kappa] r**d``
    with ``c`` from :func:`~betagap.jack._pair_coefficients`.  So the
    positive and negative parts of the layer are ``exp(shift + k log|u|)
    (G+-[k] . w)`` with ``w[d] = r**d``; integrated over ``r`` against a
    weight, ``w`` holds its moments instead (:class:`RatioIntegral`).  At
    ``p = 0``, ``P_kappa(r^q) = r**k P_kappa(1^q)`` and the at-ones
    coefficients hold ``C_kappa(1^q)``, so only ``d = k`` is nonzero; a
    series of one distinct value ``t`` is this case at ``u = t``, ``r =
    1``.  Every ``c`` and every ``w`` is nonnegative, so the sign of a
    term is that of its coefficient (and of ``u**k``).

    Layers are built when a series first reaches them, from the cached
    layers of the same weight of ``coefficient_key`` and the pair
    coefficients (looked up, not held, so their own caches bound their
    memory), on first use (:class:`~betagap.jack._Layers`).
    """

    def __init__(
        self, upper: tuple[float, ...], lower: tuple[float, ...], alpha: float, p: int, q: int
    ) -> None:
        super().__init__()
        self.coefficient_key = upper, lower, alpha, p + q, p == 0
        self.alpha, self.p, self.q = alpha, p, q

    def _build(self, k: int) -> None:
        coefficients = _coefficients(*self.coefficient_key).layer(k)
        rows = coefficients.rows
        if not rows.size:  # no live term, or a pole
            self.layers.append(_ContractedLayer(0, 0.0, None))
            return
        logs = coefficients.log_coef
        if self.p:
            pairs = _pair_coefficients(self.alpha, self.p, self.q)
            c = pairs.layer(k)[:, rows]
            logs = logs + pairs.strips.layer(k).log_norm[rows]
        shift = float(logs.max())
        scaled = np.exp(logs - shift)
        weights = np.zeros((2, k + 1))
        for sign, negative in enumerate((False, True)):
            part = np.where(coefficients.negative == negative, scaled, 0.0)
            if self.p:
                weights[sign] = c @ part
            else:
                weights[sign, k] = math.fsum(part.tolist())
        weights.flags.writeable = False
        self.layers.append(_ContractedLayer(len(rows), shift, weights))


@lru_cache(maxsize=MAX_COEFFICIENT_ENTRIES)
def _contraction(
    upper: tuple[float, ...], lower: tuple[float, ...], alpha: float, p: int, q: int
) -> _Contraction:
    """The contracted two-value layers of one parameter set, shared by every argument."""
    return _Contraction(upper, lower, alpha, p, q)


class _PairSums:
    """Layer sums of a group of members from a :class:`_Contraction` and
    its ``coefficients``.

    Member ``i`` is ``u[i]`` with the weights ``w[d] = ratios[i]**d`` (a
    quadrature node), or, with ``ratios`` None, the one member ``u[0]``
    with the moments of ``(1 - r)**power exp(rate (r - 1))``
    (:func:`~betagap.quadrature.ratio_moments`), whose ``exp(rate)`` joins
    the shift.  A member's two sums are one elementwise product and sum
    over its own row, so its bits do not depend on the other members.
    """

    def __init__(
        self, contraction: _Contraction, u: list[float], ratios: np.ndarray | None,
        power: int = 0, rate: float = 0.0,
    ) -> None:
        self.contraction = contraction
        self.coefficients = _coefficients(*contraction.coefficient_key)
        self.abs_u = [abs(value) for value in u]
        self.log_u = [math.log(value) for value in self.abs_u]
        self.u_negative = [value < 0.0 for value in u]
        self.ratios = ratios
        self.power, self.rate = power, rate
        self._exp_rate = math.exp(rate) if rate < 709.0 else math.inf
        self._weights = np.zeros((len(u), 0))

    def layer(self, k: int) -> list[_LayerSums]:
        """Each running member's sums of layer ``k``."""
        contracted = self.contraction.layer(k)
        if contracted.weights is None:
            return [(0, 0, 0.0, 0.0)] * len(self.abs_u)
        if k >= self._weights.shape[1]:
            depth = max(2 * self._weights.shape[1], k + 1, 32)
            if self.ratios is None:
                self._weights = ratio_moments(self.power, self.rate, depth)[None]
            else:
                self._weights = self.ratios[:, None] ** np.arange(depth)
        products = self._weights[:, None, : k + 1] * contracted.weights
        sums = np.add.reduce(products, axis=2).tolist()
        shift = contracted.shift + self.rate
        outer = math.exp(contracted.shift) * self._exp_rate if shift < 709.0 else math.inf
        flip = k % 2
        out = []
        for row, (pos, neg) in enumerate(sums):
            if flip and self.u_negative[row]:
                pos, neg = neg, pos
            if not pos + neg:  # every weight underflowed
                out.append((0, 0, 0.0, 0.0))
                continue
            log_power = k * self.log_u[row]
            exponent = _binary_exponent(shift + log_power)
            if exponent:
                factor = math.exp((shift + log_power - exponent * _LN2_HI) - exponent * _LN2_LO)
            else:
                # exp(shift) |u|**k: two rounded factors, not the exp of a
                # rounded sum, whose error grows with the sum's size
                factor = outer * self.abs_u[row] ** k if log_power < 709.0 else math.inf
                if not 0.0 < factor < math.inf:
                    factor = math.exp(shift + log_power)
            out.append((contracted.count, exponent, factor * (pos - neg), factor * (pos + neg)))
        return out

    def keep(self, rows: list[int]) -> None:
        """Drop every member but ``rows`` (in their new order)."""
        self.abs_u = [self.abs_u[row] for row in rows]
        self.log_u = [self.log_u[row] for row in rows]
        self.u_negative = [self.u_negative[row] for row in rows]
        self._weights = self._weights[rows]
        if self.ratios is not None:
            self.ratios = self.ratios[rows]


def _sum_layers(
    source: _TermSums | _PairSums,
    members: int,
    tol: float,
    max_weight: int | None,
    t_power: float | None = None,
) -> list[SeriesResult]:
    """Sum the series of one group of ``members`` layer by layer, and
    return each one's outcome (:meth:`_Running.outcome`).

    ``source`` gives each running member's sums of a layer, all of them
    at once, and its ``coefficients``, which the members share, set where
    the series terminates or meets a pole.  With ``t_power`` (see
    :class:`HypergeomSpec`) each member's sums of layer ``k`` are divided
    by ``k + t_power + 1``.  Each member keeps its own sum and stopping
    rule (:meth:`_Running.add`) and leaves the group when it stops.

    One rule ends a series: its first empty coefficient layer ends every
    running member, terminated exactly.  Only a nonempty layer past
    ``max_weight`` raises ``NonConvergenceError``, and only a nonempty
    layer within it is checked for a pole.  ``max_weight`` None is
    ``DEFAULT_MAX_WEIGHT`` for a series that does not terminate and no
    ceiling for one that does (its ``coefficients`` have a ``cap``).
    """
    coefficients = source.coefficients
    if max_weight is None:
        max_weight = DEFAULT_MAX_WEIGHT if coefficients.cap is None else math.inf
    running = [_Running() for _ in range(members)]
    order = list(range(len(running)))  # member number of each running row
    done: dict[int, SeriesResult] = {}

    k = 0
    while running:
        layer = coefficients.layer(k)
        if not layer.nonempty:  # never at k = 0, which holds the empty partition
            for state in running:
                state.terminated_exactly = True
            break
        if k > max_weight:
            state = running[0]
            try:
                last_layer = math.ldexp(state.last_layer, state.exponent)
            except OverflowError:
                last_layer = math.inf
            raise NonConvergenceError(
                f"series not converged by weight {max_weight} "
                f"(last layer magnitude {last_layer:.3e})"
            )
        if layer.pole is not None:
            raise LowerParameterPoleError(layer.pole)
        layer_sums = source.layer(k)
        if t_power is not None:
            scale = k + t_power + 1.0
            layer_sums = [
                (count, exponent, signed / scale, magnitude / scale)
                for count, exponent, signed, magnitude in layer_sums
            ]
        stopped = []
        for row, sums in enumerate(layer_sums):
            if running[row].add(k, *sums, tol):
                stopped.append(row)
        if stopped:
            for row in stopped:
                done[order[row]] = running[row].outcome()
            keep = sorted(set(range(len(running))) - set(stopped))
            running = [running[row] for row in keep]
            order = [order[row] for row in keep]
            if running:
                source.keep(keep)
        k += 1

    for row, state in zip(order, running):
        done[row] = state.outcome()
    return [done[row] for row in range(len(done))]


def _series_controls(tol: float, max_weight: int | None) -> int | None:
    """Check a series route's controls where the route starts: ``tol``
    finite and positive, ``max_weight`` None or a nonnegative integer
    (integral floats pass).  Returns ``max_weight`` as an ``int``, or
    None (:func:`_sum_layers` reads the default)."""
    require_finite("tol", tol, positive=True)
    if max_weight is None:
        return None
    return counted(max_weight, f"max_weight must be a nonnegative integer, got {max_weight}")


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

    A layer of at most two distinct nonzero values of one sign, ``u`` and
    ``u r`` (one value ``t`` is ``u = t``, ``r = 1``), is ``exp(shift + k
    log|u|)`` times two dot products of the cached sums of
    :class:`_Contraction` with ``r**d``, its positive and its negative
    part: its sum is their difference and its magnitude their sum.  Any
    other layer is whole-array arithmetic on the cached argument-free
    coefficients of its terms and the layer of a :class:`JackTable`, then
    a correctly rounded sum and a magnitude per member.

    One :class:`ArgBlocks` argument is a batch of one row, and one
    :class:`RatioIntegral` a batch of one two-value member whose dot
    products take the moments of its weight.  A batch sums every
    member's series as it would alone, to the bit, with the same stopping
    rule, checks and diagnostics, but computes each layer for all of them
    at once (:func:`_batch_groups`): the members of at most two distinct
    values share one contraction per pair of multiplicities, and the
    others share batched Jack tables of at most
    :func:`~betagap.jack.batch_nodes` arguments each.

    Parameters
    ----------
    spec : HypergeomSpec
        Parameters, deformation ``alpha``, and argument blocks, an
        integrated two-value argument, or a batch of arguments.
    tol : float
        Relative layer tolerance for the stopping rule; finite and
        positive.
    max_weight : int, optional
        Weight ceiling; a nonnegative integer.  By default a terminating
        series (a nonpositive-integer upper parameter) has none: its first
        empty layer ends it.  Any other series stops at
        ``DEFAULT_MAX_WEIGHT``.

    Returns
    -------
    SeriesResult or SeriesBatch
        A :class:`SeriesResult` for argument blocks or an integrated
        argument; a :class:`SeriesBatch`, in argument order, for a batch.

    Raises
    ------
    ValueError
        If ``tol`` or ``max_weight`` is out of range.
    LowerParameterPoleError
        If a lower-parameter Pochhammer vanishes on a contributing term.
    CancellationError
        If sign-mixing terms exceed ``CONDITION_LIMIT`` times the result.
    NonConvergenceError
        If the stopping rule is not met by ``max_weight``.

    In a batch, the first member to fail raises its error.
    """
    max_weight = _series_controls(tol, max_weight)
    upper, lower, alpha = spec.upper, spec.lower, float(spec.alpha)
    if isinstance(spec.args, RatioIntegral):
        arg = spec.args
        contraction = _contraction(upper, lower, alpha, arg.p, arg.q)
        source = _PairSums(contraction, [arg.u], None, arg.power, arg.rate)
        return _sum_layers(source, 1, tol, max_weight, spec.t_power)[0]
    single = isinstance(spec.args, ArgBlocks)
    points = [spec.args.expanded()] if single else spec.args.tolist()
    results: list[SeriesResult | None] = [None] * len(points)
    for pair, numbers, u, t in _batch_groups(points):
        depth = None  # deepest weight a chunk of this call has reached
        while numbers:
            if pair is None:  # u holds each row's nonzero values, all of one length
                m = len(u[0])
                size = batch_nodes(alpha, m, depth)
                chunk, numbers = numbers[:size], numbers[size:]
                table = JackTable(u[:size], alpha)
                u = u[size:]
                source = _TermSums(table, _coefficients(upper, lower, alpha, m, False))
            else:
                chunk, numbers = numbers, []
                ratios = np.abs(np.array(t)) / np.abs(np.array(u))
                source = _PairSums(_contraction(upper, lower, alpha, *pair), u, ratios)
            sums = _sum_layers(source, len(chunk), tol, max_weight, spec.t_power)
            for row, result in zip(chunk, sums):
                results[row] = result
            depth = max(depth or 0, *(result.max_weight_used for result in sums))
    return results[0] if single else SeriesBatch(results)


def _batch_groups(points: list) -> list[tuple]:
    """The rows of a batch by path: ``(pair, rows, u, t)``.

    A zero is no variable: a term of more parts than the row has nonzero
    values vanishes, so each row is read without its zeros.  ``pair`` is
    ``(p, q)`` for rows of at most two distinct nonzero values of one
    sign, ``u`` repeated ``p`` times and ``t`` ``q`` times with ``|u| >
    |t|`` (:class:`_Contraction`).  A row whose nonzero values all equal
    ``t`` is ``(0, q)`` with ``q`` nonzero values and ``u = t`` (``t`` is
    1 for a row of zeros).  ``u`` and ``t`` hold one value per row.
    ``pair`` is None for the other rows, with values of mixed sign or
    three or more distinct values (:class:`~betagap.jack.JackTable`):
    ``u`` holds each row's nonzero values, one group per number of them,
    and ``t`` is empty.
    """
    mixed: dict[int, tuple[list, list]] = {}
    by_pair: dict[tuple[int, int], tuple[list, list, list]] = {}
    for row, values in enumerate(points):
        nonzero = [value for value in values if value != 0.0]
        u = t = nonzero[0] if nonzero else 1.0
        key = 0, len(nonzero)
        if any(value != t for value in nonzero):
            distinct = set(nonzero)
            if len(distinct) > 2 or min(distinct) < 0.0 < max(distinct):
                rows, nonzero_rows = mixed.setdefault(len(nonzero), ([], []))
                rows.append(row)
                nonzero_rows.append(nonzero)
                continue
            u, t = sorted(distinct, key=abs, reverse=True)
            key = nonzero.count(u), nonzero.count(t)
        rows, us, ts = by_pair.setdefault(key, ([], [], []))
        rows.append(row)
        us.append(u)
        ts.append(t)
    groups = [(None, *mixed[m], []) for m in sorted(mixed)]
    return groups + [(pair, *by_pair[pair]) for pair in sorted(by_pair)]

