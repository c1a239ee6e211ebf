"""Jack polynomials in the normalization whose values at ones sum to powers.

``C_kappa`` denotes the normalization with ``sum_{|kappa|=k} C_kappa(x)
= (x_1 + ... + x_m)**k``.  Which evaluator serves which argument:

- one distinct nonzero value (every ``E(0)`` series): the closed form
  ``x**k C_kappa(1^n)``, ``C_kappa(1^n) / k! = alpha**(2k) [n/alpha]_kappa
  / j_kappa`` at ``k = |kappa|``, with no table.  The series of
  :mod:`betagap.hypergeom` caches it in its coefficient layers, the hook
  products ``j_kappa`` summed over the same constant-leg runs as the strip
  table's normalization (:func:`_hook_log_sums`,
  :func:`_subtract_hook_runs`), and sums them
  over the partitions as the ``p = 0``, ``r = 1`` case of the two-value
  contraction below;
- two distinct nonzero values of one sign, ``u`` repeated ``p`` times
  and ``v`` ``q`` times with ``|u| > |v|`` (``E(1)`` integrated over ``r
  = v / u``, hard-edge ``E(2)`` at ``a = 0`` integrated the same way, and
  the quadrature nodes of finite-size ``E(2)`` at ``a = 0`` and of a
  subnormal ``s``):
  ``u**|kappa|`` times the polynomial ``P_kappa(1^p, r^q)``, whose
  coefficients ``c[d, kappa]`` depend only on ``(alpha, p, q)``
  (:func:`_pair_coefficients`).  They are built once, a weight layer at
  a time, by :class:`JackTable`'s strip recursion with the degree of
  ``r`` as an axis, and cached.  No Jack value of such an argument is
  formed: the series of :mod:`betagap.hypergeom` contracts each layer's
  coefficients over the partitions, once per parameter set, and applies
  only the powers of ``r`` (or their moments) per argument;
- any other argument with more than one distinct nonzero value (three
  or more values, mixed signs: ``E(2)`` at ``a > 0``, ``E(3)``), read
  without its zeros, since a zero is no variable: :class:`JackTable`, the Koev–Edelman recursion
  over horizontal strips, which builds every ``C_kappa`` of a batch of
  series, one node per argument, one variable and one weight layer at a
  time from branching coefficients shared by all series at the same
  ``alpha`` and number of variables.  A quadrature level is one batch,
  cut into tables of at most :func:`batch_nodes` nodes.

The pair coefficients and :class:`JackTable` share the strip table of
``(alpha, m)`` and so its budget ``MAX_STRIP_PAIRS``.  Each evaluator
here works a weight layer at a time (:func:`jack_C_eval_signlog` reads
one entry of a table); the one-partition reference forms that tests
check them against live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError
from .partitions import partition_array, partitions_of_weight

__all__ = [
    "jack_C_eval_signlog",
    "JackTable",
    "batch_nodes",
    "MAX_BATCH_ELEMENTS",
    "MAX_STRIP_PAIRS",
]

#: Most horizontal strips one strip table may hold (32 bytes each).
MAX_STRIP_PAIRS = 2_000_000


def _hook_ratio_products(alpha: float, max_leg: int, top: int) -> np.ndarray:
    """``G[l, n] = prod_{a < n} (l + 1 + alpha a) / (l + alpha (a + 1))``.

    Each row extends its product one box (one unit of arm) at a time, so
    a row of a longer table starts with the same floats as a shorter one.
    """
    legs = np.arange(max_leg + 1, dtype=float)[:, None]
    arms = np.arange(top, dtype=float)[None, :]
    ratios = (legs + 1.0 + alpha * arms) / (legs + alpha * (arms + 1.0))
    table = np.ones((max_leg + 1, top + 1))
    np.multiply.accumulate(ratios, axis=1, out=table[:, 1:])
    return table


def _hook_log_sums(alpha: float, max_leg: int, top: int, upper: bool = False) -> np.ndarray:
    """``L[l, n] = sum_{a=1..n} log(l + alpha a)``: the lower hooks of ``n``
    consecutive cells of leg ``l``, added one box at a time.  With
    ``upper``, ``sum_{a=0..n-1} log(l + 1 + alpha a)``: the upper hooks."""
    legs = np.arange(max_leg + 1, dtype=float)[:, None]
    if upper:
        hooks = legs + 1.0 + alpha * np.arange(top, dtype=float)[None, :]
    else:
        hooks = legs + alpha * np.arange(1, top + 1, dtype=float)[None, :]
    table = np.zeros((max_leg + 1, top + 1))
    np.add.accumulate(np.log(hooks), axis=1, out=table[:, 1:])
    return table


def _subtract_hook_runs(out: np.ndarray, sums: np.ndarray, padded: np.ndarray) -> None:
    """Subtract from ``out`` each row's hook logs, read from ``sums``.

    ``padded`` holds one partition per row, with at least one trailing
    zero column.  In row ``i`` the cells of leg ``r - i`` are the columns
    ``kappa_{r+1} < c <= kappa_r``, ``r >= i``, over which the arm moves
    one box at a time, so each run is a difference of two entries of
    :func:`_hook_log_sums` (``sums``), upper or lower.
    """
    parts = padded.shape[1] - 1
    for i in range(parts):
        row = padded[:, i]
        for r in range(i, parts):
            run = sums[r - i]
            out -= run[row - padded[:, r + 1]] - run[row - padded[:, r]]


def _rank_tables(parts: int, top: int) -> list[np.ndarray]:
    """``T[j][r, q]``: partitions of ``r`` into at most ``j + 1`` parts
    whose first part lies in ``1..q``, for ``j < parts`` and ``r, q <= top``.
    """
    size = top + 1
    # bounded[r, p]: partitions of r into at most j parts, each at most p.
    bounded = np.zeros((size, size), dtype=np.int64)
    bounded[0, :] = 1
    rows = np.arange(size)[:, None]
    cols = np.arange(size)[None, :]
    tables = []
    for _ in range(parts):
        # first part exactly p, the rest bounded by p
        first = np.where(rows >= cols, bounded[np.maximum(rows - cols, 0), cols], 0)
        first[:, 0] = 0
        tables.append(np.cumsum(first, axis=1))
        grown = np.zeros_like(bounded)
        grown[0, :] = 1
        for p in range(1, size):
            grown[:, p] = grown[:, p - 1]
            grown[p:, p] += bounded[: size - p, p]
        bounded = grown
    return tables


class _Layers:
    """Layers of a cached table, built on first use, each with every layer
    below it, under a lock, so threads may share one entry.

    A subclass appends layer ``k`` to ``layers`` in ``_build(k)``, and may
    append the layers after it in the same call.  The layer records
    (:class:`_StripLayer`, ``hypergeom._CoefficientLayer`` and
    ``hypergeom._ContractedLayer``) are plain ``__slots__`` classes: each
    frozen dataclass would add most of a millisecond to ``import betagap``.
    """

    def __init__(self) -> None:
        self.layers: list = []
        self._lock = threading.Lock()

    def layer(self, k: int):
        """Layer ``k``, built (with every layer below it) on first use."""
        if k >= len(self.layers):
            with self._lock:
                while len(self.layers) <= k:
                    self._build(len(self.layers))
        return self.layers[k]


class _StripLayer:
    """The horizontal strips ``kappa/mu`` of one weight layer ``|kappa| = k``."""

    __slots__ = ("start", "count", "owner", "mu", "size", "psi", "ends", "log_norm")

    def __init__(
        self,
        start: int,
        count: int,
        owner: np.ndarray,
        mu: np.ndarray,
        size: np.ndarray,
        psi: np.ndarray,
        ends: list[int],
        log_norm: np.ndarray,
    ) -> None:
        self.start, self.count, self.owner, self.mu = start, count, owner, mu
        self.size, self.psi, self.ends, self.log_norm = size, psi, ends, log_norm


class _StripTable(_Layers):
    """Jack branching coefficients for partitions of at most ``parts`` parts.

    ``P_kappa(x_1..x_j) = sum_mu P_mu(x_1..x_{j-1}) x_j^{|kappa/mu|}
    psi_{kappa/mu}`` over horizontal strips ``kappa/mu``, with Macdonald's
    coefficient ``psi_{kappa/mu} = prod b_mu(s) / b_kappa(s)`` over the
    cells ``s`` of ``mu`` that share a row but no column with the strip,
    ``b(s) = (leg + 1 + alpha arm) / (leg + alpha (arm + 1))``.  In row
    ``i`` those cells split into runs of constant leg ``r - i`` (columns
    ``kappa_{r+1} < c <= mu_r``, ``r >= i``) over which the arm moves one
    box at a time, so every run is a ratio of two entries of the
    one-box hook-ratio products ``G`` and a strip costs ``O(parts**2)``
    table reads, whatever its size.

    Partitions are numbered by weight, then in the order of
    ``partitions_of_weight(k, parts)``.  Layer ``k`` holds the number
    ``start`` of its first partition and flat arrays over its strips: the
    position of ``kappa`` in its layer (``owner``), the number of ``mu``
    (``mu``), the strip size ``k - |mu|`` (``size``) and ``psi``.  Only
    ``mu`` of at most ``parts - 1`` parts is kept, since the last variable
    added is the last one there is.  Strips are sorted stably by the
    number of parts of ``mu``, and ``ends[l]`` counts those with at most
    ``l`` parts, so adding the ``j``-th variable reads a prefix.
    """

    def __init__(self, alpha: float, parts: int) -> None:
        super().__init__()
        self.alpha = alpha
        self.parts = parts
        self.offsets = [0]  # number of the first partition of each weight
        self.pairs = 0
        self._top = -1
        self._hooks = np.ones((parts, 1))
        self._lower = np.zeros((parts, 1))
        self._ranks: list[np.ndarray] = []

    def _build(self, k: int) -> None:
        parts = self.parts
        if k > self._top:
            self._top = max(2 * self._top, k, 16)
            self._hooks = _hook_ratio_products(self.alpha, parts - 1, self._top)
            self._lower = _hook_log_sums(self.alpha, parts - 1, self._top)
            self._ranks = _rank_tables(parts, self._top)
        padded = partition_array(k, parts).astype(np.int32)  # halves kap and mu below
        count = len(padded)
        # mu_i runs over kappa_{i+1}..kappa_i; the last part of mu is 0.
        radix = padded[:, :parts] - padded[:, 1:] + 1
        radix[:, parts - 1] = 1
        per_kappa = radix.prod(axis=1)
        total = int(per_kappa.sum())
        if self.pairs + total > MAX_STRIP_PAIRS:
            # a table at the budget holds tens of MB; a functools cache
            # cannot drop one entry, and the error is rare: empty both
            _strip_table.cache_clear()
            _pair_coefficients.cache_clear()
            raise ResourceLimitError(
                f"Jack strip table at alpha={self.alpha} with {parts} variables "
                f"would exceed {MAX_STRIP_PAIRS} strips at weight {k}"
            )
        owner = np.repeat(np.arange(count), per_kappa)
        digit = np.arange(total) - np.repeat(np.cumsum(per_kappa) - per_kappa, per_kappa)
        kap = padded[owner]
        mu = np.zeros_like(kap)
        for i in range(parts - 1):
            base = radix[owner, i]
            mu[:, i] = kap[:, i] - digit % base
            digit //= base
        mu_parts = np.count_nonzero(mu, axis=1)
        order = np.argsort(mu_parts, kind="stable")
        owner, kap, mu = owner[order], kap[order], mu[order]
        ends = np.searchsorted(mu_parts[order], np.arange(parts), side="right")

        psi = np.ones(total)
        hooks = self._hooks
        for i in range(parts):
            for r in range(i, parts):
                g = hooks[r - i]
                psi *= (g[mu[:, i] - kap[:, r + 1]] * g[kap[:, i] - mu[:, r]]) / (
                    g[mu[:, i] - mu[:, r]] * g[kap[:, i] - kap[:, r + 1]]
                )

        mu_weight = mu.sum(axis=1)
        index = np.asarray(self.offsets)[mu_weight]
        remaining = mu_weight.copy()
        bound = mu_weight.copy()
        for i in range(parts):
            ranks = self._ranks[parts - 1 - i]
            index += ranks[remaining, np.minimum(bound, remaining)] - ranks[remaining, mu[:, i]]
            remaining -= mu[:, i]
            bound = mu[:, i]

        # log(C_kappa / P_kappa) = log(alpha^k k! / prod of lower hooks), the
        # hooks summed over the same constant-leg runs, now of kappa itself.
        log_norm = np.full(count, k * math.log(self.alpha) + math.lgamma(k + 1))
        _subtract_hook_runs(log_norm, self._lower, padded)
        start = self.offsets[-1]
        self.offsets.append(start + count)
        self.pairs += total
        self.layers.append(
            _StripLayer(start, count, owner, index, k - mu_weight, psi, ends.tolist(), log_norm)
        )


@lru_cache(maxsize=8)
def _strip_table(alpha: float, parts: int) -> _StripTable:
    """The strip table of ``(alpha, parts)``, shared by every argument.

    Its contents depend on nothing else, and a layer is the same whether
    it was built for this series or an earlier one.
    """
    return _StripTable(alpha, parts)


#: Most float elements one batched :class:`JackTable` is sized for, as
#: counted by :func:`batch_nodes`.  Memory, not speed, sets it.  The
#: batches serve quadrature levels whose nodes carry three or more distinct
#: arguments: ``E(2)`` at ``a > 0`` and ``E(3)``.  On ``exact_En_hard(4, 1,
#: 2, 2)`` and ``exact_En_hard(4, 0, 2, 3)`` (warm caches, best of 5 CPU
#: times, 2-core Xeon host), 2**16 (512 KB of floats) runs 2.6 and 2.0
#: times as fast as one node per series, and 2**15 1.7 and 1.2 times, at
#: the same peak resident size within 0.3 MB.
MAX_BATCH_ELEMENTS = 1 << 16


def batch_nodes(alpha: float, parts: int, depth: int | None = None) -> int:
    """Most arguments one :class:`JackTable` of ``(alpha, parts)`` takes
    under ``MAX_BATCH_ELEMENTS`` if its series go to weight ``depth``.

    Without ``depth``, the deepest layer built so far in the shared strip
    table stands in for it; while that table is cold the answer is one, so
    that the first series builds it.
    """
    strips = _strip_table(float(alpha), parts)
    if depth is None:
        if len(strips.layers) < 2:
            return 1
        depth = len(strips.layers) - 1
    layer = strips.layer(depth)
    # the table, at up to twice the partitions it holds, the three arrays
    # over the strips that filling a variable row holds at once, and the
    # series' own state and layer rows for the node
    per_node = 2 * (parts + 1) * (layer.start + layer.count) + 3 * len(layer.owner) + 128
    return max(1, MAX_BATCH_ELEMENTS // per_node)


class JackTable:
    """``C_kappa(x)`` for every partition and every argument of a batch,
    one weight layer at a time.

    The evaluator for arguments with more than one distinct value.  For
    each argument (node) ``x`` it tabulates ``P_kappa(x_1..x_j / s)``,
    ``j = 1..m``, with ``s = max|x|``, by the branching rule over
    horizontal strips (Koev and Edelman, Math. Comp. 75 (2006) 833),
    reading the coefficients from the shared strip table of ``(alpha,
    m)``.  An argument that is all nonpositive is tabulated at ``|x|`` and
    given the sign ``(-1)**|kappa|``, so the table sums no terms of mixed
    sign.  Values have shape ``(m + 1, nodes, partitions)``; each variable
    row is filled for every node by one gather and one ``np.bincount``
    over ``owner + node * count``, which adds each bin's strips in the
    same order as a table of that node alone, so every node's values are
    bit-identical to its own table's.

    Parameters
    ----------
    points : sequence of tuple of float
        One argument per node, all of the same length ``m``; zeros count
        as variables.
    alpha : float
        Positive deformation parameter.
    """

    def __init__(self, points, alpha: float) -> None:
        x = np.array(points, dtype=float, ndmin=2)
        scale = np.abs(x).max(axis=1)
        self._negative = (x <= 0.0).all(axis=1)
        x[self._negative] *= -1.0
        x /= scale[:, None]
        x.sort(axis=1)
        self._y = x.tolist()
        self._log_scale = np.array([math.log(v) for v in scale.tolist()])
        nodes, parts = x.shape
        self._strips = _strip_table(float(alpha), parts)
        self._values = np.zeros((parts + 1, nodes, 8))
        self._values[0, :, 0] = 1.0
        self._powers = np.zeros((parts, nodes, 8))
        self._done = -1

    def layer(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Layer ``k``, over ``partitions_of_weight(k, m)``.

        Returns
        -------
        tuple
            ``(values, log_factors, signs)``: two arrays of shape ``(nodes,
            partitions)`` and one of ``nodes`` entries of +-1, with
            ``C_kappa(x_n) = signs[n] * values[n, i] * exp(log_factors[n,
            i])`` for the ``i``-th partition.  A value below the float
            range of the scaled table reads 0.  ``values`` is a read-only
            view.
        """
        while self._done < k:
            self._extend(self._done + 1)
        strips = self._strips.layer(k)
        values = self._values[-1, :, strips.start : strips.start + strips.count]
        values.flags.writeable = False
        log_factors = strips.log_norm + (k * self._log_scale)[:, None]
        signs = np.where(self._negative & bool(k % 2), -1, 1)
        return values, log_factors, signs

    def keep(self, nodes: np.ndarray) -> None:
        """Drop every node but ``nodes`` (indices, in their new order).

        The rows are compacted in place, one variable at a time, so that
        no second copy of the table is made.
        """
        count = len(nodes)
        for array in (self._values, self._powers):
            for row in array:
                row[:count] = row[nodes]
        self._values = self._values[:, :count]
        self._powers = self._powers[:, :count]
        self._negative = self._negative[nodes]
        self._log_scale = self._log_scale[nodes]
        self._y = [self._y[n] for n in nodes.tolist()]

    def _extend(self, k: int) -> None:
        strips = self._strips.layer(k)
        start, count = strips.start, strips.count
        stop = start + count
        rows, nodes, size = self._values.shape
        if stop > size:
            grown = np.zeros((rows, nodes, max(2 * size, stop)))
            grown[:, :, :start] = self._values[:, :, :start]
            self._values = grown
        if k >= self._powers.shape[2]:
            grown = np.zeros(self._powers.shape[:2] + (2 * k,))
            grown[:, :, :k] = self._powers[:, :, :k]
            self._powers = grown
        self._powers[:, :, k] = np.array([[v**k for v in y] for y in self._y]).T
        values = self._values
        bins = (count * np.arange(nodes))[:, None]
        for j in range(1, rows):
            end = strips.ends[j - 1]
            terms = values[j - 1][:, strips.mu[:end]]
            terms *= self._powers[j - 1][:, strips.size[:end]]
            terms *= strips.psi[:end]
            values[j, :, start:stop] = np.bincount(
                (strips.owner[:end] + bins).ravel(), weights=terms.ravel(),
                minlength=nodes * count,
            ).reshape(nodes, count)
            del terms
        self._done = k


class _PairCoefficients(_Layers):
    """``c[d, kappa]`` of ``P_kappa(1^p, r^q) = sum_d c[d, kappa] r**d``,
    a weight layer at a time.

    The strip recursion of :class:`JackTable` with the ``p`` variables
    equal to 1 first and the ``q`` equal to ``r`` after them, run once for
    every ``r``: a 1-valued variable row holds ``P_mu(1^j)``, one number
    per partition, and an ``r``-valued row holds, per partition ``mu`` of
    weight ``w``, the ``w + 1`` coefficients of its polynomial in ``r``,
    each strip shifting the degree by its size.  Layer ``k`` is the last
    row's ``(k + 1, partitions)`` array, read-only, built on first use
    (:class:`_Layers`).
    """

    def __init__(self, alpha: float, p: int, q: int) -> None:
        super().__init__()
        self.p = p
        self.strips = _strip_table(alpha, p + q)
        self._ones = np.zeros((p + 1, 8))
        self._ones[0, 0] = 1.0
        # per r-valued row, one (w + 1, partitions) array per weight w
        self._rows: list[list[np.ndarray]] = [[] for _ in range(q)]

    def _build(self, k: int) -> None:
        strips = self.strips.layer(k)
        start, count = strips.start, strips.count
        stop = start + count
        p, ones = self.p, self._ones
        if stop > ones.shape[1]:
            ones = np.zeros((p + 1, max(2 * ones.shape[1], stop)))
            ones[:, :start] = self._ones[:, :start]
            self._ones = ones
        for j in range(1, p + 1):
            end = strips.ends[j - 1]
            ones[j, start:stop] = np.bincount(
                strips.owner[:end], weights=ones[j - 1, strips.mu[:end]] * strips.psi[:end],
                minlength=count,
            )
        # the first r-valued row: a strip's degree is its size
        end = strips.ends[p]
        row = np.bincount(
            strips.size[:end] * count + strips.owner[:end],
            weights=ones[p, strips.mu[:end]] * strips.psi[:end],
            minlength=(k + 1) * count,
        ).reshape(k + 1, count)
        self._rows[0].append(row)
        for i in range(1, len(self._rows)):
            # strips of one size s read the one weight k - s of the row before
            end = strips.ends[p + i]
            size = strips.size[:end]
            order = np.argsort(size, kind="stable")
            bounds = np.searchsorted(size[order], np.arange(k + 2)).tolist()
            before = self._rows[i - 1]
            row = np.zeros((k + 1, count))
            for s in range(k + 1):
                picked = order[bounds[s] : bounds[s + 1]]
                w = k - s
                terms = np.take(before[w], strips.mu[picked] - self.strips.offsets[w], axis=1)
                terms *= strips.psi[picked]
                bins = (count * np.arange(w + 1))[:, None] + strips.owner[picked]
                row[s:] += np.bincount(
                    bins.ravel(), weights=terms.ravel(), minlength=(w + 1) * count
                ).reshape(w + 1, count)
                del terms, bins
            self._rows[i].append(row)
        row.flags.writeable = False
        self.layers.append(row)


@lru_cache(maxsize=8)
def _pair_coefficients(alpha: float, p: int, q: int) -> _PairCoefficients:
    """The coefficient layers of ``(alpha, p, q)``, shared by every ``r``."""
    return _PairCoefficients(alpha, p, q)


def jack_C_eval_signlog(
    kappa: tuple[int, ...], x: tuple[float, ...], alpha: float
) -> tuple[int, float]:
    """Sign and log-magnitude of ``C_kappa(x)`` at parameter ``alpha``.

    Zero arguments are dropped, and the rest build a :class:`JackTable`
    up to the weight of ``kappa``.  No route calls this one-partition
    form; the benchmark's tracer wraps it by name (see
    :mod:`betagap.hypergeom`).

    Returns
    -------
    tuple
        ``(sign, log_abs)`` with ``sign`` in {-1, 0, 1}.
    """
    k = sum(kappa)
    if k == 0:
        return 1, 0.0
    xs = tuple(v for v in x if v != 0.0)
    if len(kappa) > len(xs):
        return 0, -math.inf
    position = partitions_of_weight(k, len(xs)).index(tuple(kappa))
    values, log_factors, signs = JackTable([xs], alpha).layer(k)
    value = float(values[0, position])
    if value == 0.0:
        return 0, -math.inf
    sign = int(signs[0])
    log_abs = math.log(abs(value)) + float(log_factors[0, position])
    return (sign if value > 0.0 else -sign), log_abs
