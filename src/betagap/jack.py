"""Jack polynomials in the normalization whose values at ones sum to powers.

``C_kappa`` denotes the normalization with ``sum_{|kappa|=k} C_kappa(x)
= (x_1 + ... + x_m)**k``.  Which evaluator serves which argument:

- one distinct nonzero value (every ``E(0)`` series): the closed-form
  identity evaluation ``x**|kappa| C_kappa(1, ..., 1)``.  The series of
  :mod:`betagap.hypergeom` takes ``C_kappa(1, ..., 1)`` into its cached
  coefficient layers, with the hook products summed over the same
  constant-leg runs as the strip table's normalization
  (:func:`_hook_log_sums`, :func:`_subtract_hook_runs`);
- more than one distinct value (the quadrature nodes of ``E(n)``,
  ``n >= 1``): :class:`JackTable`, the Koev–Edelman recursion over
  horizontal strips, which builds every ``C_kappa`` of a series one
  variable and one weight layer at a time from branching coefficients
  shared by all series at the same ``alpha`` and number of variables.

The Schur bialternant at ``alpha == 1`` and the monomial expansion
driven by the eigenoperator recurrence evaluate one ``kappa`` at a time.
No route uses them; tests compare :class:`JackTable` against them
through :func:`jack_C_oracle_signlog`.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import permutations

import numpy as np

from .errors import ResourceLimitError
from .partitions import (
    dominates,
    hook_products_log,
    jack_C_at_identity_log,
    partitions_of_weight,
)

__all__ = [
    "rho",
    "jack_in_monomial_basis",
    "monomial_eval",
    "jack_C_eval",
    "jack_C_eval_signlog",
    "jack_C_oracle_signlog",
    "JackTable",
    "MAX_EXPANSION_WEIGHT",
    "MAX_STRIP_PAIRS",
]

#: Hard ceiling on the weight accepted by :func:`jack_in_monomial_basis`.
MAX_EXPANSION_WEIGHT = 200


def rho(kappa: tuple[int, ...], alpha: float) -> float:
    """Eigenvalue ``sum_i kappa_i * (kappa_i - 1 - (2/alpha)*(i-1))``."""
    return sum(part * (part - 1 - (2.0 / alpha) * i) for i, part in enumerate(kappa))


@cache
def jack_in_monomial_basis(
    kappa: tuple[int, ...], alpha: float, max_parts: int | None = None
) -> dict[tuple[int, ...], float]:
    """Monomial expansion of the Jack polynomial ``P_kappa``.

    Uses the second-order eigenoperator recurrence: with ``c_kappa = 1``,
    every dominated partition ``mu`` receives ``c_mu = (2/alpha) /
    (rho(kappa) - rho(mu)) * sum (mu_i - mu_j + 2t) * c_nu`` over moves
    ``nu = sort(mu + t e_i - t e_j)``, processed in reverse-lexicographic
    order so each ``nu`` is already available.  Moves never increase the
    number of parts, so restricting to ``max_parts`` is self-contained.

    Parameters
    ----------
    kappa : tuple of int
        Partition indexing the polynomial.
    alpha : float
        Positive deformation parameter.
    max_parts : int, optional
        Keep only monomials with at most this many parts (sufficient
        when evaluating in that many variables).

    Returns
    -------
    dict
        Mapping ``mu -> coefficient`` of ``m_mu`` in ``P_kappa``, in the
        normalization where the coefficient of ``m_kappa`` is 1.
    """
    weight = sum(kappa)
    if weight > MAX_EXPANSION_WEIGHT:
        raise ResourceLimitError(
            f"monomial expansion requested at weight {weight} "
            f"(limit {MAX_EXPANSION_WEIGHT})"
        )
    if max_parts is not None and len(kappa) > max_parts:
        return {}
    if weight == 0:
        return {(): 1.0}

    rho_kappa = rho(kappa, alpha)
    coeffs: dict[tuple[int, ...], float] = {}
    for mu in partitions_of_weight(weight, max_parts):
        if mu == kappa:
            coeffs[mu] = 1.0
            continue
        if not dominates(kappa, mu):
            continue
        total = 0.0
        n_rows = len(mu)
        for j in range(1, n_rows):
            for i in range(j):
                for t in range(1, mu[j] + 1):
                    lifted = list(mu)
                    lifted[i] += t
                    lifted[j] -= t
                    nu = tuple(sorted((p for p in lifted if p > 0), reverse=True))
                    c_nu = coeffs.get(nu)
                    if c_nu is not None:
                        total += (mu[i] - mu[j] + 2 * t) * c_nu
        coeffs[mu] = (2.0 / alpha) / (rho_kappa - rho(mu, alpha)) * total
    return coeffs


def monomial_eval(mu: tuple[int, ...], x: tuple[float, ...]) -> float:
    """Monomial symmetric polynomial ``m_mu`` evaluated at ``x``.

    Sums ``prod_r x[sigma(r)]**mu_r`` over injective index maps and
    divides by the multiplicity factorials, so each distinct monomial is
    counted once.
    """
    n_rows = len(mu)
    if n_rows == 0:
        return 1.0
    if n_rows > len(x):
        return 0.0
    repeat = 1.0
    for count in Counter(mu).values():
        repeat *= math.factorial(count)
    total = 0.0
    for chosen in permutations(range(len(x)), n_rows):
        term = 1.0
        for row, idx in zip(mu, chosen):
            term *= x[idx] ** row
        total += term
    return total / repeat


def _schur_signlog(kappa: tuple[int, ...], xs: tuple[float, ...]) -> tuple[int, float]:
    """Sign and log-magnitude of the Schur polynomial ``s_kappa(xs)``.

    Bialternant ratio of generalized Vandermonde determinants, with rows
    for a value of multiplicity ``m`` replaced by its first ``m - 1``
    derivatives (the coalescence limit of the plain ratio; the ``1/r!``
    Taylor factors cancel between numerator and denominator).  Arguments
    are rescaled by the largest magnitude and every determinant row is
    max-normalized so the computation stays in range for exponents in
    the hundreds.
    """
    n = len(xs)
    scale = max(abs(v) for v in xs)
    # Sort so equal values are adjacent: coalescence handling below
    # groups multiplicities by runs, and the polynomial is symmetric.
    scaled = sorted((v / scale for v in xs), reverse=True)
    groups: list[tuple[float, int]] = []
    for value in scaled:
        if groups and value == groups[-1][0]:
            groups[-1] = (value, groups[-1][1] + 1)
        else:
            groups.append((value, 1))

    padded = tuple(kappa) + (0,) * (n - len(kappa))
    top_exps = [padded[j] + n - 1 - j for j in range(n)]
    bottom_exps = [n - 1 - j for j in range(n)]

    def det_signlog(exps: list[int]) -> tuple[int, float]:
        rows = []
        log_factors = 0.0
        for value, mult in groups:
            for deriv in range(mult):
                row = []
                for c in exps:
                    fall = 1.0
                    for r in range(deriv):
                        fall *= c - r
                    row.append(fall * value ** (c - deriv) if c >= deriv else 0.0)
                row = np.asarray(row)
                peak = np.max(np.abs(row))
                if peak == 0.0:
                    return 0, -math.inf
                log_factors += math.log(peak)
                rows.append(row / peak)
        sign, logdet = np.linalg.slogdet(np.asarray(rows))
        if sign == 0.0:
            return 0, -math.inf
        return int(sign), logdet + log_factors

    sign_top, log_top = det_signlog(top_exps)
    sign_bot, log_bot = det_signlog(bottom_exps)
    if sign_top == 0:
        return 0, -math.inf
    if sign_bot == 0:
        raise ArithmeticError("degenerate denominator in bialternant ratio")
    k = sum(kappa)
    return sign_top * sign_bot, k * math.log(scale) + log_top - log_bot


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


@dataclass(frozen=True, slots=True)
class _StripLayer:
    """The horizontal strips ``kappa/mu`` of one weight layer ``|kappa| = k``."""

    start: int
    count: int
    owner: np.ndarray
    mu: np.ndarray
    size: np.ndarray
    psi: np.ndarray
    ends: list[int]
    log_norm: np.ndarray


class _StripTable:
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
        self.alpha = alpha
        self.parts = parts
        self.layers: list[_StripLayer] = []
        self.offsets = [0]  # number of the first partition of each weight
        self.pairs = 0
        self._top = -1
        self._hooks = np.ones((parts, 1))
        self._lower = np.zeros((parts, 1))
        self._ranks: list[np.ndarray] = []
        self._lock = threading.Lock()

    def layer(self, k: int) -> _StripLayer:
        """Layer ``k``, built (with every layer below it) on first use."""
        if k >= len(self.layers):
            with self._lock:
                while len(self.layers) <= k:
                    self._build(len(self.layers))
        return self.layers[k]

    def _build(self, k: int) -> None:
        parts = self.parts
        if k > self._top:
            self._top = max(2 * self._top, k, 16)
            self._hooks = _hook_ratio_products(self.alpha, parts - 1, self._top)
            self._lower = _hook_log_sums(self.alpha, parts - 1, self._top)
            self._ranks = _rank_tables(parts, self._top)
        kappas = partitions_of_weight(k, parts)
        count = len(kappas)
        padded = np.zeros((count, parts + 1), dtype=np.int32)
        for row, kappa in enumerate(kappas):
            padded[row, : len(kappa)] = kappa
        # mu_i runs over kappa_{i+1}..kappa_i; the last part of mu is 0.
        radix = padded[:, :parts] - padded[:, 1:] + 1
        radix[:, parts - 1] = 1
        per_kappa = radix.prod(axis=1)
        total = int(per_kappa.sum())
        if self.pairs + total > MAX_STRIP_PAIRS:
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


class JackTable:
    """``C_kappa(x)`` for every partition, one weight layer at a time.

    The evaluator for arguments with more than one distinct value.  It
    tabulates ``P_kappa(x_1..x_j / s)``, ``j = 1..m``, with ``s =
    max|x|``, by the branching rule over horizontal strips (Koev and
    Edelman, Math. Comp. 75 (2006) 833), reading the coefficients from the
    shared strip table of ``(alpha, m)``.  Arguments that are all
    nonpositive are tabulated at ``|x|`` and given the sign
    ``(-1)**|kappa|``, so the table sums no terms of mixed sign.

    Parameters
    ----------
    x : tuple of float
        Argument values; zeros count as variables.
    alpha : float
        Positive deformation parameter.
    """

    def __init__(self, x: tuple[float, ...], alpha: float) -> None:
        scale = max(abs(v) for v in x)
        self._negative = all(v <= 0.0 for v in x)
        if self._negative:
            x = tuple(-v for v in x)
        self._y = sorted(v / scale for v in x)
        self._log_scale = math.log(scale)
        parts = len(self._y)
        self._strips = _strip_table(float(alpha), parts)
        self._values = np.zeros((parts + 1, 64))
        self._values[0, 0] = 1.0
        self._powers = np.zeros((parts, 16))
        self._done = -1

    def layer(self, k: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Layer ``k``, over ``partitions_of_weight(k, m)``.

        Returns
        -------
        tuple
            ``(values, log_factors, sign)``, two arrays and an int, with
            ``C_kappa(x) = sign * values[i] * exp(log_factors[i])`` for the
            ``i``-th partition.  A value below the float range of the
            scaled table reads 0.  ``values`` is a read-only view.
        """
        while self._done < k:
            self._extend(self._done + 1)
        strips = self._strips.layer(k)
        values = self._values[-1, strips.start : strips.start + strips.count]
        values.flags.writeable = False
        log_factors = strips.log_norm + k * self._log_scale
        return values, log_factors, -1 if self._negative and k % 2 else 1

    def _extend(self, k: int) -> None:
        strips = self._strips.layer(k)
        start = strips.start
        stop = start + strips.count
        if stop > self._values.shape[1]:
            grown = np.zeros((self._values.shape[0], max(2 * self._values.shape[1], stop)))
            grown[:, :start] = self._values[:, :start]
            self._values = grown
        if k >= self._powers.shape[1]:
            grown = np.zeros((self._powers.shape[0], 2 * k))
            grown[:, :k] = self._powers[:, :k]
            self._powers = grown
        self._powers[:, k] = [y**k for y in self._y]
        values = self._values
        for j in range(1, values.shape[0]):
            end = strips.ends[j - 1]
            terms = values[j - 1][strips.mu[:end]] * self._powers[j - 1][strips.size[:end]]
            values[j, start:stop] = np.bincount(
                strips.owner[:end], weights=terms * strips.psi[:end], minlength=strips.count
            )
        self._done = k


def jack_C_eval_signlog(
    kappa: tuple[int, ...], x: tuple[float, ...], alpha: float
) -> tuple[int, float]:
    """Sign and log-magnitude of ``C_kappa(x)`` at parameter ``alpha``.

    Zero arguments are dropped.  One distinct value uses the closed-form
    identity evaluation; more than one builds a :class:`JackTable` up to
    the weight of ``kappa``.

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
    if all(v == xs[0] for v in xs):
        log_id = jack_C_at_identity_log(kappa, alpha, len(xs))
        sign = 1 if xs[0] > 0 or k % 2 == 0 else -1
        return sign, k * math.log(abs(xs[0])) + log_id
    position = partitions_of_weight(k, len(xs)).index(tuple(kappa))
    values, log_factors, sign = JackTable(xs, alpha).layer(k)
    value = float(values[position])
    if value == 0.0:
        return 0, -math.inf
    log_abs = math.log(abs(value)) + float(log_factors[position])
    return (sign if value > 0.0 else -sign), log_abs


def jack_C_oracle_signlog(
    kappa: tuple[int, ...], x: tuple[float, ...], alpha: float
) -> tuple[int, float]:
    """Sign and log-magnitude of ``C_kappa(x)`` by a reference evaluator.

    The Schur bialternant at ``alpha == 1`` and the monomial expansion
    otherwise; one ``kappa`` at a time, with no table.  Tests compare
    :class:`JackTable` against it.  Zero arguments are dropped.
    """
    k = sum(kappa)
    if k == 0:
        return 1, 0.0
    xs = tuple(v for v in x if v != 0.0)
    if len(kappa) > len(xs):
        return 0, -math.inf
    if alpha == 1.0:
        sign, log_s = _schur_signlog(kappa, xs)
        if sign == 0:
            return 0, -math.inf
        log_hook, _ = hook_products_log(kappa, 1.0)
        return sign, math.lgamma(k + 1) - log_hook + log_s

    expansion = jack_in_monomial_basis(kappa, alpha, max_parts=len(xs))
    p_value = sum(coeff * monomial_eval(mu, xs) for mu, coeff in expansion.items())
    if p_value == 0.0:
        return 0, -math.inf
    _, log_lower = hook_products_log(kappa, alpha)
    log_value = k * math.log(alpha) + math.lgamma(k + 1) - log_lower + math.log(abs(p_value))
    return (1 if p_value > 0 else -1), log_value


def jack_C_eval(kappa: tuple[int, ...], x: tuple[float, ...], alpha: float) -> float:
    """Jack polynomial ``C_kappa`` evaluated at the point ``x``.

    Parameters
    ----------
    kappa : tuple of int
        Partition.
    x : tuple of float
        Argument values (any length; zeros are immaterial).
    alpha : float
        Positive deformation parameter.

    Returns
    -------
    float
        ``C_kappa(x)``; zero when ``kappa`` has more parts than ``x``
        has nonzero entries.
    """
    sign, log_abs = jack_C_eval_signlog(kappa, x, alpha)
    if sign == 0:
        return 0.0
    return sign * math.exp(log_abs)
