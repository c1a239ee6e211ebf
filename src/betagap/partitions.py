"""Integer partitions, hook products, and generalized Pochhammer symbols.

Partitions are represented as tuples of weakly decreasing positive
integers; the empty partition is ``()``.  Cells of the Young diagram are
indexed ``(i, j)`` with 1-based row ``i`` and column ``j``.  Products
over cells are returned as logarithms: deep series reach magnitudes far
outside the float range.
"""

from __future__ import annotations

import math
from functools import cache

__all__ = [
    "partitions_of_weight",
    "conjugate",
    "dominates",
    "hook_products_log",
    "gen_pochhammer_signlog",
    "jack_C_at_identity_log",
]


@cache
def partitions_of_weight(k: int, max_parts: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Enumerate the partitions of ``k`` in reverse-lexicographic order.

    Parameters
    ----------
    k : int
        Weight (the sum of the parts); must be nonnegative.
    max_parts : int, optional
        If given, only partitions with at most this many parts are
        produced.

    Returns
    -------
    tuple of tuple of int
        All partitions of ``k``, largest-first lexicographically, so the
        one-row partition ``(k,)`` comes first and the all-ones
        partition last.  ``k == 0`` yields the empty partition only.
    """
    if k < 0:
        raise ValueError(f"weight must be nonnegative, got {k}")
    if max_parts is not None and max_parts < 0:
        raise ValueError(f"max_parts must be nonnegative, got {max_parts}")

    out: list[tuple[int, ...]] = []

    def descend(remaining: int, largest: int, prefix: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        if max_parts is not None and len(prefix) == max_parts:
            return
        for part in range(min(largest, remaining), 0, -1):
            descend(remaining - part, part, prefix + (part,))

    descend(k, k, ())
    return tuple(out)


def conjugate(kappa: tuple[int, ...]) -> tuple[int, ...]:
    """Transpose a partition's Young diagram."""
    if not kappa:
        return ()
    return tuple(sum(1 for part in kappa if part >= j) for j in range(1, kappa[0] + 1))


def dominates(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """Return True when ``lam`` dominates ``mu`` (equal weights assumed)."""
    partial_lam = 0
    partial_mu = 0
    for i in range(max(len(lam), len(mu))):
        partial_lam += lam[i] if i < len(lam) else 0
        partial_mu += mu[i] if i < len(mu) else 0
        if partial_lam < partial_mu:
            return False
    return True


def _cells(kappa: tuple[int, ...]):
    """Yield (arm, leg) for every cell of the diagram."""
    kp = conjugate(kappa)
    for i, row in enumerate(kappa, start=1):
        for j in range(1, row + 1):
            yield row - j, kp[j - 1] - i


def hook_products_log(kappa: tuple[int, ...], alpha: float) -> tuple[float, float]:
    """Logarithms of the upper and lower alpha-deformed hook products.

    Per cell the upper hook is ``leg + 1 + alpha*arm`` and the lower
    hook is ``leg + alpha*(arm + 1)``; both products are 1 for the empty
    partition.  Accumulated cell by cell so deep partitions whose hook
    products overflow a float stay representable.
    """
    log_upper = 0.0
    log_lower = 0.0
    for arm, leg in _cells(kappa):
        log_upper += math.log(leg + 1 + alpha * arm)
        log_lower += math.log(leg + alpha * (arm + 1))
    return log_upper, log_lower


def gen_pochhammer_signlog(x: float, kappa: tuple[int, ...], alpha: float) -> tuple[int, float]:
    """Sign and log-magnitude of the generalized Pochhammer symbol.

    ``[x]_kappa`` at parameter ``alpha`` is ``prod_j (x - (j-1)/alpha)_(kappa_j)``
    with the ordinary rising factorial in each row; it is 1 for the empty
    partition.  Exact zeros (negative-integer ladder hits) are preserved,
    which is what terminates hypergeometric series with negative-integer
    upper parameters.

    Returns
    -------
    tuple
        ``(sign, log_abs)`` with ``sign`` in {-1, 0, 1}; a zero factor
        gives ``(0, -inf)``.
    """
    sign = 1
    log_abs = 0.0
    for j, part in enumerate(kappa, start=1):
        base = x - (j - 1) / alpha
        for t in range(part):
            factor = base + t
            if factor == 0.0:
                return 0, -math.inf
            if factor < 0.0:
                sign = -sign
            log_abs += math.log(abs(factor))
    return sign, log_abs


def jack_C_at_identity_log(kappa: tuple[int, ...], alpha: float, m: int) -> float:
    """Logarithm of the Jack polynomial ``C_kappa`` at ``m`` ones.

    ``C_kappa(1, ..., 1) = alpha**|kappa| |kappa|! prod_cells (m - (i-1) +
    alpha*(j-1)) / (upper * lower hook products)``, strictly positive
    when ``len(kappa) <= m``; with more parts than variables it vanishes
    and the logarithm is ``-inf``.
    """
    if len(kappa) > m:
        return -math.inf
    k = sum(kappa)
    log_upper, log_lower = hook_products_log(kappa, alpha)
    log_value = k * math.log(alpha) + math.lgamma(k + 1) - log_upper - log_lower
    for i, row in enumerate(kappa, start=1):
        for j in range(1, row + 1):
            log_value += math.log(m - (i - 1) + alpha * (j - 1))
    return log_value
