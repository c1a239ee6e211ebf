"""Integer partitions and the generalized Pochhammer symbol.

Partitions are represented as tuples of weakly decreasing positive
integers; the empty partition is ``()``.  The series of
:mod:`betagap.hypergeom` enumerates them here and builds its Pochhammer
ratios and hook products a whole weight layer at a time;
:func:`gen_pochhammer_signlog` is the one-partition form, which tests
check those layers against.  The per-cell hook products and the closed
form of ``C_kappa(1, ..., 1)`` are test oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from functools import cache

__all__ = [
    "partitions_of_weight",
    "gen_pochhammer_signlog",
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
