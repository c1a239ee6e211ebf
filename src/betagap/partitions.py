"""Integer partitions and the generalized Pochhammer symbol.

Partitions are represented as tuples of weakly decreasing positive
integers; the empty partition is ``()``.  :func:`partitions_of_weight`
enumerates them in that form, and :func:`partition_array` holds the same
layer, in the same order, as one zero-padded integer array, built from
the arrays of fewer parts a block per first part.  The series of
:mod:`betagap.hypergeom` and the strip table of :mod:`betagap.jack` read
the arrays and build their Pochhammer ratios and hook products a whole
weight layer at a time; :func:`gen_pochhammer_signlog` is the
one-partition form, which tests check those layers against.  The
per-cell hook products and the closed form of ``C_kappa(1, ..., 1)`` are
test oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = [
    "partitions_of_weight",
    "partition_array",
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


@cache
def partition_array(k: int, parts: int) -> np.ndarray:
    """The partitions of ``k`` into at most ``parts`` parts as one array.

    Row ``i`` is the ``i``-th partition of ``partitions_of_weight(k,
    parts)``, padded with zeros to ``parts + 1`` columns, so every row
    ends in a zero.  The array is cached and read-only.

    Block ``j`` of the rows, ``j = k, k - 1, ..., ceil(k / parts)``, holds
    the partitions of first part ``j``: ``j`` before each row of
    ``partition_array(k - j, parts - 1)`` whose first part is at most
    ``j``, which is a suffix of that array, since its first parts
    decrease.  So a layer costs one copy per block, not a loop over its
    partitions.
    """
    if k < 0:
        raise ValueError(f"weight must be nonnegative, got {k}")
    if parts < 0:
        raise ValueError(f"parts must be nonnegative, got {parts}")
    if k == 0 or parts == 0:
        out = np.zeros((int(k == 0), parts + 1), dtype=np.intp)
    else:
        firsts = range(k, -(-k // parts) - 1, -1)  # a first part below k / parts is too small
        rests = []
        for j in firsts:
            rest = partition_array(k - j, parts - 1)
            rests.append(rest[np.count_nonzero(rest[:, 0] > j) :])
        sizes = [len(rest) for rest in rests]
        out = np.empty((sum(sizes), parts + 1), dtype=np.intp)
        out[:, 0] = np.repeat(firsts, sizes)
        np.concatenate(rests, out=out[:, 1:])
    out.flags.writeable = False
    return out


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
