"""Reference evaluators of Jack polynomials, one partition at a time.

They check the package's whole-layer evaluators (the strip tables of
``betagap.jack`` and the coefficient layers of ``betagap.hypergeom``) and
share no code with them: from the package they take only the partition
enumeration and the error types (``test_exports.py`` checks this).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache
from itertools import permutations

import numpy as np

from betagap.errors import ResourceLimitError
from betagap.partitions import partitions_of_weight

#: Hard ceiling on the weight accepted by :func:`jack_in_monomial_basis`.
MAX_EXPANSION_WEIGHT = 200


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


def jack_C_monomial_signlog(
    kappa: tuple[int, ...], xs: tuple[float, ...], alpha: float
) -> tuple[int, float]:
    """Sign and log-magnitude of ``C_kappa(xs)`` from the monomial
    expansion, at every ``alpha``; ``xs`` holds no zeros."""
    k = sum(kappa)
    expansion = jack_in_monomial_basis(kappa, alpha, max_parts=len(xs))
    p_value = sum(coeff * monomial_eval(mu, xs) for mu, coeff in expansion.items())
    if p_value == 0.0:
        return 0, -math.inf
    _, log_lower = hook_products_log(kappa, alpha)
    log_value = k * math.log(alpha) + math.lgamma(k + 1) - log_lower + math.log(abs(p_value))
    return (1 if p_value > 0 else -1), log_value


def jack_C_oracle_signlog(
    kappa: tuple[int, ...], x: tuple[float, ...], alpha: float
) -> tuple[int, float]:
    """Sign and log-magnitude of ``C_kappa(x)`` by a reference evaluator.

    The Schur bialternant at ``alpha == 1`` and the monomial expansion
    (:func:`jack_C_monomial_signlog`) otherwise; one ``kappa`` at a
    time, with no table.  Zero arguments are dropped.  The bialternant's
    determinants lose digits as two values coalesce: at ``(1, 1, 0.97,
    0.97)`` it is 2.8e-11 off the expansion, so checks near coalescence
    at ``alpha == 1`` read the expansion instead.
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
    return jack_C_monomial_signlog(kappa, xs, alpha)
