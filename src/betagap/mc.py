"""Monte Carlo verification via bidiagonal matrix models.

Samples the Laguerre beta-ensemble with weight ``lambda**(a beta/2)
exp(-beta lambda / 2)`` as the squared singular values of a random
lower-bidiagonal matrix with chi-distributed entries, and estimates
gap probabilities ``E_N(n; (0, s/(4N)))`` empirically.  Eigenvalue
counting uses Sturm-sequence pivots on the symmetric tridiagonal
product matrix, vectorized over batches; the full dense matrix is
never formed.

Sampling is deterministic given a seed: work is split into fixed-size
chunks with independently spawned RNG streams, so the estimate is
bit-identical for a fixed seed regardless of the ``threads`` argument
of :func:`estimate_gap` (default 1).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EnsembleSpec",
    "McEstimate",
    "sample_bidiagonal",
    "sample_spectrum",
    "sample_smallest",
    "smallest_eigenvalues",
    "estimate_gap",
]

_CHUNK = 4096
_ZERO_CUTOFF = 1e-14  # eigenvalues below this times the trace count as 0


@dataclass(frozen=True)
class EnsembleSpec:
    """Laguerre beta-ensemble parameters.

    ``beta`` is the inverse-temperature (positive), ``a`` the exponent
    parameter of the weight ``lambda**(a beta/2) exp(-beta lambda/2)``
    (nonnegative), ``N`` the number of eigenvalues.
    """

    beta: float
    a: float
    N: int

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.a < 0:
            raise ValueError(f"a must be nonnegative, got {self.a}")
        if self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N}")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo probability estimate with its binomial error bar."""

    probability: float
    stderr: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {self.probability}")
        if self.stderr < 0:
            raise ValueError(f"stderr must be nonnegative, got {self.stderr}")
        if self.samples < 1:
            raise ValueError(f"samples must be positive, got {self.samples}")


def _chi_degrees(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    """Chi degrees of freedom for the bidiagonal model.

    Row ``i`` (1-based) of the lower-bidiagonal matrix ``B`` has
    diagonal entry ``chi_{beta (a + N - i) + 2}`` and subdiagonal entry
    ``chi_{beta (N - i)}``; the eigenvalues of ``B B^T / beta`` then
    carry the ensemble's joint density.  The map is fixed by matching
    the sampled joint density to the weight (checked against the
    terminating-series gap probability in the test suite).
    """
    i = np.arange(1, spec.N + 1, dtype=float)
    diag_dof = spec.beta * (spec.a + spec.N - i) + 2.0
    sub_dof = spec.beta * (spec.N - i[:-1])
    return diag_dof, sub_dof


def _chi(rng: np.random.Generator, dof: np.ndarray, size: tuple[int, ...]) -> np.ndarray:
    """Chi-distributed draws via squared-gamma sampling."""
    return np.sqrt(2.0 * rng.standard_gamma(dof / 2.0, size=size))


def sample_bidiagonal(
    spec: EnsembleSpec, rng: np.random.Generator, size: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a batch of bidiagonal factors.

    Parameters
    ----------
    spec : EnsembleSpec
        Ensemble parameters.
    rng : numpy.random.Generator
        Source of randomness.
    size : int
        Number of independent matrices.

    Returns
    -------
    diag, subdiag : numpy.ndarray
        Arrays of shape ``(size, N)`` and ``(size, N - 1)`` holding the
        bidiagonal entries of each sampled factor ``B``.
    """
    diag_dof, sub_dof = _chi_degrees(spec)
    b = _chi(rng, diag_dof, (size, spec.N))
    if spec.N == 1:
        c = np.zeros((size, 0))
    else:
        c = _chi(rng, sub_dof, (size, spec.N - 1))
    return b, c


def _tridiagonal(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal entries of ``B B^T`` for a batch of bidiagonal ``B``."""
    diag = b * b
    diag[:, 1:] += c * c
    off = b[:, :-1] * c
    return diag, off


def sample_spectrum(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one spectrum of the ensemble, sorted ascending.

    Eigenvalues are computed from the tridiagonal product matrix
    directly (no dense matrix is formed).

    Parameters
    ----------
    spec : EnsembleSpec
        Ensemble parameters.
    rng : numpy.random.Generator
        Source of randomness.

    Returns
    -------
    numpy.ndarray
        ``N`` positive eigenvalues distributed with joint density
        proportional to ``prod w(lambda_i) * |Delta(lambda)|**beta``
        for the weight ``w(x) = x**(a beta/2) exp(-beta x/2)``.
    """
    b, c = sample_bidiagonal(spec, rng, size=1)
    diag, off = _tridiagonal(b, c)
    if spec.N == 1:
        return diag[0] / spec.beta
    from scipy.linalg import eigvalsh_tridiagonal

    return eigvalsh_tridiagonal(diag[0], off[0]) / spec.beta


def _count_below(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Eigenvalues of each tridiagonal matrix strictly below ``x``.

    Vectorized Sturm/LDL pivot count: the number of negative pivots of
    ``T - x I`` equals the number of eigenvalues below ``x``.  An exactly
    zero pivot is replaced by ``-1e-300`` before it is counted, so the
    pivot that is counted is the one carried into the next step.
    """
    batch, n = diag.shape
    x = np.broadcast_to(np.asarray(x, dtype=float), (batch,))
    q = diag[:, 0] - x
    q = np.where(q == 0.0, -1e-300, q)
    count = (q < 0.0).astype(np.int64)
    for i in range(1, n):
        q = diag[:, i] - x - off[:, i - 1] ** 2 / q
        q = np.where(q == 0.0, -1e-300, q)
        count += q < 0.0
    return count


def _batch_smallest(
    diag: np.ndarray, off: np.ndarray, rel_tol: float = 1e-12
) -> np.ndarray:
    """Smallest eigenvalue of each tridiagonal matrix, by bisection."""
    batch, n = diag.shape
    hi = diag + np.abs(np.pad(off, ((0, 0), (1, 0)))) + np.abs(
        np.pad(off, ((0, 0), (0, 1)))
    )
    hi = np.max(hi, axis=1)
    lo = np.zeros(batch)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = _count_below(diag, off, mid) >= 1
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
        if np.all(hi - lo <= rel_tol * np.maximum(hi, 1e-300)):
            break
    return 0.5 * (lo + hi)


def smallest_eigenvalues(
    diag: np.ndarray, subdiag: np.ndarray, k: int, rel_tol: float = 1e-12
) -> np.ndarray:
    """The ``k`` smallest squared singular values of a bidiagonal matrix.

    Parameters
    ----------
    diag, subdiag : numpy.ndarray
        Diagonal (length ``N``) and subdiagonal (length ``N - 1``)
        entries of a lower-bidiagonal matrix ``B``.
    k : int
        How many of the smallest eigenvalues of ``B B^T`` to return,
        ``1 <= k <= N``.
    rel_tol : float
        Relative bisection tolerance.

    Returns
    -------
    numpy.ndarray
        The ``k`` smallest eigenvalues of ``B B^T``, ascending, each
        located by Sturm-count bisection (no dense matrix is formed).
    """
    diag = np.asarray(diag, dtype=float)
    subdiag = np.asarray(subdiag, dtype=float)
    n = diag.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    t_diag, t_off = _tridiagonal(diag[None, :], subdiag[None, :])
    gersh = float(
        np.max(
            t_diag[0]
            + np.abs(np.pad(t_off[0], (1, 0)))
            + np.abs(np.pad(t_off[0], (0, 1)))
        )
    )
    values = np.empty(k)
    for j in range(1, k + 1):
        lo, hi = 0.0, gersh
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if int(_count_below(t_diag, t_off, np.array([mid]))[0]) >= j:
                hi = mid
            else:
                lo = mid
            if hi - lo <= rel_tol * max(hi, 1e-300):
                break
        values[j - 1] = 0.5 * (lo + hi)
    return values


def sample_smallest(spec: EnsembleSpec, samples: int, seed: int) -> np.ndarray:
    """Draw smallest eigenvalues of the ensemble, vectorized.

    Parameters
    ----------
    spec : EnsembleSpec
        Ensemble parameters.
    samples : int
        Number of independent draws.
    seed : int
        RNG seed; the result is deterministic given the seed.

    Returns
    -------
    numpy.ndarray
        ``samples`` independent draws of the smallest eigenvalue.
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    out = np.empty(samples)
    children = np.random.SeedSequence(seed).spawn(-(-samples // _CHUNK))
    for idx, child in enumerate(children):
        lo = idx * _CHUNK
        size = min(_CHUNK, samples - lo)
        rng = np.random.default_rng(child)
        b, c = sample_bidiagonal(spec, rng, size=size)
        diag, off = _tridiagonal(b, c)
        out[lo : lo + size] = _batch_smallest(diag, off) / spec.beta
    return out


def _gap_hits(
    spec: EnsembleSpec, threshold: float, n: int, size: int, child: np.random.SeedSequence
) -> int:
    """Samples in one chunk with exactly ``n`` eigenvalues below the threshold."""
    rng = np.random.default_rng(child)
    b, c = sample_bidiagonal(spec, rng, size=size)
    diag, off = _tridiagonal(b, c)
    counts = _count_below(diag, off, spec.beta * threshold)
    if threshold > 0.0:
        # Guard against round-off at the hard edge: eigenvalues below a
        # cutoff proportional to each sample's trace are treated as 0.
        cutoff = _ZERO_CUTOFF * np.sum(diag, axis=1) / spec.beta
        cutoff = np.minimum(cutoff, threshold / 2.0)
        counts = counts - _count_below(diag, off, spec.beta * cutoff)
    return int(np.sum(counts == n))


def estimate_gap(
    spec: EnsembleSpec,
    s: float,
    n: int = 0,
    samples: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> McEstimate:
    """Estimate the probability of exactly ``n`` eigenvalues in a gap.

    The gap is ``(0, s / (4N))`` on the eigenvalue axis — the hard-edge
    scaling under which the finite-size probability converges to the
    hard-edge limit as ``N`` grows.

    Parameters
    ----------
    spec : EnsembleSpec
        Ensemble parameters.
    s : float
        Gap size in hard-edge units; nonnegative.
    n : int
        Number of eigenvalues conditioned to lie in the gap.
    samples : int
        Number of Monte Carlo samples, at least 1000.
    seed : int
        RNG seed.  Fixed ``(spec, s, n, samples, seed)`` gives a
        bit-identical estimate, independent of ``threads``.
    threads : int
        Worker threads over the sample chunks, at least 1; at most one
        thread per chunk is started.

    Returns
    -------
    McEstimate
        Empirical probability with ``stderr = sqrt(p (1 - p) / samples)``.
    """
    if samples < 1000:
        raise ValueError(f"samples must be at least 1000, got {samples}")
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if n < 0 or n != int(n):
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    threshold = s / (4.0 * spec.N)
    children = np.random.SeedSequence(seed).spawn(-(-samples // _CHUNK))
    sizes = [
        min(_CHUNK, samples - idx * _CHUNK) for idx in range(len(children))
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(children))) as pool:
            hits = sum(
                pool.map(
                    lambda item: _gap_hits(spec, threshold, int(n), item[0], item[1]),
                    zip(sizes, children),
                )
            )
    else:
        hits = sum(
            _gap_hits(spec, threshold, int(n), size, child)
            for size, child in zip(sizes, children)
        )
    p_hat = hits / samples
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return McEstimate(probability=p_hat, stderr=stderr, samples=samples, seed=seed)
