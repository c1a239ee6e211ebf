"""Monte Carlo verification via bidiagonal matrix models.

Samples the Laguerre beta-ensemble with weight ``lambda**(a beta/2)
exp(-beta lambda / 2)`` as the squared singular values of a random
lower-bidiagonal matrix with chi-distributed entries, and estimates
gap probabilities ``E_N(n; (0, s/(4N)))`` empirically.  Eigenvalue
counting uses Sturm-sequence pivots on the symmetric tridiagonal
product matrix, vectorized over batches; the full dense matrix is
never formed, and no eigenvalue is located: the route only counts.

Sampling is deterministic given a seed: work is split into fixed-size
chunks with independently spawned RNG streams, so the estimate is
bit-identical for a fixed seed regardless of the ``threads`` argument
of :func:`estimate_gap` (default 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import counted, require_finite

__all__ = [
    "EnsembleSpec",
    "McEstimate",
    "sample_bidiagonal",
    "estimate_gap",
]

_CHUNK = 4096
_ZERO_CUTOFF = 1e-14  # eigenvalues below this times the trace count as 0


@dataclass(frozen=True)
class EnsembleSpec:
    """Laguerre beta-ensemble parameters.

    ``beta`` is the inverse-temperature (positive and finite), ``a`` the
    exponent parameter of the weight ``lambda**(a beta/2) exp(-beta
    lambda/2)`` (nonnegative and finite), ``N`` the number of eigenvalues
    (a positive integer; integral floats pass and are stored as ``int``).
    """

    beta: float
    a: float
    N: int

    def __post_init__(self) -> None:
        require_finite("beta", self.beta, positive=True)
        require_finite("a", self.a)
        N = counted(self.N, f"N must be a positive integer, got {self.N}", 1)
        object.__setattr__(self, "N", N)


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
    return _chi(rng, diag_dof, (size, spec.N)), _chi(rng, sub_dof, (size, spec.N - 1))


def _tridiagonal(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal entries of ``B B^T`` for a batch of bidiagonal ``B``."""
    diag = b * b
    diag[:, 1:] += c * c
    off = b[:, :-1] * c
    return diag, off


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


def _chunks(samples: int, seed: int) -> list[tuple[int, np.random.SeedSequence]]:
    """``(size, seed sequence)`` of each chunk of a seeded run."""
    children = np.random.SeedSequence(seed).spawn(-(-samples // _CHUNK))
    return [(min(_CHUNK, samples - idx * _CHUNK), child) for idx, child in enumerate(children)]


def _gap_hits(
    spec: EnsembleSpec, threshold: float, n: int, chunk: tuple[int, np.random.SeedSequence]
) -> int:
    """Samples in one chunk with exactly ``n`` eigenvalues below the threshold."""
    size, child = chunk
    b, c = sample_bidiagonal(spec, np.random.default_rng(child), size=size)
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
        Gap size in hard-edge units; finite and nonnegative.
    n : int
        Number of eigenvalues conditioned to lie in the gap.
    samples : int
        Number of Monte Carlo samples, at least 1000.
    seed : int
        RNG seed, a nonnegative integer.  Fixed ``(spec, s, n, samples,
        seed)`` gives a bit-identical estimate, independent of ``threads``.
    threads : int
        Worker threads over the sample chunks, an integer of at least 1;
        at most one thread per chunk is started.  Integral floats pass.

    Returns
    -------
    McEstimate
        Empirical probability with ``stderr = sqrt(p (1 - p) / samples)``.
    """
    samples = counted(samples, f"samples must be at least 1000, got {samples}", 1000)
    require_finite("s", s)
    n = counted(n, f"n must be a nonnegative integer, got {n}")
    threads = counted(threads, f"threads must be at least 1, got {threads}", 1)
    seed = counted(seed, f"seed must be a nonnegative integer, got {seed}")
    threshold = s / (4.0 * spec.N)
    chunks = _chunks(samples, seed)
    hits_in = partial(_gap_hits, spec, threshold, n)
    if threads > 1:
        # imported here: the pool's modules cost a single-threaded process
        # several milliseconds of start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
            hits = sum(pool.map(hits_in, chunks))
    else:
        hits = sum(map(hits_in, chunks))
    p_hat = hits / samples
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return McEstimate(probability=p_hat, stderr=stderr, samples=samples, seed=seed)
