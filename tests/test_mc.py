"""Tests for the tridiagonal Monte Carlo sampler and gap estimator."""

from __future__ import annotations

import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betagap import mc
from betagap.gap import exact_E0_finiteN, exact_En_finiteN
from betagap.mc import (
    EnsembleSpec,
    _count_below,
    _gap_hits,
    _tridiagonal,
    estimate_gap,
    sample_bidiagonal,
)


# ----------------------------------------------------------------- validation


def test_spec_validation() -> None:
    spec = EnsembleSpec(beta=2.0, a=1.0, N=3)
    assert spec.N == 3
    with pytest.raises(ValueError):
        EnsembleSpec(beta=0.0, a=1.0, N=3)
    with pytest.raises(ValueError):
        EnsembleSpec(beta=2.0, a=-0.2, N=3)
    with pytest.raises(ValueError):
        EnsembleSpec(beta=2.0, a=1.0, N=0)
    # A NaN ``a`` passes ``a < 0`` and would sample NaN chi degrees.
    for beta, a in ((2.0, math.nan), (2.0, math.inf), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            EnsembleSpec(beta=beta, a=a, N=5)


def test_estimate_validation() -> None:
    spec = EnsembleSpec(beta=2.0, a=1.0, N=3)
    with pytest.raises(ValueError):
        estimate_gap(spec, 1.0, samples=500, seed=0)
    with pytest.raises(ValueError):
        estimate_gap(spec, -1.0, samples=1000, seed=0)
    for s in (math.nan, math.inf):
        with pytest.raises(ValueError, match="s must be finite"):
            estimate_gap(spec, s, samples=1000, seed=0)


def test_counts_take_integral_floats() -> None:
    # EnsembleSpec(2, 1, 4.0) and samples=1000.0 used to end in TypeError,
    # although exact_E0_finiteN accepts N = 4.0.
    spec = EnsembleSpec(2.0, 1.0, 4.0)
    assert isinstance(spec.N, int)
    want = estimate_gap(EnsembleSpec(2.0, 1.0, 4), 1.0, samples=1000, seed=3)
    assert estimate_gap(spec, 1.0, samples=1000.0, seed=3) == want


class _NoPool:
    """Stands in for the thread pool, which ``estimate_gap`` imports from
    ``concurrent.futures`` only when ``threads > 1``: records
    ``max_workers``, runs serially."""

    started: list[int] = []

    def __init__(self, max_workers: int) -> None:
        self.started.append(max_workers)

    def __enter__(self) -> _NoPool:
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def map(self, func, items):
        return map(func, items)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        # numpy's TypeError, a message without "seed", and a run with 2.5 threads
        ({"seed": 1.5}, "^seed must be a nonnegative integer, got 1.5$"),
        ({"seed": -1}, "^seed must be a nonnegative integer, got -1$"),
        ({"threads": 2.5}, "^threads must be at least 1, got 2.5$"),
    ],
    ids=["seed-fraction", "seed-negative", "threads-fraction"],
)
def test_seed_and_threads_must_be_counts(
    kwargs: dict, message: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _NoPool)
    monkeypatch.setattr(_NoPool, "started", [])
    spec = EnsembleSpec(2.0, 1.0, 4)
    with pytest.raises(ValueError, match=message):
        estimate_gap(spec, 1.0, samples=20_000, **{"seed": 3, "threads": 2, **kwargs})
    assert _NoPool.started == []


def test_integral_float_threads_run_as_an_int(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _NoPool)
    monkeypatch.setattr(_NoPool, "started", [])
    spec = EnsembleSpec(2.0, 1.0, 4)
    got = estimate_gap(spec, 1.0, samples=20_000, seed=3, threads=2.0)
    assert _NoPool.started == [2]
    assert got == estimate_gap(spec, 1.0, samples=20_000, seed=3)


# ------------------------------------------------------------- Sturm counts
# _count_below against np.linalg.eigvalsh on the same matrix B B^T, at
# thresholds between the dense eigenvalues and beside the outermost ones.


def _dense_and_counts(b, c) -> tuple[list[int], list[int]]:
    """Eigenvalues of ``B B^T`` below each threshold, by ``np.linalg.eigvalsh``
    and by :func:`_count_below`, for the lower-bidiagonal ``B`` of ``b``
    and ``c``."""
    b, c = np.asarray(b, dtype=float), np.asarray(c, dtype=float)
    B = np.diag(b) + np.diag(c, -1)
    lam = np.linalg.eigvalsh(B @ B.T)
    thresholds = np.concatenate([[lam[0] / 2.0], (lam[:-1] + lam[1:]) / 2.0, [2.0 * lam[-1]]])
    diag, off = _tridiagonal(b[None, :], c[None, :])
    dense = [int(np.sum(lam < x)) for x in thresholds]
    counts = [int(_count_below(diag, off, x)[0]) for x in thresholds]
    return dense, counts


def test_sampler_shapes() -> None:
    spec = EnsembleSpec(beta=2.0, a=1.0, N=6)
    rng = np.random.default_rng(0)
    b, c = sample_bidiagonal(spec, rng, 17)
    assert b.shape == (17, 6) and c.shape == (17, 5)
    assert np.all(b > 0) and np.all(c > 0)


def test_sampler_at_one_eigenvalue() -> None:
    # A 1x1 factor has no subdiagonal: an empty chi draw.
    b, c = sample_bidiagonal(EnsembleSpec(beta=2.0, a=1.0, N=1), np.random.default_rng(0), 17)
    assert b.shape == (17, 1) and c.shape == (17, 0)
    assert np.all(b > 0)


def test_eigensolver_closed_forms() -> None:
    # 1x1: B B^T = [4].  2x2 lower bidiagonal: B B^T = [[4, 2], [2, 10]] has
    # eigenvalues 7 -+ sqrt(13).
    diag, off = _tridiagonal(np.array([[2.0]]), np.zeros((1, 0)))
    assert [int(_count_below(diag, off, x)[0]) for x in (3.9, 4.1)] == [0, 1]
    diag, off = _tridiagonal(np.array([[2.0, 3.0]]), np.array([[1.0]]))
    low, high = 7.0 - math.sqrt(13.0), 7.0 + math.sqrt(13.0)
    thresholds = (low * (1 - 1e-12), low * (1 + 1e-12), high * (1 - 1e-12), high * (1 + 1e-12))
    assert [int(_count_below(diag, off, x)[0]) for x in thresholds] == [0, 1, 1, 2]
    assert _dense_and_counts([2.0, 3.0], [1.0]) == ([0, 1, 2], [0, 1, 2])


def test_eigensolver_matches_dense() -> None:
    rng = np.random.default_rng(3)
    dense, counts = _dense_and_counts(rng.uniform(0.5, 2.0, 6), rng.uniform(0.2, 1.5, 5))
    assert counts == dense == list(range(7))


@pytest.mark.parametrize(
    "b, c",
    [([1.0, 1.0, 1.0], [1.0, 1.0]), ([2.0] * 5, [2.0] * 4)],
)
def test_eigensolver_tied_entries(b: list[float], c: list[float]) -> None:
    # Equal entries make exact zero pivots.
    dense, counts = _dense_and_counts(b, c)
    assert counts == dense == list(range(len(b) + 1))


def test_zero_first_pivot_counts_as_negative() -> None:
    # T = [[1, 1], [1, 2]] has eigenvalues (3 -+ sqrt 5) / 2; at x = 1 the
    # first pivot is exactly zero and one eigenvalue lies below x.
    count = _count_below(np.array([[1.0, 2.0]]), np.array([[1.0]]), np.array([1.0]))
    assert count.tolist() == [1]


@settings(deadline=None, max_examples=30)
@given(
    entries=st.lists(
        st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
        min_size=3,
        max_size=15,
    )
)
def test_eigensolver_property(entries: list[float]) -> None:
    n = (len(entries) + 1) // 2
    dense, counts = _dense_and_counts(entries[:n], entries[n : 2 * n - 1])
    assert counts == dense


def test_counts_on_pinned_matrices() -> None:
    # Fixed entries whose six eigenvalues span 0.13 to 7.0.
    b = [0.75, 1.5, 0.5, 2.0, 1.25, 1.0]
    c = [0.5, 1.0, 0.25, 1.5, 0.75]
    assert _dense_and_counts(b, c) == (list(range(7)), list(range(7)))


def test_cutoff_sweep_on_a_pinned_batch(monkeypatch: pytest.MonkeyPatch) -> None:
    # B B^T of rows 0 and 3 has an eigenvalue near 1e-18, below 1e-14 times
    # its trace, which the cutoff sweep takes back; row 1 has one at 0.069
    # and row 2 none below beta * threshold = 0.5.
    b = np.array([[1e-9, 1.0, 1.5, 2.0], [0.3, 1.0, 1.5, 2.0], [1.0, 1.2, 1.5, 2.0],
                  [1e-9, 0.2, 1.5, 2.0]])
    c = np.full((4, 3), 0.5)
    monkeypatch.setattr(mc, "sample_bidiagonal", lambda *args, **kwargs: (b, c))
    spec, threshold, chunk = EnsembleSpec(2.0, 1.0, 4), 0.25, (4, np.random.SeedSequence(0))
    diag, off = _tridiagonal(b, c)
    assert _count_below(diag, off, spec.beta * threshold).tolist() == [1, 1, 0, 2]
    assert [_gap_hits(spec, threshold, n, chunk) for n in range(3)] == [2, 2, 0]


# ----------------------------------------------------------------- sampler law


def test_trace_mean_identity() -> None:
    # E[sum lambda] = N^2 + N (a - 1) + 2 N / beta exactly for this
    # bidiagonal model; checked at 4 estimated standard errors.
    spec = EnsembleSpec(beta=2.0, a=1.0, N=20)
    rng = np.random.default_rng(7)
    b, c = sample_bidiagonal(spec, rng, 4000)
    lam_sum = ((b**2).sum(axis=1) + (c**2).sum(axis=1)) / spec.beta
    exact = 20.0**2 + 20.0 * (1.0 - 1.0) + 2.0 * 20.0 / 2.0
    var = 2.0 * (2.0 * 1.0 * 20.0 + 2.0 * 20.0 * 19.0 + 2.0 * 20.0) / 2.0**2
    stderr = math.sqrt(var / 4000.0)
    assert abs(lam_sum.mean() - exact) < 4.0 * stderr


def test_exponential_law_at_zero_parameter() -> None:
    # P(no eigenvalue below t) = exp(-N t) at beta = 2, a = 0.
    spec = EnsembleSpec(beta=2.0, a=0.0, N=20)
    est = estimate_gap(spec, 1.6, samples=100_000, seed=11)
    want = math.exp(-20.0 * 1.6 / 80.0)
    assert est.stderr > 0.0
    assert abs(est.probability - want) < 3.0 * est.stderr


def test_matches_exact_finite_size() -> None:
    spec = EnsembleSpec(beta=2.0, a=1.0, N=5)
    est = estimate_gap(spec, 1.0, samples=50_000, seed=12)
    want = exact_E0_finiteN(1.0 / 20.0, 1.0, 2.0, 5)
    assert abs(est.probability - want) < 3.0 * est.stderr


@pytest.mark.parametrize("beta, a, s, seed", [(2.0, 1.0, 2.0, 15), (2.5, 0.8, 3.0, 16)])
def test_matches_exact_at_one_eigenvalue(beta: float, a: float, s: float, seed: int) -> None:
    est = estimate_gap(EnsembleSpec(beta=beta, a=a, N=1), s, samples=20_000, seed=seed)
    want = exact_E0_finiteN(s / 4.0, a, beta, 1)
    assert abs(est.probability - want) < 4.0 * est.stderr


def test_matches_exact_fractional_beta() -> None:
    spec = EnsembleSpec(beta=2.5, a=0.8, N=6)
    est = estimate_gap(spec, 1.0, samples=50_000, seed=13)
    want = exact_E0_finiteN(1.0 / 24.0, 0.8, 2.5, 6)
    assert abs(est.probability - want) < 3.0 * est.stderr


def test_excess_count_matches_exact() -> None:
    spec = EnsembleSpec(beta=2.0, a=1.0, N=3)
    est = estimate_gap(spec, 2.0, n=1, samples=50_000, seed=14)
    want = exact_En_finiteN(2.0 / 12.0, 1.0, 2.0, 1, 2)
    assert abs(est.probability - want) < 3.0 * est.stderr


def test_smallest_eigenvalue_law_calibration() -> None:
    # Kolmogorov distance between the empirical law of the smallest
    # eigenvalue and the exact finite-size law, over a grid of thresholds,
    # against the 1% Kolmogorov-Smirnov constant 1.628 / sqrt(n).  One seed
    # for every threshold, so each one counts on the same matrices.
    spec = EnsembleSpec(beta=2.0, a=1.0, N=5)
    n = 10_000
    distance = 0.0
    for s in np.linspace(0.2, 30.0, 60).tolist():
        est = estimate_gap(spec, s, samples=n, seed=21)
        distance = max(distance, abs(est.probability - exact_E0_finiteN(s / 20.0, 1.0, 2.0, 5)))
    assert distance < 1.628 / math.sqrt(n)


# ------------------------------------------------------------- reproducibility


def test_bit_identical_runs() -> None:
    spec = EnsembleSpec(beta=2.0, a=1.0, N=5)
    first = estimate_gap(spec, 1.0, samples=5000, seed=42)
    second = estimate_gap(spec, 1.0, samples=5000, seed=42)
    assert first == second
    third = estimate_gap(spec, 1.0, samples=5000, seed=43)
    assert third.probability != first.probability


def test_thread_count_does_not_change_result() -> None:
    spec = EnsembleSpec(beta=2.0, a=1.0, N=5)
    serial = estimate_gap(spec, 1.0, samples=20_000, seed=9, threads=1)
    threaded = estimate_gap(spec, 1.0, samples=20_000, seed=9, threads=4)
    assert serial.probability == threaded.probability
    assert serial.stderr == threaded.stderr
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads"):
            estimate_gap(spec, 1.0, samples=20_000, seed=9, threads=threads)


def test_zero_threshold_is_certain() -> None:
    spec = EnsembleSpec(beta=2.0, a=1.0, N=3)
    est = estimate_gap(spec, 0.0, samples=1000, seed=0)
    assert est.probability == 1.0
    assert est.stderr == 0.0


def test_monotone_in_threshold_with_common_seed() -> None:
    # With a shared seed the sampled matrices coincide, so the
    # empirical gap probability is exactly nonincreasing in s.
    spec = EnsembleSpec(beta=2.0, a=1.0, N=3)
    probs = [
        estimate_gap(spec, s, samples=2000, seed=5).probability
        for s in (0.5, 1.0, 2.0)
    ]
    assert probs[0] >= probs[1] >= probs[2]


# Exact bits of the chunk plan: 9000 samples span three chunks of 4096.


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_estimate_pinned_bits(threads: int) -> None:
    est = estimate_gap(
        EnsembleSpec(2.0, 1.0, 5), 8.0, samples=9000, seed=42, threads=threads
    )
    assert (est.probability, est.stderr) == (0.527, 0.0052627728221706265)
    est = estimate_gap(
        EnsembleSpec(2.5, 0.8, 6), 2.0, n=1, samples=9000, seed=7, threads=threads
    )
    assert (est.probability, est.stderr) == (0.08911111111111111, 0.003003152436055122)


def test_stderr_formula() -> None:
    spec = EnsembleSpec(beta=2.0, a=1.0, N=3)
    est = estimate_gap(spec, 1.0, samples=2000, seed=1)
    want = math.sqrt(est.probability * (1.0 - est.probability) / est.samples)
    np.testing.assert_allclose(est.stderr, want, rtol=1e-12)
