"""Partition enumeration and generalized Pochhammer symbols, and the
reference hook products and identity values of ``oracles``."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import poch

from betagap.partitions import gen_pochhammer_signlog, partition_array, partitions_of_weight
from oracles import (
    conjugate,
    dominates,
    hook_products_log,
    jack_C_at_identity_log,
    jack_C_oracle_signlog,
)

# Partition counts p(0)..p(10).
_PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


@pytest.mark.parametrize("k", range(11))
def test_partition_counts(k: int) -> None:
    assert len(partitions_of_weight(k)) == _PARTITION_COUNTS[k]


def test_partitions_are_weakly_decreasing_and_sum() -> None:
    for kappa in partitions_of_weight(7):
        assert sum(kappa) == 7
        assert all(p >= q for p, q in zip(kappa, kappa[1:]))


def test_max_parts_filter() -> None:
    two_rows = partitions_of_weight(6, max_parts=2)
    assert all(len(kappa) <= 2 for kappa in two_rows)
    assert set(two_rows) == {(6,), (5, 1), (4, 2), (3, 3)}


@pytest.mark.parametrize("parts", range(9))
def test_partition_array_matches_the_enumeration(parts: int) -> None:
    # The array holds the tuples of partitions_of_weight row by row, in
    # their order, each padded with zeros to parts + 1 columns; k = 0 is
    # one row of zeros, and parts > k keeps every partition of k.
    for k in range(41):
        array = partition_array(k, parts)
        want = partitions_of_weight(k, parts)
        assert array.shape == (len(want), parts + 1)
        assert not array.flags.writeable
        padded = [kappa + (0,) * (parts + 1 - len(kappa)) for kappa in want]
        assert array.tolist() == [list(row) for row in padded]
    assert partition_array(0, parts).tolist() == [[0] * (parts + 1)]
    assert len(partition_array(parts + 1, parts + 2)) == len(partitions_of_weight(parts + 1))
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        partition_array(-1, parts)
    with pytest.raises(ValueError, match="parts must be nonnegative"):
        partition_array(parts, -1)


def test_conjugate_example() -> None:
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


@given(st.integers(min_value=0, max_value=9))
@settings(deadline=None)
def test_conjugate_is_involution(k: int) -> None:
    for kappa in partitions_of_weight(k):
        assert conjugate(conjugate(kappa)) == kappa


def test_dominance_basics() -> None:
    assert dominates((2,), (1, 1))
    assert not dominates((1, 1), (2,))
    assert dominates((2, 1), (2, 1))
    # incomparable weights are never ordered
    assert not dominates((1,), (2,))


def _hook_products_by_cells(kappa: tuple[int, ...], alpha: float) -> tuple[float, float]:
    """Upper and lower hook products, arm and leg counted on the cell set."""
    cells = {(i, j) for i, row in enumerate(kappa) for j in range(row)}
    upper = lower = 1.0
    for i, j in cells:
        arm = sum(1 for r, c in cells if r == i and c > j)
        leg = sum(1 for r, c in cells if c == j and r > i)
        upper *= leg + 1 + alpha * arm
        lower *= leg + alpha * (arm + 1)
    return upper, lower


@pytest.mark.parametrize("kappa", [(1,), (2,), (1, 1), (3, 1), (2, 2, 1)])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_hook_products_match_log_variant(kappa, alpha) -> None:
    upper, lower = _hook_products_by_cells(kappa, alpha)
    log_upper, log_lower = hook_products_log(kappa, alpha)
    np.testing.assert_allclose(log_upper, math.log(upper), rtol=1e-13)
    np.testing.assert_allclose(log_lower, math.log(lower), rtol=1e-13)
    # Transposing swaps arm and leg: the upper hooks of the conjugate at
    # 1/alpha are the lower hooks at alpha divided by alpha.
    conj_upper, _ = hook_products_log(conjugate(kappa), 1.0 / alpha)
    np.testing.assert_allclose(
        conj_upper, log_lower - sum(kappa) * math.log(alpha), rtol=1e-13, atol=1e-14
    )


def _pochhammer(x: float, kappa: tuple[int, ...], alpha: float) -> float:
    return math.prod(poch(x - j / alpha, part) for j, part in enumerate(kappa))


def test_single_row_pochhammer_is_rising_factorial() -> None:
    x = 1.7
    for k in range(6):
        expected = math.gamma(x + k) / math.gamma(x)
        sign, log_mag = gen_pochhammer_signlog(x, (k,) if k else (), 1.3)
        assert sign == 1
        np.testing.assert_allclose(math.exp(log_mag), expected, rtol=1e-12)


def test_pochhammer_row_shift() -> None:
    # Second row shifts the base by -1/alpha.
    alpha, x = 2.0, 2.3
    sign, log_mag = gen_pochhammer_signlog(x, (2, 1), alpha)
    expected = (x * (x + 1.0)) * (x - 1.0 / alpha)
    assert sign == 1
    np.testing.assert_allclose(math.exp(log_mag), expected, rtol=1e-12)


def test_pochhammer_exact_zero() -> None:
    # x = 1 with alpha = 1/2: the third row's base 1 - 2*2 = -3 reaches 0.
    assert gen_pochhammer_signlog(1.0, (1, 1, 4), 0.5) == (0, -math.inf)
    assert gen_pochhammer_signlog(-2.0, (3,), 1.0) == (0, -math.inf)


@given(
    st.floats(min_value=0.3, max_value=5.0),
    st.sampled_from([(1,), (2,), (2, 1), (3, 2), (2, 2, 1)]),
    st.floats(min_value=0.4, max_value=3.0),
)
@settings(deadline=None, max_examples=60)
def test_pochhammer_signlog_consistency(x, kappa, alpha) -> None:
    value = _pochhammer(x, kappa, alpha)
    sign, log_mag = gen_pochhammer_signlog(x, kappa, alpha)
    if value == 0.0:
        assert sign == 0
    else:
        assert sign == (1 if value > 0 else -1)
        np.testing.assert_allclose(log_mag, math.log(abs(value)), atol=1e-10)


def test_identity_value_single_box() -> None:
    # Sum rule at weight 1 forces C_(1)(1^m) = m.
    for m in (1, 2, 5):
        np.testing.assert_allclose(
            jack_C_at_identity_log((1,), 1.0, m), math.log(m), rtol=1e-13, atol=1e-15
        )


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_identity_values_satisfy_sum_rule(alpha: float, m: int) -> None:
    for k in range(9):
        total = sum(
            math.exp(jack_C_at_identity_log(kappa, alpha, m))
            for kappa in partitions_of_weight(k)
        )
        np.testing.assert_allclose(total, float(m) ** k, rtol=1e-10)


def test_identity_log_variant_matches() -> None:
    # Against the monomial expansion, which shares no formula with it.
    for kappa in partitions_of_weight(5):
        sign, log_ref = jack_C_oracle_signlog(kappa, (1.0,) * 3, 0.7)
        if sign == 0:
            assert jack_C_at_identity_log(kappa, 0.7, 3) == -math.inf
        else:
            assert sign == 1
            np.testing.assert_allclose(
                jack_C_at_identity_log(kappa, 0.7, 3), log_ref, atol=1e-11
            )
