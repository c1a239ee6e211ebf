"""Tests for the deformed hypergeometric series engine."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betagap import jack
from betagap.errors import (
    CancellationError,
    LowerParameterPoleError,
    NonConvergenceError,
)
from betagap.hypergeom import (
    CONDITION_LIMIT,
    DEFAULT_MAX_WEIGHT,
    ArgBlocks,
    HypergeomSpec,
    F01_repeated,
    confluence_check,
    pFq_alpha,
)

mp.mp.dps = 40


def test_exported_constants() -> None:
    assert DEFAULT_MAX_WEIGHT == 200
    assert CONDITION_LIMIT == 1e12


def test_exp_sum_identity() -> None:
    # With no parameters the series collapses to exp(x1 + ... + xm)
    # for every deformation parameter.
    xs = (0.3, 1.1, -0.4)
    for alpha in (0.5, 1.0, 1.7):
        spec = HypergeomSpec(
            upper=(), lower=(), alpha=alpha, args=ArgBlocks.from_values(xs)
        )
        result = pFq_alpha(spec)
        np.testing.assert_allclose(result.value, math.exp(sum(xs)), rtol=1e-12)


def test_binomial_identity() -> None:
    # One upper parameter and no lower ones gives prod (1 - x_i)^(-a),
    # again independently of the deformation.
    a, xs = 1.3, (0.15, -0.3, 0.2)
    want = math.prod((1.0 - x) ** -a for x in xs)
    for alpha in (0.6, 1.0, 2.0):
        spec = HypergeomSpec(
            upper=(a,), lower=(), alpha=alpha, args=ArgBlocks.from_values(xs)
        )
        result = pFq_alpha(spec, tol=1e-13)
        np.testing.assert_allclose(result.value, want, rtol=1e-11)


def test_bessel_oracles() -> None:
    # 0F1(;c;1) at integer c equals (c-1)! I_{c-1}(2) / 1; the two frozen
    # references below were computed with an independent scalar Bessel sum.
    np.testing.assert_allclose(
        F01_repeated(1.0, 1.0, 1, 1.0).value, 2.2795853023360673, rtol=1e-14
    )
    np.testing.assert_allclose(
        F01_repeated(2.0, 1.0, 1, 1.0).value, 1.5906368546373290, rtol=1e-14
    )


def test_single_variable_matches_mpmath() -> None:
    cases_0f1 = ((1.7, 2.4), (0.9, 5.0), (3.2, 17.0))
    for c, t in cases_0f1:
        mine = F01_repeated(c, t, 1, 1.0).value
        np.testing.assert_allclose(mine, float(mp.hyp0f1(c, t)), rtol=1e-12)
    spec = HypergeomSpec(
        upper=(0.7,), lower=(2.2,), alpha=1.0, args=ArgBlocks.from_values([-3.5])
    )
    np.testing.assert_allclose(
        pFq_alpha(spec).value, float(mp.hyp1f1(0.7, 2.2, -3.5)), rtol=1e-12
    )
    spec = HypergeomSpec(
        upper=(0.35, 1.4), lower=(2.6,), alpha=1.0, args=ArgBlocks.from_values([0.55])
    )
    np.testing.assert_allclose(
        pFq_alpha(spec).value, float(mp.hyp2f1(0.35, 1.4, 2.6, 0.55)), rtol=1e-11
    )


def test_terminating_series_matches_direct_sum() -> None:
    # A negative-integer upper parameter truncates the series; compare
    # against the explicit finite sum.
    n, c, x = 5, 1.5, 2.3
    spec = HypergeomSpec(
        upper=(-float(n),), lower=(c,), alpha=1.0, args=ArgBlocks.from_values([x])
    )
    result = pFq_alpha(spec)
    direct = sum(
        math.prod(-n + j for j in range(k))
        / math.prod(c + j for j in range(k))
        * x**k
        / math.factorial(k)
        for k in range(n + 1)
    )
    np.testing.assert_allclose(result.value, direct, rtol=1e-13)
    assert result.terminated_exactly
    assert result.tail_estimate == 0.0
    assert result.max_weight_used == n
    assert result.term_count == n + 1


def test_gauss_summation_at_unit_argument() -> None:
    # 2F1(a, b; c; 1) has a closed gamma-ratio form when c - a - b > 0.
    a, b, c = 0.25, 0.5, 6.0
    spec = HypergeomSpec(
        upper=(a, b), lower=(c,), alpha=1.0, args=ArgBlocks.from_values([1.0])
    )
    result = pFq_alpha(spec, tol=1e-12, max_weight=3000)
    want = math.exp(
        math.lgamma(c)
        + math.lgamma(c - a - b)
        - math.lgamma(c - a)
        - math.lgamma(c - b)
    )
    np.testing.assert_allclose(result.value, want, rtol=1e-9)


def test_signlog_channel_on_large_terminating_sum() -> None:
    # All-positive terminating sum with a large total: the log channel
    # must stay accurate where the plain float value is near overflow.
    spec = HypergeomSpec(
        upper=(-40.0,), lower=(1.0,), alpha=1.0, args=ArgBlocks.from_values([-48.0])
    )
    result = pFq_alpha(spec)
    assert result.sign == 1
    assert result.terminated_exactly
    np.testing.assert_allclose(result.log_value, 65.13939247368508, rtol=1e-13)
    np.testing.assert_allclose(
        result.log_value, float(mp.log(mp.hyp1f1(-40, 1, -48))), rtol=1e-13
    )


def test_lower_parameter_pole_raises() -> None:
    spec = HypergeomSpec(
        upper=(1.0,), lower=(-2.0,), alpha=1.0, args=ArgBlocks.from_values([0.5])
    )
    with pytest.raises(LowerParameterPoleError):
        pFq_alpha(spec)
    # The deformed Pochhammer of row i starts at c - (i-1)/alpha, so a
    # lower parameter hitting that lattice is a pole too.
    with pytest.raises(LowerParameterPoleError):
        F01_repeated(2.5, 0.7, 3, 0.8)


def test_catastrophic_cancellation_raises() -> None:
    # Alternating terminating sum whose value is ~48 orders below the
    # largest term: must refuse rather than return noise.
    spec = HypergeomSpec(
        upper=(-40.0,), lower=(1.0,), alpha=1.0, args=ArgBlocks.from_values([60.0])
    )
    with pytest.raises(CancellationError):
        pFq_alpha(spec)


def test_nonconvergence_raises() -> None:
    with pytest.raises(NonConvergenceError):
        F01_repeated(1.0, 30.0, 1, 1.0, max_weight=5)


def test_weight_ceiling_default() -> None:
    result = F01_repeated(1.0, 4.0, 1, 1.0)
    assert result.max_weight_used <= DEFAULT_MAX_WEIGHT
    assert result.tail_estimate < 1e-12 * result.value


def test_block_canonicalization() -> None:
    a = ArgBlocks(((2.0, 1), (1.0, 2)))
    b = ArgBlocks(((1.0, 1), (2.0, 1), (1.0, 1)))
    assert a == b
    assert a.blocks == ((1.0, 2), (2.0, 1))
    assert a.num_variables == 3
    assert a.expanded() == (1.0, 1.0, 2.0)
    assert ArgBlocks(((1.0, 0),)).blocks == ()
    with pytest.raises(ValueError):
        ArgBlocks(((1.0, -1),))


def test_argument_order_is_bit_identical() -> None:
    xs = (0.7, 0.31, 0.7, 1.2)
    lhs = pFq_alpha(
        HypergeomSpec((), (2.0,), 2.0, ArgBlocks.from_values(xs))
    )
    rhs = pFq_alpha(
        HypergeomSpec((), (2.0,), 2.0, ArgBlocks.from_values(xs[::-1]))
    )
    assert lhs.value == rhs.value
    assert lhs.log_value == rhs.log_value


def test_spec_validation() -> None:
    with pytest.raises(ValueError):
        HypergeomSpec((), (), 0.0, ArgBlocks.from_values([1.0]))
    with pytest.raises(ValueError):
        HypergeomSpec((), (), -1.0, ArgBlocks.from_values([1.0]))


def test_repeated_argument_helper_matches_general() -> None:
    direct = F01_repeated(2.5, 0.7, 3, 2.0)
    spec = HypergeomSpec(
        upper=(), lower=(2.5,), alpha=2.0, args=ArgBlocks(((0.7, 3),))
    )
    general = pFq_alpha(spec)
    assert direct.value == general.value
    assert direct.term_count == general.term_count


def test_confluence_gap_decays_linearly() -> None:
    g_64 = confluence_check(1.5, 0.8, 2, 2.0, b=64.0)
    g_128 = confluence_check(1.5, 0.8, 2, 2.0, b=128.0)
    assert g_64 < 2e-3
    np.testing.assert_allclose(g_64 / g_128, 2.0, rtol=0.05)


@settings(deadline=None, max_examples=40)
@given(
    xs=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=1, max_size=3
    ),
    alpha=st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
)
def test_exp_sum_property(xs: list[float], alpha: float) -> None:
    spec = HypergeomSpec(
        upper=(), lower=(), alpha=alpha, args=ArgBlocks.from_values(xs)
    )
    result = pFq_alpha(spec)
    np.testing.assert_allclose(result.value, math.exp(sum(xs)), rtol=1e-9, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(
    c=st.floats(min_value=0.8, max_value=4.0, allow_nan=False),
    t=st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
)
def test_value_log_consistency(c: float, t: float) -> None:
    result = F01_repeated(c, t, 1, 1.0)
    assert result.sign == 1
    np.testing.assert_allclose(
        result.sign * math.exp(result.log_value), result.value, rtol=1e-12
    )


# Values of the Schur/monomial route that summed these series before the
# strip-table evaluator, at the argument shapes of the E(n) quadrature
# nodes: (u, v, v) for n = 1 and (u, u, v, v) for n = 2 at beta = 2, and
# the negative arguments of the finite-N route.
NODE_SHAPE_VALUES = [
    ((), (3.0,), 1.0, ((1.0, 1), (0.3, 2)), 1.6936281220249383),
    ((), (3.0,), 1.0, ((1.0, 1), (0.85, 2)), 2.4567838771852704),
    ((), (4.0,), 1.0, ((0.2, 2), (0.75, 2)), 1.603970515271471),
    ((), (3.5,), 0.5, ((2.5, 1), (0.6, 2)), 2.824598224258634),
    ((), (2.5,), 2.0, ((0.4, 2), (1.3, 2)), 3.747896515367136),
    ((-10.0,), (3.0,), 1.0, ((-0.5, 1), (-0.2, 2)), 16.854798652831743),
    ((-5.0,), (4.0,), 1.0, ((-0.5, 2), (-0.35, 2)), 8.255653876199114),
]


@pytest.mark.parametrize("upper, lower, alpha, blocks, want", NODE_SHAPE_VALUES)
def test_node_shapes_match_previous_route(upper, lower, alpha, blocks, want) -> None:
    result = pFq_alpha(HypergeomSpec(upper, lower, alpha, ArgBlocks(blocks)))
    np.testing.assert_allclose(result.value, want, rtol=1e-13)


def test_series_bit_identical_cold_and_warm() -> None:
    spec = HypergeomSpec((), (3.0,), 1.0, ArgBlocks(((2.0, 1), (1.1, 2))))
    deep = HypergeomSpec((), (3.0,), 1.0, ArgBlocks(((60.0, 1), (40.0, 2))))
    jack._strip_table.cache_clear()
    cold = pFq_alpha(spec)
    warm = pFq_alpha(spec)
    # tables first built deeper, with larger hook and rank tables
    jack._strip_table.cache_clear()
    pFq_alpha(deep)
    after_deep = pFq_alpha(spec)
    assert cold == warm == after_deep
