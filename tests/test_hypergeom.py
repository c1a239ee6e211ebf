"""Tests for the deformed hypergeometric series engine."""

from __future__ import annotations

import math
import sys
import threading
from functools import cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betagap import hypergeom, jack
from betagap.errors import (
    CancellationError,
    LowerParameterPoleError,
    NonConvergenceError,
    ResourceLimitError,
)
from betagap.gap import (
    exact_E0_finiteN_detailed,
    exact_E0_hard,
    exact_E0_hard_detailed,
    exact_En_hard,
)
from betagap.hypergeom import (
    CONDITION_LIMIT,
    DEFAULT_MAX_WEIGHT,
    ArgBlocks,
    HypergeomSpec,
    RatioIntegral,
    SeriesResult,
    pFq_alpha,
)
from betagap.partitions import gen_pochhammer_signlog, partitions_of_weight
from betagap.quadrature import ratio_moments
from oracles import hook_products_log, jack_C_at_identity_log
from test_jack import pair_layer

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


def _0f1(c: float, t: float, m: int, alpha: float) -> HypergeomSpec:
    """``0F1`` with lower parameter ``c`` at ``m`` repeated arguments ``t``."""
    return HypergeomSpec(upper=(), lower=(c,), alpha=alpha, args=ArgBlocks(((t, m),)))


def test_bessel_oracles() -> None:
    # 0F1(;c;1) at integer c equals (c-1)! I_{c-1}(2) / 1; the two frozen
    # references below were computed with an independent scalar Bessel sum.
    np.testing.assert_allclose(
        pFq_alpha(_0f1(1.0, 1.0, 1, 1.0)).value, 2.2795853023360673, rtol=1e-14
    )
    np.testing.assert_allclose(
        pFq_alpha(_0f1(2.0, 1.0, 1, 1.0)).value, 1.5906368546373290, rtol=1e-14
    )


def test_single_variable_matches_mpmath() -> None:
    cases_0f1 = ((1.7, 2.4), (0.9, 5.0), (3.2, 17.0))
    for c, t in cases_0f1:
        mine = pFq_alpha(_0f1(c, t, 1, 1.0)).value
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
        pFq_alpha(_0f1(2.5, 0.7, 3, 0.8))


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
        pFq_alpha(_0f1(1.0, 30.0, 1, 1.0), max_weight=5)


def test_weight_ceiling_default() -> None:
    result = pFq_alpha(_0f1(1.0, 4.0, 1, 1.0))
    assert result.max_weight_used <= DEFAULT_MAX_WEIGHT
    assert result.tail_estimate < 1e-12 * result.value


def test_terminating_series_has_no_default_ceiling() -> None:
    # A degree-300 series settles at weight 284, past DEFAULT_MAX_WEIGHT.
    # It raised NonConvergenceError at weight 200 by default; an explicit
    # ceiling still binds.
    spec = HypergeomSpec((-300.0,), (1.0,), 1.0, ArgBlocks.from_values([-1000.0]))
    result = pFq_alpha(spec)
    assert (result.log_value, result.max_weight_used) == (728.9100103617831, 284)
    assert result == pFq_alpha(spec, max_weight=300)
    with pytest.raises(NonConvergenceError, match="by weight 200 "):
        pFq_alpha(spec, max_weight=DEFAULT_MAX_WEIGHT)


def test_block_canonicalization() -> None:
    a = ArgBlocks(((2.0, 1), (1.0, 2)))
    b = ArgBlocks(((1.0, 1), (2.0, 1), (1.0, 1)))
    assert a == b
    assert a.blocks == ((1.0, 2), (2.0, 1))
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


def test_confluence_gap_decays_linearly() -> None:
    # 1F1(b; c; t/b) tends to 0F1(c; t) as b grows, with a gap like 1/b.
    limit = pFq_alpha(_0f1(1.5, 0.8, 2, 2.0)).value
    shifted = [
        pFq_alpha(HypergeomSpec((b,), (1.5,), 2.0, ArgBlocks(((0.8 / b, 2),)))).value
        for b in (64.0, 128.0)
    ]
    g_64, g_128 = (abs(value - limit) / abs(limit) for value in shifted)
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
    # The log value is the log of the value, except near 1, where log1p
    # reads the compensation too.
    result = pFq_alpha(_0f1(c, t, 1, 1.0))
    assert result.sign == 1 == math.copysign(1.0, result.value)
    if 0.5 <= abs(result.value) <= 2.0:
        assert abs(result.log_value - math.log(abs(result.value))) <= 2**-52
    else:
        assert result.log_value == math.log(abs(result.value))


def test_log_value_near_one_keeps_the_compensation() -> None:
    # At s = 1e-12, log E(0) = -s/8 + log 0F1(;2;s/4) is about -2.6e-27: the
    # difference of two numbers near 1.25e-13, which log(value) rounds away.
    s = 1e-12
    log_value, _ = exact_E0_hard_detailed(s, 2.0, 1.0)
    with mp.workdps(60):
        want = -mp.mpf(s) / 8 + mp.log(mp.hyp0f1(2, mp.mpf(s) / 4))
        assert abs(log_value - want) <= 1e-27


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


# --- whole-layer coefficients against the scalar one-partition forms ---

# Each scalar value is reused across parameter sets and numbers of ones.
_pochhammer = cache(gen_pochhammer_signlog)
_identity_log = cache(jack_C_at_identity_log)


def _scalar_coefficient(
    kappa: tuple[int, ...],
    upper: tuple[float, ...],
    lower: tuple[float, ...],
    alpha: float,
    ones: int | None,
) -> tuple[int, float] | str:
    """Sign and log of one term's argument-free factor, by the scalar
    forms, with ``C_kappa`` at ``ones`` ones unless that is None;
    ``(0, -inf)`` for a vanishing term, or the pole message."""
    k = sum(kappa)
    sign = 1
    if ones is None:
        log_mag = -math.lgamma(k + 1)
    else:
        log_mag = _identity_log(kappa, alpha, ones) - math.lgamma(k + 1)
    for a in upper:
        s_a, l_a = _pochhammer(a, kappa, alpha)
        if s_a == 0:
            return 0, -math.inf
        sign *= s_a
        log_mag += l_a
    for b in lower:
        s_b, l_b = _pochhammer(b, kappa, alpha)
        if s_b == 0:
            return f"lower parameter {b} has a pole at partition {kappa}"
        sign *= s_b
        log_mag -= l_b
    if log_mag == -math.inf:
        return 0, -math.inf
    return sign, log_mag


def _parameter_sets(alpha: float) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    # 1/alpha - 1 puts a zero factor in row 2 when alpha != 1 (row 1 at
    # alpha = 1): exact zeros as an upper parameter, a pole as a lower one.
    ladder = 1.0 / alpha - 1.0 if alpha != 1.0 else -1.0
    return [
        ((), (2.2,)),
        ((-6.0, 0.7), (1.3,)),
        ((ladder, 1.9), (2.6,)),
        ((-4.0, ladder), (0.9, 3.1)),
        ((1.1,), (2.7, ladder)),
    ]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("parts", [1, 2, 3, 4, 5])
def test_coefficient_layers_match_scalar_forms(alpha: float, parts: int) -> None:
    for upper, lower in _parameter_sets(alpha):
        for at_ones in (False, True):
            coefficients = hypergeom._Coefficients(upper, lower, alpha, parts, at_ones)
            ones = parts if at_ones else None
            cap = coefficients.cap
            for k in range(31):
                if cap is not None and k > cap * parts:
                    break
                kappas = partitions_of_weight(k, parts)
                want = [
                    (row, _scalar_coefficient(kappa, upper, lower, alpha, ones))
                    for row, kappa in enumerate(kappas)
                    if cap is None or not kappa or kappa[0] <= cap
                ]
                layer = coefficients.layer(k)
                assert layer.nonempty == bool(want)
                poles = [w for _, w in want if isinstance(w, str)]
                if poles:
                    assert layer.pole == poles[0]
                    break
                assert layer.pole is None
                live = [(row, w) for row, w in want if w[0] != 0]
                assert layer.rows.tolist() == [row for row, _ in live]
                assert layer.negative.tolist() == [w[0] < 0 for _, w in live]
                logs = np.array([w[1] for _, w in live])
                np.testing.assert_allclose(layer.log_coef, logs, rtol=1e-13, atol=2e-13)


@pytest.mark.parametrize("alpha, m", [(0.5, 1), (1.0, 2), (2.0, 3), (1.5, 4)])
def test_hard_edge_coefficients_are_inverse_hook_products(alpha: float, m: int) -> None:
    # C_kappa(1^m) / k! = alpha**(2k) [m/alpha]_kappa / j_kappa, so the lower
    # parameter a = m/alpha of the hard-edge E(0) series cancels it: every
    # coefficient is alpha**(2k) / j_kappa, built with no Pochhammer table.
    coefficients = hypergeom._coefficients((), (m / alpha,), alpha, m, True)
    for k in range(25):
        layer = coefficients.layer(k)
        kappas = partitions_of_weight(k, m)
        want = [2 * k * math.log(alpha) - sum(hook_products_log(kappa, alpha)) for kappa in kappas]
        assert layer.pole is None
        assert layer.rows.tolist() == list(range(len(kappas)))
        assert not layer.negative.any()
        np.testing.assert_allclose(layer.log_coef, want, rtol=1e-13, atol=1e-13)
    assert coefficients._upper == [] and coefficients._lower == []


def _log_difference(log_pos: float, log_neg: float) -> float:
    """``log|exp(log_pos) - exp(log_neg)|``, ``-inf`` where they agree."""
    if log_pos == log_neg:
        return -math.inf
    hi, lo = max(log_pos, log_neg), min(log_pos, log_neg)
    return hi + math.log1p(-math.exp(lo - hi))


def _reference_series(spec: HypergeomSpec, tol: float = 1e-12) -> tuple:
    """The series summed one partition at a time from the scalar forms,
    as before whole-layer sums: (value, log value, terms, last weight).

    Poles and termination are checked on the partitions whose terms can
    contribute: of at most as many parts as nonzero variables."""
    xs = [value for value in spec.args.expanded() if value != 0.0]
    cap = hypergeom._termination_cap(spec.upper)
    distinct = set(xs)
    table = jack.JackTable([xs], spec.alpha) if len(distinct) > 1 else None
    # one distinct value t over the nonzero variables: t**k C_kappa(1, ..., 1)
    t = next(iter(distinct), 1.0)
    m = len(xs)
    log_pos = log_neg = -math.inf
    float_sum = float_comp = 0.0
    terms = small_layers = k = weight = 0
    while cap is None or k <= cap * m:
        layer_log = -math.inf
        if table is not None:
            values, log_factors, signs = table.layer(k)
            values, log_factors, table_sign = values[0], log_factors[0], signs[0]
        kappas = partitions_of_weight(k, m)
        if k > 0 and not any(cap is None or kappa[0] <= cap for kappa in kappas):
            break
        for position, kappa in enumerate(kappas):
            if cap is not None and kappa and kappa[0] > cap:
                continue
            coefficient = _scalar_coefficient(kappa, spec.upper, spec.lower, spec.alpha, None)
            if isinstance(coefficient, str):
                raise LowerParameterPoleError(coefficient)
            if coefficient[0] == 0:
                continue
            sign, log_mag = coefficient
            if table is None:
                l_c = k * math.log(abs(t)) + _identity_log(kappa, spec.alpha, m)
                s_c = 0 if l_c == -math.inf else (-1 if t < 0.0 and k % 2 else 1)
            else:
                value = values[position]
                s_c = 0 if value == 0.0 else table_sign * (1 if value > 0.0 else -1)
                l_c = math.log(abs(value)) + log_factors[position] if s_c else -math.inf
            if s_c == 0:
                continue
            sign *= s_c
            log_mag += l_c
            terms += 1
            layer_log = np.logaddexp(layer_log, log_mag)
            if sign > 0:
                log_pos = np.logaddexp(log_pos, log_mag)
            else:
                log_neg = np.logaddexp(log_neg, log_mag)
            term = sign * math.exp(log_mag)
            fresh = float_sum + term
            if abs(float_sum) >= abs(term):
                float_comp += (float_sum - fresh) + term
            else:
                float_comp += (term - fresh) + float_sum
            float_sum = fresh
        weight = k
        log_s = _log_difference(log_pos, log_neg)
        if k > 0 and layer_log < math.log(tol) + log_s:
            small_layers += 1
            if small_layers >= 3:
                break
        else:
            small_layers = 0
        k += 1
    return float_sum + float_comp, _log_difference(log_pos, log_neg), terms, weight


REFERENCE_SPECS = [
    # one distinct value: E(0) shapes, a zero block, upper zeros, 2F1
    ((), (3.0,), 1.0, ((2.5, 3),)),
    ((), (4.0,), 0.5, ((5.0, 2),)),
    ((), (2.5,), 1.5, ((0.0, 2), (1.3, 2))),
    ((-0.5,), (2.2,), 2.0, ((0.9, 3),)),
    ((0.35, 1.4), (2.6,), 1.0, ((0.55, 1),)),
    ((), (2.3,), 1.0, ((0.0, 3),)),
    # a lower-parameter pole only on partitions that zeros annul: none
    ((), (2.0,), 1.0, ((0.0, 3),)),
    # a lower-parameter pole on contributing terms
    ((), (2.5,), 0.8, ((0.7, 3),)),
    # terminating finite-N shapes
    ((-10.0,), (3.0,), 2.0, ((-0.8, 2),)),
    ((-5.0,), (4.0,), 1.0, ((-0.5, 2), (-0.35, 2))),
    # mixed arguments: quadrature nodes, a zero variable, mixed signs
    ((), (3.0,), 1.0, ((1.0, 1), (0.3, 2))),
    ((), (2.7,), 1.5, ((0.0, 1), (0.8, 1), (0.3, 2))),
    ((), (3.3,), 0.5, ((-0.7, 1), (0.4, 2))),
    # a lower-parameter pole on contributing terms beside a zero
    ((), (1.0,), 1.0, ((0.0, 1), (0.6, 2))),
]


@pytest.mark.parametrize("upper, lower, alpha, blocks", REFERENCE_SPECS)
def test_series_matches_scalar_reference_sum(upper, lower, alpha, blocks) -> None:
    spec = HypergeomSpec(upper, lower, alpha, ArgBlocks(blocks))
    try:
        want = _reference_series(spec)
    except LowerParameterPoleError as exc:
        with pytest.raises(LowerParameterPoleError) as raised:
            pFq_alpha(spec)
        assert str(raised.value) == str(exc)
        return
    value, log_value, terms, weight = want
    result = pFq_alpha(spec)
    assert abs(result.value - value) <= 1e-13 * abs(value)
    assert abs(result.log_value - log_value) <= 1e-13 * max(1.0, abs(log_value))
    assert result.term_count == terms
    assert result.max_weight_used == weight


def test_table_series_past_exp_600() -> None:
    # Three distinct values whose terms pass exp(600): the Jack-table layers
    # are scaled by powers of two, and the sum matches the scalar one.
    spec = HypergeomSpec((-20.0,), (1.5,), 1.5, ArgBlocks.from_values((-1e6, -3e5, -1e5)))
    value, log_value, terms, weight = _reference_series(spec)
    assert log_value > 600.0
    result = pFq_alpha(spec)
    assert result.sign == 1
    assert abs(result.value - value) <= 1e-15 * value
    assert abs(result.log_value - log_value) <= 2**-52 * log_value
    assert (result.term_count, result.max_weight_used) == (terms, weight)


def test_series_bit_identical_cold_warm_and_deeper_coefficients() -> None:
    spec = HypergeomSpec((0.7,), (3.1,), 1.5, ArgBlocks(((-0.5, 3),)))
    deep = HypergeomSpec((0.7,), (3.1,), 1.5, ArgBlocks(((-9.0, 3),)))
    hypergeom._coefficients.cache_clear()
    cold = pFq_alpha(spec)
    warm = pFq_alpha(spec)
    # the same entry first built deeper, with larger cumulative tables
    hypergeom._coefficients.cache_clear()
    pFq_alpha(deep)
    after_deep = pFq_alpha(spec)
    assert cold == warm == after_deep
    assert pFq_alpha(deep).max_weight_used > 2 * cold.max_weight_used


@pytest.mark.parametrize("m", [1, 2])
def test_series_stops_before_a_pole_inside_its_first_layer_block(m: int) -> None:
    # Coefficient layers are built _LAYER_BLOCK weights at a time.  At x =
    # 1e-30 the series stops at weight 3, and the pole of lower parameter
    # -5 at weight 6, built in the same block, is never raised; at x =
    # 1e-3 the series reaches it.
    spec = HypergeomSpec((), (-5.0,), 1.0, ArgBlocks.from_values((1e-30,) * m))
    result = pFq_alpha(spec)
    assert (result.value, result.max_weight_used) == (1.0, 3)
    spec = HypergeomSpec((), (-5.0,), 1.0, ArgBlocks.from_values((1e-3,) * m))
    message = r"^lower parameter -5\.0 has a pole at partition \(6,\)$"
    with pytest.raises(LowerParameterPoleError, match=message):
        pFq_alpha(spec)


def test_series_bits_do_not_depend_on_which_block_was_built_first() -> None:
    # s = 4 stops at weight 14, in the second block of coefficient layers,
    # and s = 60 at weight 27, in the fourth; either order, from cold
    # caches, gives the same bits.
    def cold() -> None:
        hypergeom._coefficients.cache_clear()
        hypergeom._contraction.cache_clear()

    cold()
    shallow_first = exact_E0_hard(4.0, 2.0, 2.0), exact_E0_hard(60.0, 2.0, 2.0)
    cold()
    deep = exact_E0_hard(60.0, 2.0, 2.0)
    assert (exact_E0_hard(4.0, 2.0, 2.0), deep) == shallow_first


def test_shared_coefficients_under_threads() -> None:
    # Threads extending one shared coefficient entry must not interleave layers.
    key = ((-9.0, 0.7), (2.4,), 1.375, 4, True)

    def layers(entry) -> list:
        return [
            (layer.rows.tolist(), layer.log_coef.tolist(), layer.negative.tolist())
            for layer in (entry.layer(k) for k in range(40))
        ]

    want = layers(hypergeom._Coefficients(*key))
    hypergeom._coefficients.cache_clear()
    results: list = [None] * 8
    start = threading.Barrier(8)

    def work(slot: int) -> None:
        start.wait()
        results[slot] = layers(hypergeom._coefficients(*key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == want for result in results)


# --- a batch of arguments against its members, one series each ---


def _level_rows(s: float, diagonal: bool, shape: str) -> np.ndarray:
    """Quadrature arguments at the order-8 Gauss-Jacobi nodes ``y``, scaled
    by ``s``: the n = 2, a = 0, beta = 2 rows ``y1, y1, y2, y2`` (shape
    ``"pairs"``), or the n = 1, a = 1, beta = 2 rows ``1, y, y`` (shape
    ``"u-v-v"``).  With ``diagonal`` the rows of one distinct value, which
    take the identity path, come too: ``y1 == y2``, or ``y == 1``."""
    from betagap.gap import _jacobi_rule

    nodes, _ = _jacobi_rule(8, 0.0)
    if shape == "u-v-v":
        ys = list(nodes) + ([1.0] if diagonal else [])
        return np.array([(s, s * y, s * y) for y in ys])
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + (0 if diagonal else 1) :]]
    return np.array([(s * u, s * u, s * v, s * v) for u, v in pairs])


@pytest.mark.parametrize("budget", [jack.MAX_BATCH_ELEMENTS, 1])
@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize(
    "upper, lower, s, shape",
    [
        ((), (4.0,), 1.0, "pairs"),
        ((), (4.0,), 2.5, "pairs"),
        ((-4.0,), (4.0,), -0.5, "pairs"),
        ((), (4.0,), 1.0, "u-v-v"),
        ((), (4.0,), 2.5, "u-v-v"),
        ((-4.0,), (4.0,), -0.5, "u-v-v"),
    ],
    ids=[
        "hard-edge", "hard-edge-deep", "finite-N",
        "hard-edge-u-v-v", "hard-edge-deep-u-v-v", "finite-N-u-v-v",
    ],
)
def test_batch_matches_members(
    monkeypatch: pytest.MonkeyPatch, budget, diagonal, upper, lower, s, shape
) -> None:
    # Every member of a batch, two-value path or identity path, in one
    # chunk or one node per chunk, is the series it would be alone, to the
    # bit.
    monkeypatch.setattr(jack, "MAX_BATCH_ELEMENTS", budget)
    rows = _level_rows(s, diagonal, shape)
    batch = pFq_alpha(HypergeomSpec(upper, lower, 1.0, rows))
    assert len(batch) == len(rows)
    singles = [
        pFq_alpha(HypergeomSpec(upper, lower, 1.0, ArgBlocks.from_values(row))) for row in rows
    ]
    for number, single in enumerate(singles):
        assert batch[number] == single
    assert batch.term_count == sum(single.term_count for single in singles)
    assert batch.max_weight_used == max(single.max_weight_used for single in singles)


def _count_jack_tables(monkeypatch: pytest.MonkeyPatch) -> list:
    """Make ``pFq_alpha`` count the :class:`JackTable` objects it builds."""
    built: list = []

    class Counted(jack.JackTable):
        def __init__(self, points, alpha) -> None:
            built.append(len(points))
            super().__init__(points, alpha)

    monkeypatch.setattr(hypergeom, "JackTable", Counted)
    return built


def test_two_value_rows_build_no_jack_table(monkeypatch: pytest.MonkeyPatch) -> None:
    # E(1) at beta = 2, a = 1 has arguments (s/4, s y/4, s y/4): every
    # quadrature node takes the cached two-value coefficients.  The strip
    # table's depth sets how JackTable cuts a batch, so the test starts from
    # empty caches (a cached contraction would spare the E(1) call the strip
    # table) and its own E(1) call builds them, to about weight 20.
    hypergeom._contraction.cache_clear()
    jack._strip_table.cache_clear()
    jack._pair_coefficients.cache_clear()
    built = _count_jack_tables(monkeypatch)
    assert 0.0 < exact_En_hard(4.0, 1.0, 2.0, 1) < 1.0
    assert built == []
    # three distinct values and mixed signs keep JackTable, one table for
    # the batch; a zero beside two values is no variable, so its row is a
    # two-value row
    rows = np.array([(1.0, 0.6, 0.3), (0.5, 0.0, 0.2), (1.0, 0.4, 0.3), (0.8, -0.5, -0.5)])
    batch = pFq_alpha(HypergeomSpec((), (4.0,), 1.0, rows))
    assert built == [3]
    for row, result in zip(rows, batch):
        assert result == pFq_alpha(HypergeomSpec((), (4.0,), 1.0, ArgBlocks.from_values(row)))


def test_one_value_rows_take_the_contraction(monkeypatch: pytest.MonkeyPatch) -> None:
    # An E(0) series and a batch of one-value rows (negative values, a row
    # of zeros, zeros beside one value) build no JackTable and no
    # _TermSums, and an E(0) series builds one coefficient entry.
    built = _count_jack_tables(monkeypatch)
    term_sums: list = []

    class Counted(hypergeom._TermSums):
        def __init__(self, table, coefficients) -> None:
            term_sums.append(table)
            super().__init__(table, coefficients)

    monkeypatch.setattr(hypergeom, "_TermSums", Counted)
    hypergeom._coefficients.cache_clear()
    _, series = exact_E0_hard_detailed(6.0, 1.5, 4.0)
    assert series.term_count > 1
    assert hypergeom._coefficients.cache_info().currsize == 1
    rows = np.array([(0.7, 0.7, 0.7), (-0.4, -0.4, -0.4), (0.0, 0.0, 0.0), (0.0, 0.9, 0.9)])
    batch = pFq_alpha(HypergeomSpec((-3.0,), (4.0,), 1.0, rows))
    assert built == [] and term_sums == []
    for row, result in zip(rows, batch):
        assert result == pFq_alpha(HypergeomSpec((-3.0,), (4.0,), 1.0, ArgBlocks.from_values(row)))


def test_zeros_beside_one_value_are_no_variables() -> None:
    # Zeros beside one value leave the series of its nonzero variables: one
    # coefficient entry, and no pole or termination check on the terms
    # that the zeros annul.  A row of zeros is the series of no variables.
    hypergeom._coefficients.cache_clear()
    pFq_alpha(HypergeomSpec((), (2.0,), 1.0, ArgBlocks.from_values((0.0, 0.9, 0.9))))
    assert hypergeom._coefficients.cache_info().currsize == 1
    zeros = pFq_alpha(HypergeomSpec((), (2.0,), 1.0, ArgBlocks.from_values((0.0, 0.0, 0.0))))
    none = pFq_alpha(HypergeomSpec((), (2.0,), 1.0, ArgBlocks(())))
    assert zeros == none == SeriesResult(1.0, 0.0, 1, 0, 0.0, True, 1)


def test_zeros_beside_two_values_are_no_variables(monkeypatch: pytest.MonkeyPatch) -> None:
    # At lower parameter 2 and alpha 1 the partition (1, 1, 1) is a pole
    # that the zero annuls: the row (0, 0.9, 0.5) raised it.  It is the
    # series of (0.9, 0.5).
    want = pFq_alpha(HypergeomSpec((), (2.0,), 1.0, ArgBlocks.from_values((0.9, 0.5))))
    got = pFq_alpha(HypergeomSpec((), (2.0,), 1.0, ArgBlocks.from_values((0.0, 0.9, 0.5))))
    assert got == want
    assert abs(got.value / 1.98954414315428 - 1.0) <= 1e-14
    # Rows that keep JackTable drop their zeros too, one table per number
    # of nonzero values, each row the series of its nonzero values.
    built = _count_jack_tables(monkeypatch)
    rows = np.array([(0.0, 0.9, 0.5, 0.2), (0.7, 0.6, 0.5, 0.2), (0.9, 0.0, -0.5, 0.0)])
    batch = pFq_alpha(HypergeomSpec((), (4.0,), 1.0, rows))
    assert built == [1, 1, 1]
    for row, result in zip(rows, batch):
        nonzero = [value for value in row if value != 0.0]
        assert result == pFq_alpha(HypergeomSpec((), (4.0,), 1.0, ArgBlocks.from_values(nonzero)))


def test_two_value_series_meets_the_strip_budget(monkeypatch: pytest.MonkeyPatch) -> None:
    # A series on the two-value path raises at the weight where JackTable
    # meets the strip budget, with the same message.
    monkeypatch.setattr(jack, "MAX_STRIP_PAIRS", 500)
    row, alpha = (8.0, 4.0, 4.0), 0.8125
    jack._strip_table.cache_clear()
    table = jack.JackTable([row], alpha)
    with pytest.raises(ResourceLimitError) as want:
        for k in range(DEFAULT_MAX_WEIGHT):
            table.layer(k)
    jack._strip_table.cache_clear()
    jack._pair_coefficients.cache_clear()
    built = _count_jack_tables(monkeypatch)
    with pytest.raises(ResourceLimitError) as raised:
        pFq_alpha(HypergeomSpec((), (4.0,), alpha, ArgBlocks.from_values(row)))
    jack._strip_table.cache_clear()
    jack._pair_coefficients.cache_clear()
    assert str(raised.value) == str(want.value)
    assert built == []


@pytest.mark.parametrize("power", [0, 1, 2, 3])
@pytest.mark.parametrize("rate", [0.0, 0.05, 1.0, 10.0, 40.0])
def test_ratio_moments_match_mpmath(power: int, rate: float) -> None:
    # int_0^1 (1-r)^power exp(rate r) r^d dr = B(d+1, power+1) 1F1(d+1;
    # d+power+2; rate), and B(d+1, power+1) alone at rate 0
    moments = math.exp(rate) * ratio_moments(power, rate, 80)
    for d, got in enumerate(moments.tolist()):
        want = mp.beta(d + 1, power + 1)
        if rate:
            want *= mp.hyp1f1(d + 1, d + power + 2, rate)
        assert abs(got / want - 1) <= 1e-14, (d, got, want)


def test_ratio_integral_validation() -> None:
    for fields, message in [
        ((0.0, 1, 1, 1, 0.0), "u must be finite and nonzero"),
        ((math.inf, 1, 1, 1, 0.0), "u must be finite and nonzero"),
        ((1.0, 1, 0, 1, 0.0), "q must be an integer of at least 1"),
        ((1.0, -1, 1, 1, 0.0), "p must be an integer of at least 0"),
        ((1.0, 1, 1, 0.5, 0.0), "power must be an integer of at least 0"),
        ((1.0, 1, 1, 1, -1.0), "rate must be finite and nonnegative"),
        ((1.0, 1, 1, 1, math.nan), "rate must be finite and nonnegative"),
    ]:
        with pytest.raises(ValueError, match=message):
            RatioIntegral(*fields)
    assert RatioIntegral(2, 1.0, 2.0, 1.0, 0) == RatioIntegral(2.0, 1, 2, 1, 0.0)


@pytest.mark.parametrize("t_power", [0.0, 2.0, 5.5])
def test_t_power_integrates_the_common_scale(t_power: float) -> None:
    # 0F0 of any argument is exp(x_1 + ... + x_m): the C_kappa of one weight
    # sum to (x_1 + ... + x_m)**k.  Integrated over the common scale t
    # against t**t_power it is int_0^1 t**t_power exp(t sum(x)) dt, here for
    # rows of one value, two values (one beside a zero), three values and
    # mixed signs, and for an integrated two-value argument.
    rows = np.array([(0.8, 0.8, 0.8), (1.2, 0.4, 0.4), (0.9, 0.0, 0.6), (1.5, 0.7, 0.3),
                     (1.5, 0.7, -0.3)])
    batch = pFq_alpha(HypergeomSpec((), (), 1.5, rows, t_power=t_power))
    for row, result in zip(rows, batch):
        total = mp.mpf(float(row.sum()))
        want = mp.quad(lambda t: t**t_power * mp.exp(t * total), [0, 1])
        assert abs(result.value / want - 1) <= 1e-14, (row, result.value, want)
    ratio = RatioIntegral(1.3, 2, 1, 2, 0.5)
    result = pFq_alpha(HypergeomSpec((), (), 1.5, ratio, t_power=t_power))
    want = mp.quad(
        lambda r, t: (1 - r) ** 2 * mp.exp(0.5 * r) * t**t_power * mp.exp(t * 1.3 * (2 + r)),
        [0, 1], [0, 1],
    )
    assert abs(result.value / want - 1) <= 1e-14, (result.value, want)


def test_ratio_integral_meets_the_strip_budget(monkeypatch: pytest.MonkeyPatch) -> None:
    # The integrated series raises at the weight where the node series of
    # its two-value argument meets the strip budget, with the same message.
    monkeypatch.setattr(jack, "MAX_STRIP_PAIRS", 500)
    jack._strip_table.cache_clear()
    jack._pair_coefficients.cache_clear()
    with pytest.raises(ResourceLimitError) as want:
        pFq_alpha(HypergeomSpec((), (4.0,), 0.8125, ArgBlocks(((8.0, 1), (4.0, 2)))))
    jack._strip_table.cache_clear()
    jack._pair_coefficients.cache_clear()
    with pytest.raises(ResourceLimitError) as raised:
        pFq_alpha(HypergeomSpec((), (4.0,), 0.8125, RatioIntegral(8.0, 1, 2, 1, 0.0)))
    jack._strip_table.cache_clear()
    jack._pair_coefficients.cache_clear()
    assert str(raised.value) == str(want.value)


# --- two-value layers as contractions of cached sums ---

PAIR_SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)]


def _check_contracted_layers(upper, alpha, p, q, u, weights, rate=0.0) -> None:
    """Check layers 0..12 of the two-value series ``upper F (7.3)`` at ``u
    1^p, u r 1^q`` against its per-partition terms.

    ``weights`` gives the member's source and, per partition,
    ``sum_d c[d, kappa] w_d``, where ``w`` is ``r**d`` (a node: the Horner
    value at ``r``) or the moments of a :class:`RatioIntegral`
    (``rate``).  Each term is put in the contraction's scale,
    ``exp(log_coef + log(C/P) - shift)``; the layer's sum and magnitude
    must be ``math.fsum`` of the positive terms less and plus that of the
    negative terms, times the layer's factor ``exp(shift + rate) |u|**k
    2**-exponent``, taken to 30 digits.
    """
    lower = (7.3,)
    contraction = hypergeom._contraction(upper, lower, alpha, p, q)
    source = weights.source(contraction, u)
    for k in range(13):
        layer = source.coefficients.layer(k)
        if not layer.nonempty:
            break
        (count, exponent, signed, magnitude), = source.layer(k)
        contracted = contraction.layer(k)
        rows = layer.rows
        values, log_norm = weights.per_partition(k, rows)
        logs = layer.log_coef if log_norm is None else layer.log_coef + log_norm[rows]
        terms = np.exp(logs - contracted.shift) * values
        negative = layer.negative ^ (u < 0.0 and k % 2 == 1)
        want_pos = math.fsum(terms[~negative].tolist())
        want_neg = math.fsum(terms[negative].tolist())
        assert count == len(rows)
        with mp.workdps(30):
            log_factor = mp.mpf(contracted.shift) + mp.mpf(rate) + k * mp.log(abs(u))
            factor = float(mp.exp(log_factor) / mp.mpf(2) ** exponent)
        want_magnitude = factor * (want_pos + want_neg)
        assert abs(magnitude - want_magnitude) <= 1e-14 * want_magnitude, (k, magnitude)
        want_signed = factor * (want_pos - want_neg)
        assert abs(signed - want_signed) <= 1e-14 * want_magnitude, (k, signed)


class _NodeWeights:
    """``w_d = r**d``: a quadrature node."""

    def __init__(self, r: float, p: int, q: int, alpha: float) -> None:
        self.r, self.p, self.q, self.alpha = r, p, q, alpha

    def source(self, contraction, u: float):
        return hypergeom._PairSums(contraction, [u], np.array([self.r]))

    def per_partition(self, k: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Each live partition's ``sum_d c[d, kappa] w_d``, and every
        partition's ``log(C/P)``; at ``p = 0``, ``r = 1`` (one distinct
        value) the identity coefficients hold all of ``C_kappa(1^q)``."""
        if self.p == 0:
            return np.ones(len(rows)), None
        values, log_norm, _ = pair_layer(1.0, self.r, self.p, self.q, self.alpha, k)
        return values[rows], log_norm


class _MomentWeights:
    """``w_d = mu_d``, the moments of ``(1 - r)**power exp(rate (r - 1))``."""

    def __init__(self, power: int, rate: float, p: int, q: int, alpha: float) -> None:
        self.power, self.rate = power, rate
        self.pairs = jack._pair_coefficients(alpha, p, q) if p else None
        self.moments = ratio_moments(power, rate, 16)

    def source(self, contraction, u: float):
        return hypergeom._PairSums(contraction, [u], None, self.power, self.rate)

    def per_partition(self, k: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """As :meth:`_NodeWeights.per_partition`; at ``p = 0`` the
        identity-path coefficients hold ``C_kappa(1^q)`` and only ``mu_k``
        is left."""
        if self.pairs is None:
            return np.full(len(rows), self.moments[k]), None
        c = self.pairs.layer(k)[:, rows]
        values = [math.fsum((c[:, j] * self.moments[: k + 1]).tolist()) for j in range(len(rows))]
        return np.array(values), self.pairs.strips.layer(k).log_norm


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_contracted_layers_match_partition_sums(alpha: float) -> None:
    # A quadrature node's layer: G+-[k] . r**d against the Horner value of
    # every partition's polynomial in r, with its coefficient, in the same
    # scale; and a one-value layer, p = 0 at r = 1.
    for upper in [(), (-5.0,)]:
        for p, q in PAIR_SHAPES:
            for r in (0.03, 0.5, 0.97):
                for u in (1.3, -1.3):
                    _check_contracted_layers(upper, alpha, p, q, u, _NodeWeights(r, p, q, alpha))
        for q in (1, 2, 3):
            for u in (1.3, -1.3):
                _check_contracted_layers(upper, alpha, 0, q, u, _NodeWeights(1.0, 0, q, alpha))


@pytest.mark.parametrize("power", [0, 1, 2])
@pytest.mark.parametrize("rate", [0.0, 0.05, 10.0, 400.0])
def test_integrated_layers_match_partition_sums(power: int, rate: float) -> None:
    # A RatioIntegral's layer: G+-[k] . mu against every partition's
    # polynomial contracted with the moments, p = 0 (identity-path
    # coefficients, only d = k) included.
    for alpha in (0.5, 1.0, 2.0):
        for upper in [(), (-5.0,)]:
            for p, q in [(0, 1), (0, 3)] + PAIR_SHAPES:
                weights = _MomentWeights(power, rate, p, q, alpha)
                for u in (1.3, -1.3):
                    _check_contracted_layers(upper, alpha, p, q, u, weights, rate)


@pytest.mark.parametrize(
    "args, key",
    [
        (ArgBlocks(((1.5, 1), (0.6, 2))), (1, 2)),
        (np.array([(1.5, 1.5, 0.6, 0.6), (0.9, 0.9, 0.2, 0.2)]), (2, 2)),
        (RatioIntegral(1.5, 1, 2, 1, 0.0), (1, 2)),
        (RatioIntegral(2.5, 2, 2, 2, 3.0), (2, 2)),
    ],
    ids=["node", "batch", "integral", "integral-rate"],
)
def test_contracted_series_reads_no_deeper_layer(args, key) -> None:
    # A series that stops at weight K has built its contraction and its
    # pair coefficients to weight K and no further.
    alpha = 0.6875
    hypergeom._contraction.cache_clear()
    jack._pair_coefficients.cache_clear()
    result = pFq_alpha(HypergeomSpec((), (4.0,), alpha, args))
    depth = result.max_weight_used + 1
    assert len(hypergeom._contraction((), (4.0,), alpha, *key).layers) == depth
    assert len(jack._pair_coefficients(alpha, *key).layers) == depth


@pytest.mark.parametrize(
    "args, alpha, parts, weight",
    [((5000.0, 1.0, 2.0, 1), 1.0, 3, 74), ((40.0, 1.0, 4.0, 1), 2.0, 6, 35)],
)
def test_integrated_series_meets_the_strip_budget_where_it_did(args, alpha, parts, weight) -> None:
    # E(1) past the strip budget raises at the weight, and with the
    # message, that the per-partition pair layers gave, having contracted
    # every layer below it.
    jack._strip_table.cache_clear()
    jack._pair_coefficients.cache_clear()
    hypergeom._contraction.cache_clear()
    try:
        with pytest.raises(ResourceLimitError) as raised:
            exact_En_hard(*args)
        assert str(raised.value) == (
            f"Jack strip table at alpha={alpha} with {parts} variables would exceed "
            f"2000000 strips at weight {weight}"
        )
        # the error leaves no strip table behind
        assert jack._strip_table.cache_info().currsize == 0
        assert jack._pair_coefficients.cache_info().currsize == 0
        p = round(args[1] * args[2] / 2.0)
        contraction = hypergeom._contraction((), (args[1] + 2.0,), alpha, p, round(args[2]))
        assert len(contraction.layers) == weight
    finally:  # the tables at the budget hold tens of MB
        jack._strip_table.cache_clear()
        jack._pair_coefficients.cache_clear()
        hypergeom._contraction.cache_clear()


def test_shared_contractions_under_threads() -> None:
    # Threads extending one shared contraction entry must not interleave layers.
    key = ((-9.0, 0.7), (2.4,), 1.375, 2, 2)

    def layers(entry) -> list:
        return [
            (layer.count, layer.shift, layer.weights.tolist())
            for layer in (entry.layer(k) for k in range(30))
        ]

    want = layers(hypergeom._Contraction(*key))
    hypergeom._contraction.cache_clear()
    results: list = [None] * 8
    start = threading.Barrier(8)

    def work(slot: int) -> None:
        start.wait()
        results[slot] = layers(hypergeom._contraction(*key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(result == want for result in results)


def test_batch_raises_its_failing_members_error() -> None:
    rows = np.array([(0.1, 0.1, 0.05, 0.05), (40.0, 40.0, 30.0, 30.0), (0.2, 0.2, 0.2, 0.2)])
    with pytest.raises(NonConvergenceError):
        pFq_alpha(HypergeomSpec((), (4.0,), 1.0, rows), max_weight=12)
    with pytest.raises(NonConvergenceError):
        pFq_alpha(HypergeomSpec((), (4.0,), 1.0, ArgBlocks.from_values(rows[1])), max_weight=12)
    for row in rows[[0, 2]]:
        pFq_alpha(HypergeomSpec((), (4.0,), 1.0, ArgBlocks.from_values(row)), max_weight=12)
    with pytest.raises(ValueError, match="rows of argument values"):
        HypergeomSpec((), (4.0,), 1.0, np.zeros(3))


@pytest.mark.parametrize(
    "change, options, field",
    [
        ({"args": ArgBlocks.from_values((math.nan, math.nan))}, {}, "argument value"),
        ({"args": ArgBlocks(((math.inf, 2),))}, {}, "argument value"),
        ({"args": np.array([[0.5, math.nan, math.nan]])}, {}, "argument value"),
        ({"upper": (math.nan,)}, {}, "upper parameter"),
        ({"lower": (-math.inf,)}, {}, "lower parameter"),
        ({"alpha": math.nan}, {}, "alpha"),
        ({"alpha": 0.0}, {}, "alpha"),
        ({"t_power": math.nan}, {}, "t_power"),
        ({"t_power": -1.0}, {}, "t_power"),
        ({}, {"tol": math.nan}, "tol"),
        ({}, {"tol": 0.0}, "tol"),
        ({}, {"tol": -1.0}, "tol"),
        ({}, {"max_weight": -1}, "max_weight"),
        ({}, {"max_weight": 2.5}, "max_weight"),
    ],
    ids=[
        "nan-args", "inf-arg", "nan-batch", "nan-upper", "inf-lower", "nan-alpha",
        "zero-alpha", "nan-t-power", "negative-t-power", "nan-tol", "zero-tol", "negative-tol", "negative-max-weight",
        "fractional-max-weight",
    ],
)
def test_series_rejects_bad_inputs(change: dict, options: dict, field: str) -> None:
    # Each bad field raises ValueError naming it, before any layer is built.
    fields = {"upper": (), "lower": (4.0,), "alpha": 1.0, "args": ArgBlocks(((0.5, 2),))}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        pFq_alpha(HypergeomSpec(**{**fields, **change}), **options)


@pytest.mark.parametrize(
    "upper, lower, alpha, t, m",
    [
        ((-40.0,), (2.0,), 1.0, -400.0, 2),
        ((-60.0,), (4.0,), 0.5, -60.0, 2),
        # exact_E0_finiteN(0.5, 1.5, 4, 30)
        ((-30.0,), (1.5,), 2.0, -0.5, 3),
    ],
)
def test_alternating_one_value_series_sums_its_coefficients(upper, lower, alpha, t, m) -> None:
    # An alternating finite-size series of t repeated m times: its float
    # value and its log value against a 60-digit sum of the same float
    # coefficients times t**k, over the layers it summed.
    result = pFq_alpha(HypergeomSpec(upper, lower, alpha, ArgBlocks(((t, m),))))
    coefficients = hypergeom._coefficients(upper, lower, alpha, m, True)
    with mp.workdps(60):
        total = mp.mpf(0)
        for k in range(result.max_weight_used + 1):
            layer = coefficients.layer(k)
            for log_coef, negative in zip(layer.log_coef.tolist(), layer.negative.tolist()):
                term = mp.exp(mp.mpf(log_coef)) * mp.mpf(t) ** k
                total += -term if negative else term
        assert abs(result.value - total) <= 1e-15 * abs(total)
        log_error = abs(result.log_value - mp.log(abs(total)))
        assert log_error <= 2**-52 * max(1.0, abs(result.log_value))


def test_one_value_series_past_float_range() -> None:
    # 1F1(-150; 1; -1e4) has positive terms up to about exp(780): its layers
    # are scaled by powers of two, and its value saturates while its sign
    # and log value hold.
    result = pFq_alpha(HypergeomSpec((-150.0,), (1.0,), 1.0, ArgBlocks(((-1e4, 1),))))
    assert result.terminated_exactly
    assert result.value == math.inf
    assert result.sign == 1
    with mp.workdps(60):
        want = mp.log(mp.hyp1f1(-150, 1, -1e4))
        assert want > 709
        assert abs(result.log_value - want) <= 2**-52 * abs(result.log_value)


# Whole single-series results, every field to the bit, as the series gave
# them when a single series had an entry path of its own beside the batch:
# the hard-edge series at s = 6 with m = beta a / 2 in {0, 1, 3} repeated
# arguments (m = 0 is the empty argument), keyed by (beta, m); the finite-N
# series at s = 0.5, beta = 4, a = 1, N = 5, whose argument -s is negative and
# which terminates exactly; and one table-path series on mixed arguments.
E0_HARD_SERIES_PINS = {
    (1.0, 0): SeriesResult(1.0, 0.0, 1, 0, 0.0, True, 1),
    (1.0, 1): SeriesResult(
        1.9627864279361782, 0.6743651105654103, 1, 12, 2.2161787275206506e-17, False, 13
    ),
    (1.0, 3): SeriesResult(
        2.116771427539108, 0.7498920163372992, 1, 15, 5.29840384981085e-16, False, 174
    ),
    (2.0, 0): SeriesResult(1.0, 0.0, 1, 0, 0.0, True, 1),
    (2.0, 1): SeriesResult(
        3.1655890675997798, 1.1523391575829183, 1, 13, 1.5855180755528686e-18, False, 14
    ),
    (2.0, 3): SeriesResult(
        4.457372853421946, 1.4945595461580827, 1, 17, 7.157946652478482e-16, False, 237
    ),
    (4.0, 0): SeriesResult(1.0, 0.0, 1, 0, 0.0, True, 1),
    (4.0, 1): SeriesResult(
        5.834386409833859, 1.7637691033683385, 1, 13, 5.550754749910115e-18, False, 14
    ),
    (4.0, 3): SeriesResult(
        17.746911880131755, 2.876211522201269, 1, 19, 1.3406663703383632e-16, False, 314
    ),
}


@pytest.mark.parametrize("key", sorted(E0_HARD_SERIES_PINS))
def test_hard_edge_series_pinned_bits(key: tuple[float, int]) -> None:
    beta, m = key
    _, series = exact_E0_hard_detailed(6.0, 2.0 * m / beta, beta)
    assert series == E0_HARD_SERIES_PINS[key]


def test_finite_size_series_pinned_bits() -> None:
    log_value, series = exact_E0_finiteN_detailed(0.5, 1.0, 4.0, 5)
    assert log_value == -1.383927274272184
    assert series == SeriesResult(37.19122051366842, 3.616072725727816, 1, 10, 0.0, True, 21)


def test_table_path_series_pinned_bits() -> None:
    spec = HypergeomSpec((0.5,), (3.7,), 0.5, ArgBlocks.from_values((0.3, -1.1, 0.0, 0.3)))
    assert pFq_alpha(spec) == SeriesResult(
        0.9726567300631657, -0.027724054456059348, 1, 17, 6.185516905065429e-16, False, 237
    )
