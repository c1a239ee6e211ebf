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
from betagap.gap import exact_E0_finiteN_detailed, exact_E0_hard_detailed, exact_En_hard
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
from oracles import jack_C_at_identity_log

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
    result = pFq_alpha(_0f1(c, t, 1, 1.0))
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


# --- whole-layer coefficients against the scalar one-partition forms ---

# Each scalar value is reused across parameter sets and identity counts.
_pochhammer = cache(gen_pochhammer_signlog)
_identity_log = cache(jack_C_at_identity_log)


def _scalar_coefficient(
    kappa: tuple[int, ...],
    upper: tuple[float, ...],
    lower: tuple[float, ...],
    alpha: float,
    identity: int | None,
) -> tuple[int, float] | str:
    """Sign and log of one term's argument-free factor, by the scalar
    forms; ``(0, -inf)`` for a vanishing term, or the pole message."""
    k = sum(kappa)
    sign = 1
    if identity is None:
        log_mag = -math.lgamma(k + 1)
    else:
        log_mag = _identity_log(kappa, alpha, identity) - math.lgamma(k + 1)
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
        for identity in (None, parts):
            coefficients = hypergeom._Coefficients(upper, lower, alpha, parts, identity)
            cap = coefficients.cap
            for k in range(31):
                if cap is not None and k > cap * parts:
                    break
                kappas = partitions_of_weight(k, parts)
                want = [
                    (row, _scalar_coefficient(kappa, upper, lower, alpha, identity))
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


def _reference_series(spec: HypergeomSpec, tol: float = 1e-12) -> tuple:
    """The series summed one partition at a time from the scalar forms,
    as before whole-layer sums: (value, log value, terms, last weight)."""
    xs = spec.args.expanded()
    m = len(xs)
    cap = hypergeom._termination_cap(spec.upper)
    distinct = {value for value, _ in spec.args.blocks if value != 0.0}
    table = jack.JackTable([xs], spec.alpha) if len(distinct) > 1 else None
    # one distinct value t over `nonzero` variables: t**k C_kappa(1, ..., 1)
    t = next(iter(distinct), 1.0)
    nonzero = sum(mult for value, mult in spec.args.blocks if value != 0.0)
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
                l_c = k * math.log(abs(t)) + _identity_log(kappa, spec.alpha, nonzero)
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
        log_s, _ = hypergeom._signed_log_diff(log_pos, log_neg)
        if k > 0 and layer_log < math.log(tol) + log_s:
            small_layers += 1
            if small_layers >= 3:
                break
        else:
            small_layers = 0
        k += 1
    log_s, _ = hypergeom._signed_log_diff(log_pos, log_neg)
    return float_sum + float_comp, log_s, terms, weight


REFERENCE_SPECS = [
    # one distinct value: E(0) shapes, a zero block, upper zeros, 2F1
    ((), (3.0,), 1.0, ((2.5, 3),)),
    ((), (4.0,), 0.5, ((5.0, 2),)),
    ((), (2.5,), 1.5, ((0.0, 2), (1.3, 2))),
    ((-0.5,), (2.2,), 2.0, ((0.9, 3),)),
    ((0.35, 1.4), (2.6,), 1.0, ((0.55, 1),)),
    ((), (2.3,), 1.0, ((0.0, 3),)),
    # lower-parameter poles, met before and after the series would stop
    ((), (2.0,), 1.0, ((0.0, 3),)),
    ((), (2.5,), 0.8, ((0.7, 3),)),
    # terminating finite-N shapes
    ((-10.0,), (3.0,), 2.0, ((-0.8, 2),)),
    ((-5.0,), (4.0,), 1.0, ((-0.5, 2), (-0.35, 2))),
    # mixed arguments: quadrature nodes, a zero variable, mixed signs
    ((), (3.0,), 1.0, ((1.0, 1), (0.3, 2))),
    ((), (2.7,), 1.5, ((0.0, 1), (0.8, 1), (0.3, 2))),
    ((), (3.3,), 0.5, ((-0.7, 1), (0.4, 2))),
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


def test_shared_coefficients_under_threads() -> None:
    # Threads extending one shared coefficient entry must not interleave layers.
    key = ((-9.0, 0.7), (2.4,), 1.375, 4, 4)

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
    # quadrature node takes the cached two-value coefficients.
    built = _count_jack_tables(monkeypatch)
    assert 0.0 < exact_En_hard(4.0, 1.0, 2.0, 1) < 1.0
    assert built == []
    # three distinct values, a zero beside other values and mixed signs
    # keep JackTable, one table for the batch
    rows = np.array([(1.0, 0.6, 0.3), (0.5, 0.0, 0.2), (1.0, 0.4, 0.3), (0.8, -0.5, -0.5)])
    batch = pFq_alpha(HypergeomSpec((), (4.0,), 1.0, rows))
    assert built == [4]
    for row, result in zip(rows, batch):
        assert result == pFq_alpha(HypergeomSpec((), (4.0,), 1.0, ArgBlocks.from_values(row)))


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


# Whole single-series results, every field to the bit, as the series gave
# them when a single series had an entry path of its own beside the batch:
# the hard-edge series at s = 6 with m = beta a / 2 in {0, 1, 3} repeated
# arguments (m = 0 is the empty argument), keyed by (beta, m); the finite-N
# series at s = 0.5, beta = 4, a = 1, N = 5, whose argument -s is negative and
# which terminates exactly; and one table-path series on mixed arguments.
E0_HARD_SERIES_PINS = {
    (1.0, 0): SeriesResult(1.0, 0.0, 1, 0, 0.0, True, 1),
    (1.0, 1): SeriesResult(
        1.9627864279361782, 0.67436511056541, 1, 12, 2.2161787275206348e-17, False, 13
    ),
    (1.0, 3): SeriesResult(
        2.116771427539108, 0.7498920163372993, 1, 15, 5.29840384981085e-16, False, 174
    ),
    (2.0, 0): SeriesResult(1.0, 0.0, 1, 0, 0.0, True, 1),
    (2.0, 1): SeriesResult(
        3.1655890675997798, 1.1523391575829185, 1, 13, 1.58551807555288e-18, False, 14
    ),
    (2.0, 3): SeriesResult(
        4.457372853421946, 1.4945595461580823, 1, 17, 7.15794665247843e-16, False, 237
    ),
    (4.0, 0): SeriesResult(1.0, 0.0, 1, 0, 0.0, True, 1),
    (4.0, 1): SeriesResult(
        5.834386409833859, 1.7637691033683387, 1, 13, 5.550754749910036e-18, False, 14
    ),
    (4.0, 3): SeriesResult(
        17.74691188013176, 2.8762115222012694, 1, 19, 1.3406663703383632e-16, False, 314
    ),
}


@pytest.mark.parametrize("key", sorted(E0_HARD_SERIES_PINS))
def test_hard_edge_series_pinned_bits(key: tuple[float, int]) -> None:
    beta, m = key
    _, series = exact_E0_hard_detailed(6.0, 2.0 * m / beta, beta)
    assert series == E0_HARD_SERIES_PINS[key]


def test_finite_size_series_pinned_bits() -> None:
    log_value, series = exact_E0_finiteN_detailed(0.5, 1.0, 4.0, 5)
    assert log_value == -1.3839272742721835
    assert series == SeriesResult(37.19122051366841, 3.6160727257278165, 1, 10, 0.0, True, 21)


def test_table_path_series_pinned_bits() -> None:
    spec = HypergeomSpec((0.5,), (3.7,), 0.5, ArgBlocks.from_values((0.3, -1.1, 0.0, 0.3)))
    assert pFq_alpha(spec) == SeriesResult(
        0.9726567300631657, -0.027724054456059424, 1, 17, 6.185516905065429e-16, False, 237
    )
