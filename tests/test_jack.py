"""Jack polynomial evaluators, and the reference forms of ``oracles`` that
check them."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betagap import hypergeom, jack
from betagap.errors import ResourceLimitError
from betagap.jack import JackTable, jack_C_eval_signlog
from betagap.partitions import partitions_of_weight
from oracles import (
    hook_products_log,
    jack_C_at_identity_log,
    jack_C_monomial_signlog,
    jack_C_oracle_signlog,
    jack_in_monomial_basis,
    monomial_eval,
    rho,
)


def _jack_C(kappa: tuple[int, ...], x: tuple[float, ...], alpha: float) -> float:
    """``C_kappa(x)`` as a float, from :func:`jack_C_eval_signlog`."""
    sign, log_abs = jack_C_eval_signlog(kappa, x, alpha)
    return sign * math.exp(log_abs)


def test_rho_values() -> None:
    # rho(kappa) = sum k_i (k_i - 1 - 2(i-1)/alpha)
    np.testing.assert_allclose(rho((2,), 1.0), 2.0)
    np.testing.assert_allclose(rho((1, 1), 1.0), -2.0)
    np.testing.assert_allclose(rho((3, 1), 2.0), 5.0)


def test_monomial_eval_symmetrization() -> None:
    # m_(2,1)(x, y) = x^2 y + x y^2
    x, y = 1.3, 0.7
    np.testing.assert_allclose(
        monomial_eval((2, 1), (x, y)), x * x * y + x * y * y, rtol=1e-13
    )
    # m_(1,1)(x, y, z) = xy + xz + yz
    np.testing.assert_allclose(
        monomial_eval((1, 1), (2.0, 3.0, 5.0)), 2 * 3 + 2 * 5 + 3 * 5, rtol=1e-13
    )


def test_weight_one_polynomial() -> None:
    # C_(1) = x1 + ... + xm for every alpha.
    for alpha in (0.5, 1.0, 2.0):
        coeffs = jack_in_monomial_basis((1,), alpha)
        assert set(coeffs) == {(1,)}
        np.testing.assert_allclose(coeffs[(1,)], 1.0, rtol=1e-13)


def _c_normalization(kappa: tuple[int, ...], alpha: float) -> float:
    """Factor turning the monic expansion into the sum-rule normalization."""
    _, log_lower = hook_products_log(kappa, alpha)
    k = sum(kappa)
    return alpha**k * math.factorial(k) / math.exp(log_lower)


def test_weight_two_expansion() -> None:
    # In coefficient space the sum rule reads sum_kappa C_kappa = m_2 + 2 m_11.
    for alpha in (0.5, 1.0, 2.0):
        total = {}
        for kappa in ((2,), (1, 1)):
            norm = _c_normalization(kappa, alpha)
            for mu, c in jack_in_monomial_basis(kappa, alpha).items():
                total[mu] = total.get(mu, 0.0) + norm * c
        np.testing.assert_allclose(total[(2,)], 1.0, rtol=1e-12)
        np.testing.assert_allclose(total[(1, 1)], 2.0, rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_sum_rule_at_generic_point(alpha: float, k: int) -> None:
    x = (0.9, 1.7, 0.4)
    total = sum(_jack_C(kappa, x, alpha) for kappa in partitions_of_weight(k))
    np.testing.assert_allclose(total, sum(x) ** k, rtol=1e-11)


def test_identity_specialization_matches_monomial_route() -> None:
    for k in range(7):
        for kappa in partitions_of_weight(k):
            norm = _c_normalization(kappa, 1.5)
            expansion = jack_in_monomial_basis(kappa, 1.5)
            for m in (1, 2, 3):
                hook_value = math.exp(jack_C_at_identity_log(kappa, 1.5, m))
                poly_value = norm * sum(
                    c * monomial_eval(mu, (1.0,) * m)
                    for mu, c in expansion.items()
                )
                np.testing.assert_allclose(hook_value, poly_value, atol=1e-12, rtol=1e-12)


def test_signlog_route_matches_direct() -> None:
    x = (2.0, 0.5, 1.0)
    for kappa in ((3, 1), (2, 2), (4,)):
        for alpha in (0.5, 1.0, 2.0):
            _, want = jack_C_oracle_signlog(kappa, x, alpha)
            sign, log_mag = jack_C_eval_signlog(kappa, x, alpha)
            assert sign == 1
            np.testing.assert_allclose(math.exp(log_mag), math.exp(want), rtol=1e-11)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("value", [1.0, 0.7, -1.3])
def test_signlog_at_repeated_value_matches_identity_form(alpha: float, value: float) -> None:
    # One repeated value builds a JackTable like any other argument.
    for m in range(1, 6):
        for k in range(11):
            for kappa in partitions_of_weight(k, m):
                sign, log_abs = jack_C_eval_signlog(kappa, (value,) * m, alpha)
                assert sign == (-1 if value < 0.0 and k % 2 else 1)
                want = k * math.log(abs(value)) + jack_C_at_identity_log(kappa, alpha, m)
                assert abs(math.expm1(log_abs - want)) <= 1e-13, (kappa, m)


def test_repeated_arguments_agree_with_perturbed() -> None:
    # The equal-argument specialization must be the limit of distinct ones.
    kappa, alpha = (3, 2), 2.0
    tied = _jack_C(kappa, (1.0, 1.0, 0.5), alpha)
    eps = 1e-7
    split = _jack_C(kappa, (1.0 + eps, 1.0 - eps, 0.5), alpha)
    np.testing.assert_allclose(tied, split, rtol=1e-5)


def test_nonadjacent_repeats_at_unit_parameter() -> None:
    # Duplicated arguments separated by a distinct one must not be treated
    # as distinct rows of the determinant (that would make it singular).
    value = _jack_C((1,), (1.0, 0.5, 1.0), 1.0)
    np.testing.assert_allclose(value, 2.5, rtol=1e-12)
    shuffled = _jack_C((2, 1), (1.0, 0.5, 1.0), 1.0)
    adjacent = _jack_C((2, 1), (1.0, 1.0, 0.5), 1.0)
    np.testing.assert_allclose(shuffled, adjacent, rtol=1e-12)


def test_zero_variable_padding() -> None:
    # Appending zero variables never changes the value.
    kappa, alpha = (2, 1), 0.5
    np.testing.assert_allclose(
        _jack_C(kappa, (1.2, 0.8), alpha),
        _jack_C(kappa, (1.2, 0.8, 0.0), alpha),
        rtol=1e-11,
    )


def test_too_many_rows_for_variables_gives_zero() -> None:
    assert _jack_C((1, 1, 1), (1.0, 2.0), 1.0) == 0.0


@given(
    st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=3),
    st.floats(min_value=0.4, max_value=2.5),
    st.integers(min_value=1, max_value=5),
)
@settings(deadline=None, max_examples=40)
def test_sum_rule_property(xs, alpha, k) -> None:
    x = tuple(xs)
    total = sum(_jack_C(kappa, x, alpha) for kappa in partitions_of_weight(k))
    np.testing.assert_allclose(total, sum(x) ** k, rtol=1e-9)


def test_expansion_weight_ceiling() -> None:
    with pytest.raises(ResourceLimitError):
        jack_in_monomial_basis((201,), 1.0)


def _node_layer(table: JackTable, k: int, node: int = 0) -> tuple[np.ndarray, np.ndarray, int]:
    """One node's layer ``k``: values, log factors and sign."""
    values, log_factors, signs = table.layer(k)
    return values[node], log_factors[node], int(signs[node])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize(
    "x",
    [
        (0.9, 0.4),
        (1.0, 0.5, 0.5),
        (0.7, 0.7, 0.2, 0.2),
        (1.0, 0.6, 0.6, 0.3, 0.3),
        (-0.8, -0.3),
        (-1.0, -0.45, -0.45),
        (-1.0, -0.6, -0.6, -0.3, -0.3),
    ],
)
def test_table_matches_oracle(x: tuple[float, ...], alpha: float) -> None:
    # Schur bialternant at alpha = 1, monomial expansion otherwise.
    table = JackTable([x], alpha)
    for k in range(13):
        values, log_factors, sign = _node_layer(table, k)
        kappas = partitions_of_weight(k, len(x))
        assert len(values) == len(kappas)
        for kappa, value, log_factor in zip(kappas, values, log_factors):
            want_sign, want_log = jack_C_oracle_signlog(kappa, x, alpha)
            got = sign * value * math.exp(log_factor)
            want = want_sign * math.exp(want_log)
            assert abs(got - want) <= 1e-13 * abs(want), (kappa, got, want)


def test_table_with_zero_variable() -> None:
    # A zero argument is a variable of the table whose every strip vanishes.
    x = (0.8, 0.0, 0.3)
    table = JackTable([x], 1.5)
    for k in range(7):
        values, log_factors, sign = _node_layer(table, k)
        for kappa, value, log_factor in zip(partitions_of_weight(k, 3), values, log_factors):
            if len(kappa) == 3:
                assert value == 0.0
                continue
            want_sign, want_log = jack_C_oracle_signlog(kappa, x, 1.5)
            np.testing.assert_allclose(
                sign * value * math.exp(log_factor), want_sign * math.exp(want_log), rtol=1e-13
            )


def test_strip_budget_raises(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(jack, "MAX_STRIP_PAIRS", 500)
    table = JackTable([(1.0, 0.5, 0.25)], 0.8125)
    with pytest.raises(ResourceLimitError):
        table.layer(40)
    jack._strip_table.cache_clear()


def _layer_lists(table: JackTable, k: int, node: int = 0) -> tuple[list, list, int]:
    values, log_factors, sign = _node_layer(table, k, node)
    return values.tolist(), log_factors.tolist(), sign


def test_shared_strip_table_under_threads() -> None:
    # Threads extending one shared strip table must not interleave layers.
    x = (1.0, 0.55, 0.55, 0.2)
    alpha = 1.375
    jack._strip_table.cache_clear()
    want = [_layer_lists(JackTable([x], alpha), k) for k in range(19)]
    jack._strip_table.cache_clear()
    results: list = [None] * 8

    def work(slot: int) -> None:
        table = JackTable([x], alpha)
        results[slot] = [_layer_lists(table, k) for k in range(19)]

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


def test_batched_table_matches_single_tables() -> None:
    # Every node of a batch reads the same bits as its own table, whatever
    # its neighbours, and keeps them after the batch drops other nodes.
    points = [
        (1.0, 0.7, 0.7, 0.2), (0.3, 0.3, 0.9, 0.9), (-1.0, -0.6, -0.6, -0.3),
        (0.8, 0.0, 0.3, 0.3), (-0.5, 0.4, 0.4, 0.1),
    ]
    alpha = 1.25
    want = [[_layer_lists(JackTable([x], alpha), k) for k in range(15)] for x in points]
    table = JackTable(points, alpha)
    for k in range(8):
        for node in range(len(points)):
            assert _layer_lists(table, k, node) == want[node][k]
    table.keep(np.array([4, 1, 2]))
    for k in range(15):
        for node, point in enumerate((4, 1, 2)):
            assert _layer_lists(table, k, node) == want[point][k]


# --- two-value arguments: cached polynomials in the node ratio ---


def pair_layer(
    u: float, r: float, p: int, q: int, alpha: float, k: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """``C_kappa(u 1^p, u r 1^q)`` over ``partitions_of_weight(k, p + q)``,
    as :meth:`JackTable.layer` gives one node: ``u**k C_kappa/P_kappa``
    times one Horner pass in ``r`` over the cached coefficients of
    ``P_kappa(1^p, r^q)``."""
    pairs = jack._pair_coefficients(float(alpha), p, q)
    coefficients = pairs.layer(k)
    values = coefficients[k].copy()
    for d in range(k - 1, -1, -1):
        values *= r
        values += coefficients[d]
    log_factors = pairs.strips.layer(k).log_norm + k * math.log(abs(u))
    return values, log_factors, -1 if u < 0.0 and k % 2 else 1


def _pair_lists(
    u: float, r: float, p: int, q: int, alpha: float, k: int
) -> tuple[list, list, int]:
    values, log_factors, sign = pair_layer(u, r, p, q, alpha, k)
    return values.tolist(), log_factors.tolist(), sign


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_pair_table_matches_oracle(alpha: float) -> None:
    # The monomial expansion at every alpha: the Schur bialternant loses
    # digits where r = 0.97 brings the two values close.
    for p, q in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)]:
        for r in (0.03, 0.5, 0.97):
            for u in (1.3, -1.3):
                x = (u,) * p + (u * r,) * q
                for k in range(13):
                    values, log_factors, sign = pair_layer(u, r, p, q, alpha, k)
                    kappas = partitions_of_weight(k, p + q)
                    assert len(values) == len(kappas)
                    for kappa, value, log_factor in zip(kappas, values, log_factors):
                        want_sign, want_log = jack_C_monomial_signlog(kappa, x, alpha)
                        got = sign * value * math.exp(log_factor)
                        if want_sign == 0:
                            assert got == 0.0, (kappa, x)
                            continue
                        want = want_sign * math.exp(want_log)
                        assert abs(got - want) <= 1e-13 * abs(want), (kappa, x, got, want)


def test_pair_table_matches_jack_table() -> None:
    # The same argument through both evaluators, to rounding.
    alpha = 1.25
    for u, v, p, q in [(0.9, 0.2, 1, 2), (-2.0, -1.5, 2, 2), (1.0, 0.6, 3, 1)]:
        table = JackTable([(u,) * p + (v,) * q], alpha)
        for k in range(25):
            got, got_logs, got_sign = pair_layer(u, v / u, p, q, alpha, k)
            want, want_logs, want_sign = _node_layer(table, k)
            assert got_sign == want_sign
            assert got_logs.tolist() == want_logs.tolist()
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def _pair_sums(u: list, r: list, keep: list | None = None, depth: int = 15) -> list:
    """Each member's contracted layer sums of the series ``()F(4.0)`` at
    ``alpha = 0.75`` on the arguments ``u 1^2, u r 1^3``, layer by layer;
    after layer 7 the group keeps only the members ``keep``."""
    contraction = hypergeom._contraction((), (4.0,), 0.75, 2, 3)
    source = hypergeom._PairSums(contraction, u, np.array(r))
    layers = []
    for k in range(depth):
        if k == 8 and keep is not None:
            source.keep(keep)
        layers.append(source.layer(k))
    return layers


def test_pair_table_nodes_keep_their_bits() -> None:
    # A node's contracted layer sums are the same bits alone, in any batch,
    # and after the batch drops other nodes.
    u, r = [1.0, -0.7, 0.4, 2.5], [0.35, 0.2 / 0.7, 0.39 / 0.4, 0.01 / 2.5]
    want = [_pair_sums([a], [b]) for a, b in zip(u, r)]
    got = _pair_sums(u, r, keep=[3, 0])
    for k, layer in enumerate(got):
        nodes = range(len(u)) if k < 8 else (3, 0)
        assert layer == [want[node][k][0] for node in nodes]


def _first_budget_failure(layer) -> tuple[int, str]:
    for k in range(80):
        try:
            layer(k)
        except ResourceLimitError as exc:
            return k, str(exc)
    raise AssertionError("the strip budget never bound")


def test_pair_table_meets_the_strip_budget(monkeypatch: pytest.MonkeyPatch) -> None:
    # The coefficients run the strip recursion, so the strip budget binds
    # them at the weight where it binds JackTable.
    monkeypatch.setattr(jack, "MAX_STRIP_PAIRS", 500)
    alpha = 0.8125
    jack._strip_table.cache_clear()
    want = _first_budget_failure(JackTable([(1.0, 0.5, 0.5)], alpha).layer)
    jack._strip_table.cache_clear()
    jack._pair_coefficients.cache_clear()
    assert _first_budget_failure(lambda k: pair_layer(1.0, 0.5, 1, 2, alpha, k)) == want
    jack._strip_table.cache_clear()
    jack._pair_coefficients.cache_clear()


def test_shared_pair_coefficients_under_threads() -> None:
    # Threads extending one shared coefficient entry must not interleave layers.
    alpha = 1.375
    jack._pair_coefficients.cache_clear()
    want = [_pair_lists(1.0, 0.55, 2, 2, alpha, k) for k in range(19)]
    jack._pair_coefficients.cache_clear()
    results: list = [None] * 8
    start = threading.Barrier(8)

    def work(slot: int) -> None:
        start.wait()
        results[slot] = [_pair_lists(1.0, 0.55, 2, 2, alpha, k) for k in range(19)]

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
