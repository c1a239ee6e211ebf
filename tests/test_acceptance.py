"""Acceptance gate: one test and one printed verdict line per criterion.

Each test records ``ACCEPT <id> <name> PASS|FAIL <detail>`` before
asserting.  The lines print immediately (visible under ``pytest -s``)
and the conftest terminal-summary hook replays the collected table
after the run, so the verdicts are visible under default capture too.
Criteria with a stated runtime budget measure and assert it.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np
from scipy.integrate import quad

from betagap.barnes import log_morris_value
from betagap.cli import _identity_suite, main
from betagap.contour import hard_contour_E0, torus_E0_finiteN, torus_E0_hard
from betagap.gap import (
    asymptotic_En,
    duality_check,
    exact_E0_finiteN,
    exact_E0_finiteN_detailed,
    exact_E0_hard,
    exact_En_hard,
    exact_En_hard_detailed,
    log_large_deviation_E0,
    log_multi_F01_asympt,
)
from betagap.hypergeom import ArgBlocks, HypergeomSpec, pFq_alpha
from betagap.jack import jack_C_eval_signlog
from betagap.mc import EnsembleSpec, estimate_gap
from betagap.partitions import partitions_of_weight
from oracles import jack_C_at_identity_log, jack_C_oracle_signlog


#: Verdict lines collected for the terminal-summary replay in conftest.
VERDICTS: list[str] = []


def _report(tag: str, ok: bool, detail: str) -> None:
    """Record and print one verdict line, then assert."""
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPT {tag:<28s} {verdict}  {detail}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"{tag}: {detail}"


def _bessel_i0(x: float) -> float:
    """Modified Bessel I0 by its plain scalar series (independent oracle)."""
    term = 1.0
    total = 1.0
    k = 0
    while term > 1e-20 * total:
        k += 1
        term *= (x / 2.0) ** 2 / (k * k)
        total += term
    return total


def test_ac01_bessel_closed_form() -> None:
    start = time.perf_counter()
    worst = 0.0
    for s in (1.0, 4.0, 16.0, 25.0):
        exact = exact_E0_hard(s, 1.0, 2.0)
        oracle = math.exp(-s / 4.0) * _bessel_i0(math.sqrt(s))
        worst = max(worst, abs(exact - oracle) / oracle)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _report("01 bessel-closed-form", ok, f"max_rel={worst:.2e} time={elapsed:.2f}s")


def test_ac02_zero_weight_exactness() -> None:
    worst = 0.0
    for beta in (1.0, 2.0, 4.0, 2.5):
        for s in (1.0, 10.0):
            value = exact_E0_hard(s, 0.0, beta)
            worst = max(worst, abs(value / math.exp(-beta * s / 8.0) - 1.0))
    _report("02 zero-weight-exact", worst < 5e-15, f"max_rel={worst:.2e}")


def test_ac03_route_triangle() -> None:
    start = time.perf_counter()
    d1 = abs(
        exact_E0_finiteN(0.5, 2.0 / 3.0, 3.0, 4)
        / torus_E0_finiteN(0.5, 2.0 / 3.0, 3.0, 4)
        - 1.0
    )
    d2 = abs(exact_E0_hard(2.0, 2.0 / 3.0, 3.0) / hard_contour_E0(2.0, 2.0 / 3.0, 3.0) - 1.0)
    d3 = abs(torus_E0_hard(2.0, 2.0, 1.0) / exact_E0_hard(2.0, 2.0, 1.0) - 1.0)
    elapsed = time.perf_counter() - start
    ok = d1 < 1e-8 and d2 < 1e-6 and d3 < 1e-6 and elapsed < 60.0
    _report(
        "03 route-triangle",
        ok,
        f"series/torus={d1:.2e} series/contour={d2:.2e} torus/series={d3:.2e} "
        f"time={elapsed:.2f}s",
    )


def test_ac04_morris_vs_quadrature() -> None:
    worst = 0.0
    for a, b, c in ((0.5, 1.25, 0.7), (1.0, 1.0, 1.0), (2.0, 0.5, 1.3)):
        log_closed = log_morris_value(1, a, b, c)
        numeric, _ = quad(
            lambda x, a=a, b=b: (2.0 * math.cos(math.pi * x)) ** (a + b)
            * math.cos(math.pi * x * (a - b)),
            -0.5,
            0.5,
        )
        worst = max(worst, abs(math.expm1(log_closed - math.log(numeric))))
    _report("04 morris-closed-form", worst < 1e-10, f"max_rel={worst:.2e}")


def test_ac05_double_gamma_suite() -> None:
    names = {
        "feq-shift-1",
        "feq-shift-tau",
        "mm-inversion",
        "mm1-rewrite",
        "a1-product",
        "a2-product",
        "At-constant",
    }
    rows = [row for row in _identity_suite() if row[0] in names]
    assert {row[0] for row in rows} == names
    worst = max(residual for _, residual, _ in rows)
    at_residual = next(residual for name, residual, _ in rows if name == "At-constant")
    ok = all(residual < tol for _, residual, tol in rows) and at_residual < 1e-12
    _report(
        "05 double-gamma-suite",
        ok,
        f"max_resid={worst:.2e} At_resid={at_residual:.2e}",
    )


def test_ac06_duality_map() -> None:
    worst_coeff = 0.0
    worst_const = 0.0
    for beta, n, a in ((2.0, 1.0, 2.0), (4.0, 0.0, 2.0), (1.0, 1.0, 4.0)):
        result = duality_check(beta, n, a)
        worst_coeff = max(worst_coeff, result["max_coeff_diff"])
        worst_const = max(worst_const, abs(result["lhs"][3] - result["rhs"][3]))
    ok = worst_coeff < 1e-10 and worst_const < 1e-10
    _report(
        "06 duality-map",
        ok,
        f"max_coeff_diff={worst_coeff:.2e} max_const_diff={worst_const:.2e}",
    )


def _jack_C(kappa: tuple[int, ...], x: tuple[float, ...], alpha: float) -> float:
    sign, log_abs = jack_C_eval_signlog(kappa, x, alpha)
    return sign * math.exp(log_abs)


def test_ac07_jack_normalization() -> None:
    # Mixed-sign entries up to the |x| <= 4 bound, chosen with sums well
    # away from zero so float cancellation stays below the tolerance.
    vectors = ((1.0, -2.0, 3.5, 0.25), (4.0, -1.5, 2.0), (-3.0, 1.0, -0.5))
    worst_sum = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for xs in vectors:
            base = sum(xs)
            for k in range(1, 9):
                total = sum(
                    _jack_C(kappa, xs, alpha)
                    for kappa in partitions_of_weight(k)
                )
                worst_sum = max(worst_sum, abs(total / base**k - 1.0))
    # The table and the closed form at ones against the monomial expansion.
    worst_identity = 0.0
    for alpha in (0.5, 2.0):
        for m in (3, 5):
            ones = (1.0,) * m
            for k in range(1, 7):
                for kappa in partitions_of_weight(k):
                    sign, log_ref = jack_C_oracle_signlog(kappa, ones, alpha)
                    reference = sign * math.exp(log_ref)
                    for direct in (
                        _jack_C(kappa, ones, alpha),
                        math.exp(jack_C_at_identity_log(kappa, alpha, m)),
                    ):
                        scale = max(abs(reference), abs(direct), 1e-300)
                        worst_identity = max(worst_identity, abs(reference - direct) / scale)
    ok = worst_sum < 1e-10 and worst_identity < 1e-12
    _report(
        "07 jack-normalization",
        ok,
        f"sum_rule_rel={worst_sum:.2e} identity_rel={worst_identity:.2e}",
    )


def test_ac08_monte_carlo() -> None:
    start = time.perf_counter()
    sigmas = []

    est = estimate_gap(EnsembleSpec(beta=2.0, a=0.0, N=20), 1.6, samples=100_000, seed=11)
    sigmas.append(abs(est.probability - math.exp(-0.4)) / est.stderr)

    est = estimate_gap(EnsembleSpec(beta=2.0, a=1.0, N=200), 1.0, samples=100_000, seed=8)
    sigmas.append(abs(est.probability - exact_E0_hard(1.0, 1.0, 2.0)) / est.stderr)

    est = estimate_gap(
        EnsembleSpec(beta=2.0, a=0.0, N=200), 4.0, n=1, samples=100_000, seed=9
    )
    sigmas.append(abs(est.probability - exact_En_hard(4.0, 0.0, 2.0, 1)) / est.stderr)
    stderr_scale_ok = 1e-3 < est.stderr < 2e-3

    elapsed = time.perf_counter() - start
    ok = max(sigmas) < 3.0 and stderr_scale_ok and elapsed < 600.0
    _report(
        "08 monte-carlo",
        ok,
        f"sigmas=({sigmas[0]:.2f},{sigmas[1]:.2f},{sigmas[2]:.2f}) "
        f"stderr={est.stderr:.4f} time={elapsed:.1f}s",
    )


def test_ac09_exponent_arbitration(capsys) -> None:
    grid = np.array([100.0, 100.0 * math.sqrt(2.0), 200.0, 200.0 * math.sqrt(2.0), 400.0])
    ys = np.array(
        [
            math.log(exact_E0_hard(s, 1.0, 2.0)) + s / 4.0 - math.sqrt(s)
            for s in grid
        ]
    )
    logs = np.log(grid)
    slope, _ = np.polyfit(logs, ys, 1)
    pinned = float(np.mean(ys + 0.25 * logs))
    target = -0.5 * math.log(2.0 * math.pi)
    slope_ok = abs(slope - (-0.25)) < 0.02
    const_ok = abs(pinned / target - 1.0) < 0.02

    code = main(["report", "--beta", "2", "--a", "1"])
    out = capsys.readouterr().out
    report_ok = code == 0 and "PU" in out and "MG" in out and "fitted" in out

    ok = slope_ok and const_ok and report_ok
    _report(
        "09 exponent-arbitration",
        ok,
        f"slope={slope:.4f} const={pinned:.4f} target={target:.4f} report_ok={report_ok}",
    )


def test_ac10_finite_size_limit() -> None:
    hard = exact_E0_hard(2.0, 1.0, 2.0)
    fin = exact_E0_finiteN(2.0 / 160.0, 1.0, 2.0, 40)
    rel = abs(fin / hard - 1.0)
    _report("10 finite-size-limit", rel < 0.01, f"rel_gap={rel:.2e} at N=40")


def test_ac11_large_deviation_trend() -> None:
    errs = []
    for N in (10, 20, 40):
        log_exact, _ = exact_E0_finiteN_detailed(0.3 * 4.0 * N, 1.0, 2.0, N)
        log_ld = log_large_deviation_E0(N, 0.3, 1.0, 2.0)
        errs.append(abs(log_ld - log_exact) / abs(log_exact))
    ok = errs[0] > errs[1] > errs[2]
    _report(
        "11 large-deviation-trend",
        ok,
        f"rel_log_errs=({errs[0]:.1e},{errs[1]:.1e},{errs[2]:.1e})",
    )


def test_ac12_mixed_argument_trend() -> None:
    start = time.perf_counter()
    y = 0.64
    ratios = []
    for s in (100.0, 200.0, 400.0):
        spec = HypergeomSpec(
            upper=(),
            lower=(3.0,),
            alpha=1.0,
            args=ArgBlocks(((s / 4.0, 1), (y * s / 4.0, 2))),
        )
        series = pFq_alpha(spec, tol=1e-12, max_weight=200)
        prediction = log_multi_F01_asympt(s, (y * s,), 1.0, 1, 2.0)
        ratios.append(math.exp(series.log_value - prediction))
    elapsed = time.perf_counter() - start
    gaps = [abs(r - 1.0) for r in ratios]
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.15 and elapsed < 300.0
    _report(
        "12 mixed-argument-trend",
        ok,
        f"ratios=({ratios[0]:.4f},{ratios[1]:.4f},{ratios[2]:.4f}) time={elapsed:.1f}s",
    )


def test_ac13_En_formula_trend() -> None:
    # The paper's E(n) formula (asymptotic_En, with its double-gamma
    # constant) against exact E(1): the residual d(s) = log E(1) - log of
    # the form must shrink in s, and its fitted limit c0, from d = c0 +
    # c1 s^(-1/2) + c2 / s through the three s, must vanish.
    start = time.perf_counter()
    scales = (160.0, 320.0, 640.0)
    basis = np.array([[1.0, s**-0.5, 1.0 / s] for s in scales])
    rows, ok = [], True
    for beta, a in ((1.0, 0.0), (1.0, 2.0), (2.0, 0.0), (2.0, 1.0)):
        form = asymptotic_En(1.0, a, beta)
        d = [exact_En_hard_detailed(s, a, beta, 1)[0] - form.log_evaluate(s) for s in scales]
        c0 = float(np.linalg.solve(basis, d)[0])
        ok = ok and abs(c0) < 1e-2 and abs(d[0]) > abs(d[1]) > abs(d[2])
        rows.append(f"b{beta:g}a{a:g}:d640={d[2]:.4f},c0={c0:.1e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 20.0
    _report("13 En-formula-trend", ok, f"{' '.join(rows)} time={elapsed:.1f}s")
