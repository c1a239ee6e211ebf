"""Tests of the benchmark itself: run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import ast
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import reference
import tracing
import workloads
from betagap import (
    asymptotic_E0,
    exact_E0_finiteN,
    exact_E0_hard,
    exact_En_finiteN,
    exact_En_hard,
)
from betagap.hypergeom import ArgBlocks, HypergeomSpec, pFq_alpha

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
END_TO_END = {"evals_per_s", "setup_s", "min_digits", "peak_rss_mb"}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_mode_runs_and_checks_out(workload: str, trace: str) -> None:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    names = set(tracing.PER_LAYER) if trace == "1" else END_TO_END
    assert set(result["metrics"]) == names
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if trace == "0":
        assert all(result["metrics"][name]["value"] > 0 for name in END_TO_END)


def test_refuses_to_run_without_the_package(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "e0_series", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_same_seed_same_inputs_and_kept_failure_fixed() -> None:
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 5) == workloads.build(workload, 5)
    kept = [op for w in workloads.WORKLOADS for s in (1, 2) for op in workloads.build(w, s)
            if op.expect_error]
    assert {op.call for op in kept} == {("exact_En_hard_detailed", (0.5, 0.0, 1.0, 2))}


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


@pytest.mark.parametrize("s, a", [(4.0, 1), (20.0, 3)])
def test_bessel_determinant_matches_series(s: float, a: int) -> None:
    assert _rel(reference.E0_hard_beta2(s, a), exact_E0_hard(s, float(a), 2.0)) < 1e-12


@pytest.mark.parametrize("s, beta", [(4.0, 1.0), (20.0, 3.0)])
def test_one_variable_hyp0f1_matches_series(s: float, beta: float) -> None:
    assert _rel(reference.E0_hard_one_var(s, beta), exact_E0_hard(s, 2.0 / beta, beta)) < 1e-12


@pytest.mark.parametrize("s, beta", [(0.5, 1.0), (3.0, 4.0)])
def test_a0_exponential_matches_series(s: float, beta: float) -> None:
    assert _rel(reference.E0_hard_a0(s, beta), exact_E0_hard(s, 0.0, beta)) < 1e-14


@pytest.mark.parametrize("s, a, N", [(0.5, 2, 10), (0.1, 1, 30)])
def test_laguerre_determinant_matches_finite_series(s: float, a: int, N: int) -> None:
    assert _rel(reference.E0_finiteN_beta2(s, a, N), exact_E0_finiteN(s, float(a), 2.0, N)) < 1e-12


@pytest.mark.parametrize("s, a", [(4.0, 0.0), (1.0, 1.0)])
def test_bessel_fredholm_matches_quadrature(s: float, a: float) -> None:
    assert _rel(reference.En_hard_beta2(s, a, 1), exact_En_hard(s, a, 2.0, 1)) < 1e-12


@pytest.mark.parametrize("a", [0.0, 1.0])
def test_laguerre_fredholm_matches_finite_quadrature(a: float) -> None:
    want = exact_En_finiteN(0.5, a, 2.0, 1, 5)
    assert _rel(reference.En_finiteN_beta2(0.5, a, 1, 6), want) < 1e-12
    # E(0) of the same kernel against the Laguerre determinant
    if a:
        assert _rel(reference.En_finiteN_beta2(0.5, a, 0, 5),
                    reference.E0_finiteN_beta2(0.5, int(a), 5)) < 1e-12


@pytest.mark.parametrize("c, xs", [(3.0, (0.3, 1.2)), (4.5, (0.5, 2.0, 3.5))])
def test_alpha1_determinant_matches_series(c: float, xs: tuple[float, ...]) -> None:
    spec = HypergeomSpec(upper=(), lower=(c,), alpha=1.0, args=ArgBlocks.from_values(xs))
    assert _rel(reference.F01_alpha1(c, xs), pFq_alpha(spec).value) < 1e-14


@pytest.mark.parametrize("a, beta", [(1.0, 2.0), (1.5, 4.0)])
def test_f1a_coefficient_matches(a: float, beta: float) -> None:
    want = asymptotic_E0(a, beta, "F1A").c_log
    assert abs(reference.asymptotic_E0_F1A_c_log(a, beta) - want) < 1e-14


@pytest.mark.parametrize("module", ["calibrate", "reference", "verify", "workloads"])
def test_checking_code_imports_nothing_from_betagap(module: str) -> None:
    tree = ast.parse((BENCH / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(name.split(".")[0] == "betagap" for name in names)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, {module}; print('betagap' in sys.modules)"],
        cwd=BENCH, capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout.strip() == "False", proc.stderr


def test_jack_path_classification() -> None:
    assert tracing._jack_path(((2, 1), (0.5, 0.5, 0.0), 0.5)) == "jack.identity"
    assert tracing._jack_path(((2, 1), (0.5, 0.7), 1.0)) == "jack.schur"
    assert tracing._jack_path(((2, 1), (0.5, 0.7), 0.5)) == "jack.monomial"


def test_sampler_takes_its_own_time_out_and_rescales() -> None:
    sampler = calibrate.Sampler().start()
    try:
        mark = sampler.mark()
        while calibrate.clock() - mark[0] < 0.3:
            calibrate.kernel()
        raw, scaled = sampler.measure(mark)
    finally:
        sampler.stop()
    assert len(sampler.took) >= calibrate.WINDOW
    spent = sampler.spent
    assert 0.3 - spent - 0.01 < raw < 0.3 - spent + 0.05
    assert scaled == pytest.approx(raw * sampler.scale(mark[0], mark[0] + raw + spent))
    # the scale of a span too short to hold a sample comes from its nearest samples
    assert sampler.scale(mark[0], mark[0]) > 0
