"""Tests for the command-line interface.

Each subcommand is exercised in-process through ``betagap.cli.main`` so the
suite stays fast; a single subprocess test covers the ``python -m betagap``
entry point.  Output rows are frozen to exact ``repr`` strings, which pins
both the numerics and the CSV/JSON serialization format.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from betagap.cli import CSV_HEADER, main
from betagap.gap import asymptotic_En, exact_E0_hard_detailed, exact_En_hard_detailed

EXPECTED_HEADER = "s,beta,a,n,N,method,value,log_value,stderr,trunc_weight,tail_bound,seed"

EXACT_HARD_ROW = (
    "4.0,2.0,1.0,0,,exact_E0_hard,0.8386125671260257,"
    "-0.17600645851704377,,12,1.91192223376708e-18,"
)

EXACT_EXCESS_ROW = (
    "4.0,2.0,1.0,1,,exact_En_hard,0.1613575220817058,"
    "-1.8241327419135258,,15,4.236321034882243e-17,"
)

EXACT_FINITEN_ROW = (
    "0.5,2.0,1.0,0,8,exact_E0_finiteN,0.18066842552801307,"
    "-1.711091830863083,,8,0.0,"
)

# Deep finite-N series: value 1.6e-76, so an absolute last-layer tail
# (1.6e-3 here) would say nothing about it; the relative tail does.
EXACT_FINITEN_DEEP_ROW = (
    "0.5,2.0,1.0,0,400,exact_E0_finiteN,1.590267001969877e-76,"
    "-174.53256513964607,,38,1.4237138032578146e-14,"
)

IDENTITY_NAMES = {
    "feq-shift-1",
    "feq-shift-tau",
    "mm-inversion",
    "mm1-rewrite",
    "a1-product",
    "a2-product",
    "At-constant",
    "duality-constants",
    "duality-exponents",
    "route-series-torus",
    "route-series-circle",
    "route-series-contour",
    "beta4-beta1-identity",
}


def run_cli(capsys: pytest.CaptureFixture[str], *argv: str) -> tuple[int, str]:
    """Run ``main`` in-process and return (exit code, captured stdout)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_csv_header_constant() -> None:
    assert CSV_HEADER == EXPECTED_HEADER


def test_exact_hard_edge_row(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(capsys, "exact", "--beta", "2", "--a", "1", "--s", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [EXPECTED_HEADER, EXACT_HARD_ROW]


def test_exact_excess_row(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(
        capsys, "exact", "--beta", "2", "--a", "1", "--n", "1", "--s", "4"
    )
    assert code == 0
    assert out.strip().splitlines()[1] == EXACT_EXCESS_ROW


def test_exact_finite_ensemble_row(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(
        capsys, "exact", "--beta", "2", "--a", "1", "--N", "8", "--s", "0.5"
    )
    assert code == 0
    assert out.strip().splitlines()[1] == EXACT_FINITEN_ROW


def test_exact_tail_bound_is_relative(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(
        capsys, "exact", "--beta", "2", "--a", "1", "--s", "0.5", "--N", "400"
    )
    assert code == 0
    assert out.strip().splitlines()[1] == EXACT_FINITEN_DEEP_ROW


def test_exact_finite_excess_row(capsys: pytest.CaptureFixture[str]) -> None:
    # The finite-size E(n) route reports its own log value and diagnostics.
    code, out = run_cli(
        capsys, "exact", "--beta", "2", "--a", "1", "--s", "0.5", "--n", "1",
        "--N", "5", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["method"] == "exact_En_finiteN"
    assert record["value"] == 0.6732268230326233
    assert record["log_value"] == -0.3956729733822598
    assert record["trunc_weight"] == 15
    # n = 1 is one series, which terminates exactly: no tail, no quadrature
    assert record["tail_bound"] == 0.0


def test_csv_row_parses_and_round_trips(capsys: pytest.CaptureFixture[str]) -> None:
    _, out = run_cli(capsys, "exact", "--beta", "2", "--a", "1", "--s", "4")
    reader = csv.DictReader(io.StringIO(out))
    (row,) = list(reader)
    assert row["method"] == "exact_E0_hard"
    assert float(row["value"]) == 0.8386125671260257
    assert float(row["log_value"]) == -0.17600645851704377
    assert int(row["trunc_weight"]) == 12
    # repr round-trip: the printed decimal string recovers the float exactly
    assert repr(float(row["value"])) == row["value"]
    assert row["N"] == "" and row["stderr"] == "" and row["seed"] == ""


def test_json_format_matches_csv(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(
        capsys, "exact", "--beta", "2", "--a", "1", "--s", "4",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record == {
        "s": 4.0,
        "beta": 2.0,
        "a": 1.0,
        "n": 0,
        "N": None,
        "method": "exact_E0_hard",
        "value": 0.8386125671260257,
        "log_value": -0.17600645851704377,
        "stderr": None,
        "trunc_weight": 12,
        "tail_bound": 1.91192223376708e-18,
        "seed": None,
    }


def test_asympt_variants(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(capsys, "asympt", "--beta", "2", "--a", "1", "--s", "100")
    assert code == 0
    assert out.strip().splitlines()[1] == (
        "100.0,2.0,1.0,0,,asymptotic[F1A],3.859160467097969e-08,"
        "-17.070231079701692,,,,"
    )
    values = {}
    for variant in ("F1A", "PU", "MG"):
        _, out = run_cli(
            capsys, "asympt", "--beta", "2", "--a", "1", "--s", "100",
            "--variant", variant,
        )
        reader = csv.DictReader(io.StringIO(out))
        (row,) = list(reader)
        assert row["method"] == f"asymptotic[{variant}]"
        values[variant] = float(row["log_value"])
    # variants share everything except the log(s) coefficient, so at s=100
    # they are ordered by that coefficient: -1/4 < -1/8 < 0
    assert values["F1A"] < values["MG"] < values["PU"]


def test_asympt_excess_row(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(capsys, "asympt", "--beta", "2", "--a", "1", "--s", "100", "--n", "1")
    assert code == 0
    (row,) = list(csv.DictReader(io.StringIO(out)))
    assert row["method"] == "asymptotic[C2D]"
    assert float(row["log_value"]) == asymptotic_En(1, 1.0, 2.0).log_evaluate(100.0)


def test_largedev_row(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(
        capsys, "largedev", "--beta", "2", "--a", "1", "--N", "20", "--s", "0.3"
    )
    assert code == 0
    assert out.strip().splitlines()[1] == (
        "0.3,2.0,1.0,0,20,large_deviation_E0,1.7724764081761565e-195,"
        "-448.43171546441806,,,,"
    )


def test_contour_row(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(capsys, "contour", "--beta", "2", "--a", "1", "--s", "2")
    assert code == 0
    assert out.strip().splitlines()[1] == (
        "2.0,2.0,1.0,0,,hard_contour_E0,0.9498773125498129,"
        "-0.051422447411850813,,,,"
    )


def test_mc_deterministic_row(capsys: pytest.CaptureFixture[str]) -> None:
    argv = (
        "mc", "--beta", "2", "--a", "0", "--N", "20", "--s", "1.6",
        "--samples", "2000", "--seed", "11",
    )
    code, first = run_cli(capsys, *argv)
    assert code == 0
    assert first.strip().splitlines()[1] == (
        "1.6,2.0,0.0,0,20,mc_estimate_gap,0.664,"
        "-0.40947312950570314,0.01056181802532121,,,11"
    )
    _, second = run_cli(capsys, *argv)
    assert second == first


def test_mc_thread_count_does_not_change_result(
    capsys: pytest.CaptureFixture[str],
) -> None:
    base = (
        "mc", "--beta", "2", "--a", "0", "--N", "20", "--s", "1.6",
        "--samples", "2000", "--seed", "11",
    )
    _, serial = run_cli(capsys, *base, "--threads", "1")
    _, parallel = run_cli(capsys, *base, "--threads", "4")
    assert serial == parallel


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_mc_threads_below_one_exits_2(
    capsys: pytest.CaptureFixture[str], threads: str
) -> None:
    code, out = run_cli(
        capsys, "mc", "--beta", "2", "--a", "0", "--N", "20", "--s", "1.6",
        "--samples", "2000", "--threads", threads,
    )
    assert code == 2
    record = json.loads(out)
    assert record["error"] == {
        "type": "ValueError",
        "message": f"threads must be at least 1, got {threads}",
    }


def test_json_output_is_strict(capsys: pytest.CaptureFixture[str]) -> None:
    # Every sample has an eigenvalue in the gap, so log(0) is -inf: JSON
    # carries it as null (CSV keeps "-inf").
    argv = (
        "mc", "--beta", "2", "--a", "1", "--N", "5", "--s", "2000",
        "--samples", "2000",
    )
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    record = json.loads(out, parse_constant=lambda token: pytest.fail(token))
    assert record["value"] == 0.0 and record["log_value"] is None
    _, out = run_cli(capsys, *argv)
    assert out.strip().splitlines()[1].split(",")[7] == "-inf"


def test_sweep_has_no_threads_flag() -> None:
    with pytest.raises(SystemExit) as excinfo:
        main([
            "sweep", "--beta", "2", "--a", "1", "--s-min", "1", "--s-max", "4",
            "--s-count", "3", "--threads", "2",
        ])
    assert excinfo.value.code == 2


def test_sweep_linear_grid(capsys: pytest.CaptureFixture[str]) -> None:
    argv = (
        "sweep", "--beta", "2", "--a", "1",
        "--s-min", "1", "--s-max", "4", "--s-count", "3",
    )
    code, out = run_cli(capsys, *argv)
    assert code == 0
    reader = csv.DictReader(io.StringIO(out))
    rows = list(reader)
    assert [float(row["s"]) for row in rows] == [1.0, 2.5, 4.0]
    assert rows[-1]["value"] == "0.8386125671260257"
    _, again = run_cli(capsys, *argv)
    assert again == out


def test_sweep_log_grid(capsys: pytest.CaptureFixture[str]) -> None:
    _, out = run_cli(
        capsys, "sweep", "--beta", "2", "--a", "1",
        "--s-min", "1", "--s-max", "4", "--s-count", "3", "--log-grid",
    )
    reader = csv.DictReader(io.StringIO(out))
    assert [float(row["s"]) for row in reader] == [1.0, 2.0, 4.0]


def test_sweep_json_lines(capsys: pytest.CaptureFixture[str]) -> None:
    _, out = run_cli(
        capsys, "sweep", "--beta", "2", "--a", "1",
        "--s-min", "1", "--s-max", "4", "--s-count", "3", "--format", "json",
    )
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 3
    assert records[2]["value"] == 0.8386125671260257
    assert all(record["method"] == "exact_E0_hard" for record in records)


def test_check_runs_all_identities(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(capsys, "check")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(IDENTITY_NAMES)
    assert all(line.startswith("PASS") for line in lines)
    assert {line.split()[1] for line in lines} == IDENTITY_NAMES


def test_check_json_lines(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(capsys, "check", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert {record["name"] for record in records} == IDENTITY_NAMES
    assert all(record["passed"] is True for record in records)
    # the beta = 4 series against the beta = 1 series plus n = 1 quadrature
    (identity,) = [record for record in records if record["name"] == "beta4-beta1-identity"]
    assert identity["tol"] == 1e-13


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("exact", "--beta", "2", "--a", "1", "--s", "-1", "--N", "5"), "--s"),
        (("exact", "--beta", "2", "--a", "1", "--s", "nan"), "--s"),
        (("exact", "--beta", "2", "--a", "1", "--s", "inf"), "--s"),
        (("mc", "--beta", "2", "--a", "1", "--N", "5", "--s", "nan"), "--s"),
        (("mc", "--beta", "2", "--a", "1", "--N", "5", "--s", "inf"), "--s"),
        (("contour", "--beta", "2", "--a", "1", "--s", "-1"), "--s"),
        (("contour", "--beta", "2", "--a", "1", "--s", "nan"), "--s"),
        (("sweep", "--beta", "2", "--a", "1", "--s-min", "-1", "--s-max", "2",
          "--s-count", "3"), "--s-min"),
        (("sweep", "--beta", "2", "--a", "1", "--s-min", "0", "--s-max", "inf",
          "--s-count", "3"), "--s-max"),
        (("asympt", "--beta", "2", "--a", "1", "--s", "0"), "--s"),
        (("largedev", "--beta", "2", "--a", "1", "--N", "10", "--s", "nan"), "--s"),
    ],
)
def test_bad_endpoint_exits_2(
    capsys: pytest.CaptureFixture[str], argv: tuple[str, ...], flag: str
) -> None:
    code, out = run_cli(capsys, *argv)
    assert code == 2
    record = json.loads(out)
    assert record["error"]["type"] == "ValueError"
    assert record["error"]["message"].startswith(f"{flag} must be finite")


@pytest.mark.parametrize(
    "argv, error_type, message",
    [
        (("exact", "--beta", "2", "--a", "inf", "--s", "1"),
         "ParameterQuantizationError", "beta*a/2 must be a nonnegative integer"),
        (("contour", "--beta", "2", "--a", "inf", "--s", "1"),
         "ParameterQuantizationError", "beta*a/2 must be a nonnegative integer"),
        (("exact", "--beta", "2", "--a", "nan", "--s", "1"),
         "ParameterQuantizationError", "beta*a/2 must be a nonnegative integer"),
        (("exact", "--beta", "inf", "--a", "0", "--s", "1", "--n", "1"),
         "ValueError", "beta must be finite and positive, got inf"),
        (("sweep", "--beta", "2", "--a", "1", "--s-min", "1", "--s-max", "2",
          "--s-count", "2", "--N", "-1"), "ValueError", "N must be nonnegative"),
        (("exact", "--beta", "2", "--a", "1", "--s", "1", "--N", "-2"),
         "ValueError", "N must be nonnegative"),
        (("exact", "--beta", "2", "--a", "1", "--s", "1", "--N", "-2", "--n", "1"),
         "ValueError", "N must be nonnegative"),
        (("largedev", "--beta", "2", "--a", "1", "--N", "-3", "--s", "0.3"),
         "ValueError", "N must be at least 1"),
        (("exact", "--beta", "2", "--a", "1", "--s", "1", "--tol", "nan"),
         "ValueError", "tol must be positive"),
        (("exact", "--beta", "2", "--a", "1", "--s", "1", "--max-weight", "-5"),
         "ValueError", "max-weight must be nonnegative"),
        (("sweep", "--beta", "2", "--a", "1", "--s-min", "0", "--s-max", "4",
          "--s-count", "3"), "ValueError", "grid bounds must be positive"),
        # numpy's "Geometric sequence cannot include zero" named no flag
        (("sweep", "--beta", "2", "--a", "1", "--s-min", "0", "--s-max", "4",
          "--s-count", "3", "--log-grid"), "ValueError",
         "grid bounds must be positive, got --s-min 0.0"),
        (("sweep", "--beta", "2", "--a", "1", "--s-min", "1",
          "--s-max", "1.0000000000000002", "--s-count", "5"),
         "ValueError", "grid must be strictly increasing"),
        (("sweep", "--beta", "2", "--a", "1", "--s-min", "0", "--s-max", "4",
          "--s-count", "3", "--tol", "0"), "ValueError", "tol must be positive"),
        (("sweep", "--beta", "2", "--a", "1", "--s-min", "1", "--s-max", "2",
          "--s-count", "0"), "ValueError", "s-count must be positive, got 0"),
        (("sweep", "--beta", "2", "--a", "1", "--s-min", "2", "--s-max", "1",
          "--s-count", "3"), "ValueError", "grid needs s-max > s-min, got [2.0, 1.0]"),
        (("mc", "--beta", "2", "--a", "nan", "--N", "5", "--s", "1",
          "--samples", "2000"), "ValueError", "a must be finite and nonnegative"),
        (("mc", "--beta", "2", "--a", "inf", "--N", "5", "--s", "1",
          "--samples", "2000"), "ValueError", "a must be finite and nonnegative"),
        (("mc", "--beta", "inf", "--a", "1", "--N", "5", "--s", "1",
          "--samples", "2000"), "ValueError", "beta must be finite and positive"),
        # asymptotic forms whose value would be 1.986, inf and 56.7: each
        # does not hold at this --s, so no row is printed
        (("asympt", "--beta", "2", "--a", "3", "--s", "1"), "ValueError",
         "--s 1.0 is outside the range of the asymptotic[F1A] form: its log value 0.686"),
        (("asympt", "--beta", "2", "--a", "1e5", "--s", "10"), "ValueError",
         "--s 10.0 is outside the range of the asymptotic[F1A] form"),
        # the variants are powers of s of E(0): at --n 1 the flag was
        # ignored and the asymptotic[C2D] row printed with exit 0
        (("asympt", "--beta", "2", "--a", "1", "--s", "100", "--n", "1", "--variant", "PU"),
         "ValueError", "--variant PU needs --n 0, got --n 1"),
        (("asympt", "--beta", "2", "--a", "1", "--s", "100", "--n", "2", "--variant", "MG"),
         "ValueError", "--variant MG needs --n 0, got --n 2"),
        (("largedev", "--beta", "2", "--a", "3", "--N", "1", "--s", "0.01"), "ValueError",
         "--s 0.01 is outside the range of the large_deviation_E0 form: its log value 4.03"),
        # the circle prefactor carries log(4/s): s = 0 used to end in a traceback
        (("contour", "--route", "torus", "--beta", "2", "--a", "1", "--s", "0"), "ValueError",
         "s must be finite and positive, got 0.0"),
        # a = 0 used to skip the beta and N checks and print exp(-beta s / 8)
        (("contour", "--beta", "-4", "--a", "0", "--s", "2"), "ValueError",
         "beta must be finite and positive, got -4.0"),
        (("contour", "--route", "torus", "--beta", "-4", "--a", "0", "--s", "2"),
         "ValueError", "beta must be finite and positive, got -4.0"),
        (("contour", "--beta", "-4", "--a", "0", "--s", "2", "--N", "3"), "ValueError",
         "beta must be finite and positive, got -4.0"),
        (("contour", "--beta", "0", "--a", "0", "--s", "2"), "ValueError",
         "beta must be finite and positive, got 0.0"),
        (("contour", "--beta", "2", "--a", "0", "--s", "2", "--N", "-3"), "ValueError",
         "N must be a positive integer, got -3"),
        (("exact", "--beta", "0", "--a", "1", "--s", "1"), "ValueError",
         "beta must be finite and positive, got 0.0"),
        (("largedev", "--beta", "-2", "--a", "1", "--N", "10", "--s", "0.3"), "ValueError",
         "beta must be finite and positive, got -2.0"),
        # the E(n >= 1) routes named alpha or beta's integrality, or divided
        # by zero in the finite-size normalization
        (("exact", "--beta", "0", "--a", "0", "--s", "1", "--n", "1", "--N", "4"),
         "ValueError", "beta must be finite and positive, got 0.0"),
        (("exact", "--beta", "0", "--a", "0", "--s", "1", "--n", "1"), "ValueError",
         "beta must be finite and positive, got 0.0"),
        (("exact", "--beta", "-2", "--a", "0", "--s", "1", "--n", "1"), "ValueError",
         "beta must be finite and positive, got -2.0"),
        # a negative a was reported as the double gamma's "n"
        (("largedev", "--beta", "2", "--a", "-1", "--N", "10", "--s", "0.3"), "ValueError",
         "a must be finite and nonnegative, got -1.0"),
    ],
    ids=[
        "exact-a-inf", "contour-a-inf", "exact-a-nan", "exact-beta-inf",
        "sweep-N-negative", "exact-N-negative", "exact-n1-N-negative",
        "largedev-N-negative", "exact-tol-nan", "exact-max-weight-negative",
        "sweep-grid-zero", "sweep-log-grid-zero", "sweep-grid-tied", "sweep-tol-before-grid",
        "sweep-count-zero", "sweep-grid-reversed",
        "mc-a-nan", "mc-a-inf", "mc-beta-inf",
        "asympt-above-1", "asympt-inf", "asympt-n1-variant", "asympt-n2-variant",
        "largedev-above-1", "contour-torus-s-zero",
        "contour-beta-negative", "torus-beta-negative", "torus-finiteN-beta-negative",
        "contour-beta-zero", "torus-finiteN-N-negative", "exact-beta-zero",
        "largedev-beta-negative", "exact-n1-finiteN-beta-zero", "exact-n1-beta-zero",
        "exact-n1-beta-negative", "largedev-a-negative",
    ],
)
def test_bad_parameter_exits_2(
    capsys: pytest.CaptureFixture[str],
    argv: tuple[str, ...],
    error_type: str,
    message: str,
) -> None:
    code, out = run_cli(capsys, *argv)
    assert code == 2
    record = json.loads(out)
    assert record["error"]["type"] == error_type
    assert record["error"]["message"].startswith(message)


def test_exact_at_zero_endpoint(capsys: pytest.CaptureFixture[str]) -> None:
    # exact runs as a one-point sweep, but s = 0 stays valid there.
    code, out = run_cli(
        capsys, "exact", "--beta", "2", "--a", "1", "--s", "0", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert (record["value"], record["log_value"]) == (1.0, 0.0)
    assert (record["trunc_weight"], record["tail_bound"]) == (0, 0.0)


@pytest.mark.parametrize(
    "size, method",
    [((), "exact_En_hard"), (("--N", "4"), "exact_En_finiteN")],
)
def test_exact_excess_at_zero_endpoint(
    capsys: pytest.CaptureFixture[str], size: tuple[str, ...], method: str
) -> None:
    # E(n >= 1) at s = 0 is 0 exactly: log value -inf, written as null in JSON.
    argv = ("exact", "--beta", "2", "--a", "1", "--s", "0", "--n", "1", *size)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    N = size[1] if size else ""
    assert out.strip().splitlines() == [
        EXPECTED_HEADER, f"0.0,2.0,1.0,1,{N},{method},0.0,-inf,,0,0.0,"
    ]
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert (record["value"], record["log_value"]) == (0.0, None)


def test_report_arbitration_content(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(capsys, "report", "--beta", "2", "--a", "1")
    assert code == 0
    assert "exponent arbitration at beta=2.0, a=1.0" in out
    assert "F1A: -0.25" in out
    assert "MG: -0.125" in out
    assert "fitted: -0.25487791108742613\n" in out
    assert "fitted (slope pinned to F1A): -0.9094460642189641\n" in out
    assert "informational only" in out


def test_report_json_matches_text(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(capsys, "report", "--beta", "2", "--a", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["beta"], payload["a"]) == (2.0, 1.0)
    assert list(payload["log_s_coefficient"]) == ["PU", "MG", "F1A"]
    assert list(payload["constant"]) == ["PU", "MG", "F1A"]
    _, text = run_cli(capsys, "report", "--beta", "2", "--a", "1")
    fitted = [line.split(": ")[1] for line in text.splitlines() if "fitted" in line]
    assert fitted == [
        repr(payload[key])
        for key in (
            "fitted_log_s_coefficient", "fitted_constant", "fitted_constant_pinned_slope"
        )
    ]


def test_quantization_error_exits_2(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(capsys, "contour", "--beta", "2", "--a", "0.7", "--s", "1")
    assert code == 2
    record = json.loads(out)
    assert record["error"]["type"] == "ParameterQuantizationError"
    assert "beta*a/2" in record["error"]["message"]


def test_bad_sample_count_exits_2(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(
        capsys, "mc", "--beta", "2", "--a", "1", "--N", "5", "--s", "1",
        "--samples", "10", "--seed", "1",
    )
    assert code == 2
    record = json.loads(out)
    assert record["error"]["type"] == "ValueError"
    assert "at least 1000" in record["error"]["message"]


def test_resource_limit_exits_3(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(capsys, "contour", "--beta", "2", "--a", "30", "--s", "1")
    assert code == 3
    record = json.loads(out)
    assert record["error"]["type"] == "ResourceLimitError"


def test_contour_above_one_exits_3(capsys: pytest.CaptureFixture[str]) -> None:
    # The contour value at beta = 3, a = 4/3 was 1.00336: no probability.
    # 4/beta is not an integer there, so the dimension-2 cap rejects it.
    code, out = run_cli(
        capsys, "contour", "--beta", "3", "--a", "1.3333333333333333", "--s", "1"
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParameterQuantizationError"


def test_contour_dimension_two_off_integer_exits_2(capsys: pytest.CaptureFixture[str]) -> None:
    # It printed a value 5.7e-2 off with exit 0.
    code, out = run_cli(
        capsys, "contour", "--beta", "4.659", "--a", str(4.0 / 4.659), "--s", "0.147"
    )
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ParameterQuantizationError"
    assert error["message"].startswith("4/beta must be a positive integer")


@pytest.mark.parametrize(
    "route",
    [("--s", "3100"), ("--route", "torus", "--s", "10000"), ("--s", "20", "--N", "100")],
    ids=["contour", "torus", "finite-size"],
)
def test_contour_underflow_exits_3(
    capsys: pytest.CaptureFixture[str], route: tuple[str, ...]
) -> None:
    # Each printed "value": 0.0 and "log_value": null with exit 0.
    code, out = run_cli(
        capsys, "contour", "--beta", "2", "--a", "1", *route, "--format", "json"
    )
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "QuadratureError"
    assert "underflows: its log value" in error["message"]


@pytest.mark.parametrize("s", ["2970", "3000"])
@pytest.mark.parametrize("route", [(), ("--route", "torus")], ids=["contour", "torus"])
def test_contour_subnormal_prefactor_row(
    capsys: pytest.CaptureFixture[str], route: tuple[str, ...], s: str
) -> None:
    # The prefactor alone is subnormal or zero here: the rows printed a
    # value 10% off (s = 2970) or 0.0 with a null log value (s = 3000).
    code, out = run_cli(
        capsys, "contour", "--beta", "2", "--a", "1", "--s", s, *route, "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    series = exact_E0_hard_detailed(float(s), 1.0, 2.0)[0]
    assert record["log_value"] == pytest.approx(series, rel=1e-15)
    assert record["value"] == pytest.approx(math.exp(series), rel=1e-12)


def test_finite_size_torus_overflow_exits_3_without_warnings() -> None:
    # numpy printed three RuntimeWarnings to stderr, then the doubling
    # failed with NonConvergenceError.
    result = subprocess.run(
        [sys.executable, "-m", "betagap", "contour", "--beta", "2", "--a", "1",
         "--s", "2000", "--N", "3", "--format", "json"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 3
    assert result.stderr == ""
    error = json.loads(result.stdout)["error"]
    assert error["type"] == "QuadratureError"
    assert "s = 2000.0, N = 3" in error["message"]


def test_finite_excess_overflow_exits_3(capsys: pytest.CaptureFixture[str]) -> None:
    # An OverflowError in the quadrature's integrand printed a traceback
    # and exited 1.
    code, out = run_cli(
        capsys, "exact", "--beta", "2", "--a", "0", "--s", "800", "--n", "2", "--N", "1"
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "QuadratureError"


def test_odd_beta_excess_exits_0(capsys: pytest.CaptureFixture[str]) -> None:
    # The folded tensor rule did not settle on the |y_1 - y_2|**beta kink
    # at beta = 1 (QuadratureError, exit 3); the nested map does.
    code, out = run_cli(
        capsys, "exact", "--beta", "1", "--a", "2", "--s", "4", "--n", "2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["method"] == "exact_En_hard"
    assert record["log_value"] == exact_En_hard_detailed(4.0, 2.0, 1.0, 2)[0]


def test_torus_cancellation_exits_3(capsys: pytest.CaptureFixture[str]) -> None:
    # The finite-size torus terms cancel by 8.4e16: this exited 3 with
    # NonConvergenceError ("did not settle within 6 resolution levels").
    code, out = run_cli(
        capsys, "contour", "--beta", "2", "--a", "1", "--s", "50", "--N", "3",
        "--format", "json",
    )
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "CancellationError"
    assert "exceeds its value by 8.4e+16" in error["message"]


def test_nonconvergence_exits_3(capsys: pytest.CaptureFixture[str]) -> None:
    code, out = run_cli(
        capsys, "exact", "--beta", "2", "--a", "1", "--s", "4",
        "--max-weight", "3",
    )
    assert code == 3
    record = json.loads(out)
    assert record["error"]["type"] == "NonConvergenceError"


def test_terminated_series_exits_0_at_max_weight_0(capsys: pytest.CaptureFixture[str]) -> None:
    # At a = 0 the hard-edge series has no variable: its weight-0 term is
    # all of it, so E(0) is exp(-s / 4) at beta = 2.  Its empty first layer
    # ends the series before the weight ceiling is read; only a capped
    # series was checked for its end first, so this exited 3.
    code, out = run_cli(
        capsys, "exact", "--beta", "2", "--a", "0", "--s", "1", "--max-weight", "0",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert (record["value"], record["log_value"]) == (0.7788007830714049, -0.25)
    assert (record["trunc_weight"], record["tail_bound"]) == (0, 0.0)


def test_contour_tol_reaches_default_route(capsys: pytest.CaptureFixture[str]) -> None:
    # The branch-cut contour cannot settle to 1e-18, below double rounding;
    # it used to ignore --tol.
    code, out = run_cli(
        capsys, "contour", "--beta", "2", "--a", "1", "--s", "2", "--tol", "1e-18"
    )
    assert code == 3
    record = json.loads(out)
    assert record["error"]["type"] == "NonConvergenceError"
    assert "contour integral did not settle" in record["error"]["message"]


def test_unknown_subcommand_raises_usage_exit() -> None:
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus"])
    assert excinfo.value.code == 2


def test_module_entry_point() -> None:
    result = subprocess.run(
        [sys.executable, "-m", "betagap", "exact", "--beta", "2", "--a", "1",
         "--s", "4"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout.strip().splitlines() == [EXPECTED_HEADER, EXACT_HARD_ROW]


# Double-gamma routes at non-finite or huge parameters, each in a child
# process with a timeout: an infinite --a used to walk log_gamma2's
# argument down one unit per step without end.
DOUBLE_GAMMA_BOUNDARY = [
    (("asympt", "--beta", "2", "--a", "inf", "--s", "10"),
     2, "ValueError", "--a must be finite, got inf"),
    (("asympt", "--beta", "2", "--a", "nan", "--s", "10"),
     2, "ValueError", "--a must be finite, got nan"),
    (("asympt", "--beta", "inf", "--a", "1", "--s", "10"),
     2, "ValueError", "--beta must be finite, got inf"),
    (("largedev", "--beta", "2", "--a", "nan", "--N", "5", "--s", "0.3"),
     2, "ValueError", "--a must be finite, got nan"),
    (("report", "--beta", "nan", "--a", "1"),
     2, "ValueError", "--beta must be finite, got nan"),
    (("asympt", "--beta", "2", "--a", "1e9", "--s", "10"),
     3, "ResourceLimitError", "log_gamma2 at z=1000000001.0 needs more than"),
]


@pytest.mark.parametrize(
    "argv, exit_code, error_type, message",
    DOUBLE_GAMMA_BOUNDARY,
    ids=["asympt-a-inf", "asympt-a-nan", "asympt-beta-inf", "largedev-a-nan",
         "report-beta-nan", "asympt-a-huge"],
)
def test_double_gamma_boundary_exits(
    argv: tuple[str, ...], exit_code: int, error_type: str, message: str
) -> None:
    result = subprocess.run(
        [sys.executable, "-m", "betagap", *argv],
        capture_output=True,
        text=True,
        check=False,
        timeout=60,
    )
    assert result.returncode == exit_code
    record = json.loads(result.stdout)
    assert record["error"]["type"] == error_type
    assert record["error"]["message"].startswith(message)
