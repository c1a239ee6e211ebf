"""Command-line front-end for gap-probability evaluations.

Subcommands cover single exact evaluations (``exact``), asymptotic
forms (``asympt``), the finite-size large-deviation formula
(``largedev``), quadrature routes (``contour``), Monte Carlo estimates
(``mc``), an asserting identity/consistency suite (``check``), s-grid
sweeps (``sweep``), and a non-asserting side-by-side comparison of the
competing asymptotic exponents (``report``).

Records are emitted as CSV (stable schema) or JSON lines, with values
in both linear and log space.  Identical invocations produce
bit-identical output; Monte Carlo commands are deterministic given
``--seed``, whatever ``--threads``.  JSON output is strict, with
non-finite floats written as null.  Exit codes: 0 success, 2 parameter
errors (quantization/validation), 3 numerical failures — the latter
two accompanied by a machine-readable error record on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import IO

import numpy as np

from .barnes import (
    a_const,
    duality_constants,
    log_f_beta_half,
    log_gamma2,
    tau_hard,
)
from .contour import hard_contour_E0, torus_E0_finiteN, torus_E0_hard
from .errors import BetagapError, ParameterQuantizationError
from .gap import (
    asymptotic_E0,
    asymptotic_En,
    duality_check,
    exact_E0_finiteN,
    exact_E0_hard,
    exact_E0_hard_detailed,
    exact_En_finiteN_detailed,
    exact_En_hard_detailed,
    log_large_deviation_E0,
)
from .mc import EnsembleSpec, estimate_gap

__all__ = ["RunConfig", "Record", "build_parser", "run", "main"]

CSV_HEADER = "s,beta,a,n,N,method,value,log_value,stderr,trunc_weight,tail_bound,seed"

#: Default abscissas for exponent fitting: geometric grid on [100, 400].
_REPORT_GRID = tuple(100.0 * 2.0 ** (k / 2.0) for k in range(5))


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: one subcommand plus its parameters."""

    command: str
    beta: float = 2.0
    a: float = 0.0
    n: int = 0
    s: float | None = None
    s_grid: tuple[float, ...] | None = None
    N: int | None = None
    tol: float = 1e-12
    max_weight: int | None = None
    samples: int = 100_000
    seed: int = 0
    fmt: str = "csv"
    variant: str = "F1A"
    route: str = "contour"
    threads: int = 1

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_weight is not None and self.max_weight < 0:
            raise ValueError(f"max-weight must be nonnegative, got {self.max_weight}")
        if self.s_grid is not None:
            if any(g <= 0 for g in self.s_grid):
                raise ValueError("grid bounds must be positive")
            if any(b <= a for a, b in zip(self.s_grid, self.s_grid[1:])):
                raise ValueError("grid must be strictly increasing")


@dataclass(frozen=True)
class Record:
    """One output row; ``None`` fields are emitted empty (CSV) or null."""

    s: float | None = None
    beta: float | None = None
    a: float | None = None
    n: int | None = None
    N: int | None = None
    method: str = ""
    value: float | None = None
    log_value: float | None = None
    stderr: float | None = None
    trunc_weight: int | None = None
    tail_bound: float | None = None
    seed: int | None = None

    def csv_row(self) -> str:
        """Comma-joined row in header order, floats via repr."""
        cells = []
        for f in fields(self):
            item = getattr(self, f.name)
            if item is None:
                cells.append("")
            elif isinstance(item, float):
                cells.append(repr(float(item)))
            else:
                cells.append(str(item))
        return ",".join(cells)

    def json_obj(self) -> dict:
        """Field dict in header order, absent values as None."""
        out = {}
        for f in fields(self):
            item = getattr(self, f.name)
            if isinstance(item, float):
                item = float(item)
            elif isinstance(item, int):
                item = int(item)
            out[f.name] = item
        return out


def _strict(item):
    """``item`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(item, float) and not math.isfinite(item):
        return None
    if isinstance(item, dict):
        return {key: _strict(value) for key, value in item.items()}
    if isinstance(item, (list, tuple)):
        return [_strict(value) for value in item]
    return item


def _json_line(obj) -> str:
    """Strict JSON (no NaN or Infinity tokens); non-finite floats become null."""
    return json.dumps(_strict(obj), allow_nan=False)


def _emit(records: list[Record], config: RunConfig, sink: IO[str]) -> None:
    if config.fmt == "json":
        for record in records:
            print(_json_line(record.json_obj()), file=sink)
    else:
        print(CSV_HEADER, file=sink)
        for record in records:
            print(record.csv_row(), file=sink)


def _safe_exp(log_value: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _exact_record(
    s: float,
    a: float,
    beta: float,
    n: int,
    N: int | None,
    tol: float,
    max_weight: int | None,
) -> Record:
    """Evaluate one exact gap probability and package diagnostics."""
    if N is None:
        log_value, diag = exact_En_hard_detailed(
            s, a, beta, n, tol, max_weight=max_weight
        )
    else:
        log_value, diag = exact_En_finiteN_detailed(
            s, a, beta, n, N, tol, max_weight=max_weight
        )
    return Record(
        s=s, beta=beta, a=a, n=n, N=N,
        method=f"exact_E{'0' if n == 0 else 'n'}_{'hard' if N is None else 'finiteN'}",
        value=_safe_exp(log_value), log_value=log_value,
        trunc_weight=diag["trunc_weight"], tail_bound=diag["tail_bound"],
    )


def _run_exact(config: RunConfig, sink: IO[str]) -> int:
    record = _exact_record(
        config.s, config.a, config.beta, config.n, config.N,
        config.tol, config.max_weight,
    )
    _emit([record], config, sink)
    return 0


def _run_sweep(config: RunConfig, sink: IO[str]) -> int:
    records = [
        _exact_record(
            s, config.a, config.beta, config.n, config.N,
            config.tol, config.max_weight,
        )
        for s in config.s_grid
    ]
    _emit(records, config, sink)
    return 0


def _run_asympt(config: RunConfig, sink: IO[str]) -> int:
    if config.n == 0:
        form = asymptotic_E0(config.a, config.beta, config.variant)
    else:
        form = asymptotic_En(config.n, config.a, config.beta)
    log_value = form.log_evaluate(config.s)
    record = Record(
        s=config.s, beta=config.beta, a=config.a, n=config.n,
        method=f"asymptotic[{form.source}]",
        value=_safe_exp(log_value), log_value=log_value,
    )
    _emit([record], config, sink)
    return 0


def _run_largedev(config: RunConfig, sink: IO[str]) -> int:
    log_value = log_large_deviation_E0(config.N, config.s, config.a, config.beta)
    record = Record(
        s=config.s, beta=config.beta, a=config.a, n=0, N=config.N,
        method="large_deviation_E0",
        value=_safe_exp(log_value), log_value=log_value,
    )
    _emit([record], config, sink)
    return 0


def _run_contour(config: RunConfig, sink: IO[str]) -> int:
    if config.N is not None:
        value = torus_E0_finiteN(config.s, config.a, config.beta, config.N, tol=config.tol)
        method = "torus_E0_finiteN"
    elif config.route == "torus":
        value = torus_E0_hard(config.s, config.a, config.beta, tol=config.tol)
        method = "torus_E0_hard"
    else:
        value = hard_contour_E0(config.s, config.a, config.beta)
        method = "hard_contour_E0"
    record = Record(
        s=config.s, beta=config.beta, a=config.a, n=0, N=config.N,
        method=method, value=value,
        log_value=math.log(value) if value > 0 else -math.inf,
    )
    _emit([record], config, sink)
    return 0


def _run_mc(config: RunConfig, sink: IO[str]) -> int:
    spec = EnsembleSpec(config.beta, config.a, config.N)
    estimate = estimate_gap(
        spec, config.s, config.n, config.samples, config.seed, config.threads
    )
    p = estimate.probability
    record = Record(
        s=config.s, beta=config.beta, a=config.a, n=config.n, N=config.N,
        method="mc_estimate_gap", value=p,
        log_value=math.log(p) if p > 0 else -math.inf,
        stderr=estimate.stderr, seed=estimate.seed,
    )
    _emit([record], config, sink)
    return 0


def _identity_suite() -> list[tuple[str, float, float]]:
    """(name, residual, tolerance) triples for the asserting suite.

    Covers the double-gamma shift equations, the inversion identity and
    its product-function rewrite, the two gamma-product identities used
    to continue the asymptotic constants, the equality of the two
    constant constructions, the duality of asymptotic forms and
    constants, and series-vs-quadrature route equivalence.
    """
    from scipy.special import gammaln

    log_2pi = math.log(2.0 * math.pi)
    rows: list[tuple[str, float, float]] = []

    resid_1 = resid_tau = 0.0
    for z in (0.5, 1.1, 2.3, 4.9):
        for tau in (0.5, 1.0, 2.0):
            lhs = log_gamma2(z + 1.0, tau)
            rhs = log_gamma2(z, tau) - (z / tau - 0.5) * math.log(tau) \
                + 0.5 * log_2pi - gammaln(z / tau)
            resid_1 = max(resid_1, abs(lhs - rhs))
            lhs = log_gamma2(z + tau, tau)
            rhs = log_gamma2(z, tau) + 0.5 * log_2pi - gammaln(z)
            resid_tau = max(resid_tau, abs(lhs - rhs))
    rows.append(("feq-shift-1", resid_1, 1e-9))
    rows.append(("feq-shift-tau", resid_tau, 1e-9))

    resid = 0.0
    for z in (1.5, 3.0):
        for tau in (0.5, 2.0):
            lhs = log_gamma2(z, tau)
            rhs = (-(1.0 + z * z / (2.0 * tau)) + z * (1.0 + tau) / (2.0 * tau)) \
                * math.log(tau) + log_gamma2(z / tau, 1.0 / tau)
            resid = max(resid, abs(lhs - rhs))
    rows.append(("mm-inversion", resid, 1e-9))

    resid = 0.0
    for av in (1.5, 3.0):
        for tau in (0.5, 2.0):
            lhs = log_f_beta_half(av, 2.0 / tau)
            rhs = ((av - 1.0) / 2.0 - (av - 1.0) / (2.0 * tau)) * log_2pi \
                + ((1.0 - av) / 2.0 - av * (av - 1.0) / (2.0 * tau)) * math.log(tau) \
                + log_f_beta_half((av - 1.0) / tau + 1.0, 2.0 * tau)
            resid = max(resid, abs(lhs - rhs))
    rows.append(("mm1-rewrite", resid, 1e-9))

    resid = 0.0
    for beta, n, av in ((2.0, 1, 1.0), (2.0, 2, 1.5), (1.0, 2, 3.0)):
        tau = 2.0 / beta
        count = round(beta * n)
        lhs = sum(
            gammaln(av + 2.0 * j / beta) - 0.5 * log_2pi
            for j in range(1, count + 1)
        )
        rhs = (2.0 * n * n / tau + 2.0 * n * av / tau - n / tau + n) * math.log(tau) \
            - n * log_2pi + log_f_beta_half(2.0 * n + av, beta) \
            - log_f_beta_half(av, beta)
        resid = max(resid, abs(lhs - rhs))
    rows.append(("a1-product", resid, 1e-10))

    resid = 0.0
    for beta, n, av in ((2.0, 2, 1.0), (4.0, 1, 2.0)):
        lhs = sum(gammaln(1.0 + (j + 1.0) * beta / 2.0) for j in range(n)) - sum(
            gammaln(1.0 + (j + av) * beta / 2.0) for j in range(n, 2 * n)
        )
        rhs = log_f_beta_half(n + 1.0, beta) + log_f_beta_half(n + av, beta) \
            - log_f_beta_half(2.0 * n + av, beta)
        resid = max(resid, abs(lhs - rhs))
    rows.append(("a2-product", resid, 1e-10))

    resid = 0.0
    for beta in (1.0, 2.0, 4.0):
        for m in (1, 2, 3):
            av = 2.0 * m / beta
            resid = max(resid, abs(a_const(av, beta) / tau_hard(av, beta) - 1.0))
    rows.append(("At-constant", resid, 1e-12))

    resid_const = resid_coeff = 0.0
    for beta, n, av in ((2.0, 1.0, 2.0), (4.0, 0.0, 2.0), (1.0, 1.0, 4.0)):
        lhs, rhs = duality_constants(beta, n, av)
        resid_const = max(resid_const, abs(lhs / rhs - 1.0))
        resid_coeff = max(resid_coeff, duality_check(beta, n, av)["max_coeff_diff"])
    rows.append(("duality-constants", resid_const, 1e-10))
    rows.append(("duality-exponents", resid_coeff, 1e-10))

    series = exact_E0_finiteN(0.5, 2.0 / 3.0, 3.0, 4)
    torus = torus_E0_finiteN(0.5, 2.0 / 3.0, 3.0, 4)
    rows.append(("route-series-torus", abs(torus / series - 1.0), 1e-8))
    series = exact_E0_hard(2.0, 2.0, 1.0)
    circle = torus_E0_hard(2.0, 2.0, 1.0)
    rows.append(("route-series-circle", abs(circle / series - 1.0), 1e-6))
    contour = hard_contour_E0(2.0, 2.0 / 3.0, 3.0)
    series = exact_E0_hard(2.0, 2.0 / 3.0, 3.0)
    rows.append(("route-series-contour", abs(contour / series - 1.0), 1e-6))
    return rows


def _run_check(config: RunConfig, sink: IO[str]) -> int:
    failures = 0
    for name, residual, tol in _identity_suite():
        passed = bool(residual < tol)
        failures += not passed
        if config.fmt == "json":
            print(
                _json_line(
                    {"name": name, "residual": residual, "tol": tol, "passed": passed}
                ),
                file=sink,
            )
        else:
            status = "PASS" if passed else "FAIL"
            print(f"{status}  {name:<22} residual={residual:.3e}  tol={tol:.0e}", file=sink)
    return 3 if failures else 0


def _fit_exponent(
    beta: float,
    a: float,
    grid: tuple[float, ...],
    tol: float,
    max_weight: int | None,
    fixed_slope: float,
) -> tuple[float, float, float]:
    """Exponent fit of the log-residual vs log s.

    The residual is ``log E + beta s / 8 - (beta a / 2) sqrt(s)``; its
    asymptote is ``c_log * log s + c_const``.  Returns the free
    least-squares ``(slope, constant)`` plus the constant re-estimated
    with the slope pinned to ``fixed_slope`` (the free fit trades
    constant against slope on a finite grid).
    """
    xs, ys = [], []
    for s in grid:
        log_value, _ = exact_E0_hard_detailed(s, a, beta, tol, max_weight)
        xs.append(math.log(s))
        ys.append(log_value + beta * s / 8.0 - (beta * a / 2.0) * math.sqrt(s))
    slope, const = np.polyfit(xs, ys, 1)
    pinned = float(np.mean([y - fixed_slope * x for x, y in zip(xs, ys)]))
    return float(slope), float(const), pinned


def _run_report(config: RunConfig, sink: IO[str]) -> int:
    beta, a = config.beta, config.a
    grid = config.s_grid if config.s_grid is not None else _REPORT_GRID
    forms = {
        variant: asymptotic_E0(a, beta, variant) for variant in ("PU", "MG", "F1A")
    }
    slope, const, pinned = _fit_exponent(
        beta, a, grid, config.tol, config.max_weight, forms["F1A"].c_log
    )
    if config.fmt == "json":
        payload = {
            "beta": beta,
            "a": a,
            "s_grid": list(grid),
            "log_s_coefficient": {
                variant: form.c_log for variant, form in forms.items()
            },
            "fitted_log_s_coefficient": slope,
            "constant": {variant: form.c_const for variant, form in forms.items()},
            "fitted_constant": const,
            "fitted_constant_pinned_slope": pinned,
        }
        print(_json_line(payload), file=sink)
        return 0
    print(f"exponent arbitration at beta={beta!r}, a={a!r}", file=sink)
    print(f"  s grid: {', '.join(repr(s) for s in grid)}", file=sink)
    print("  log(s) coefficient:", file=sink)
    for variant, form in forms.items():
        print(f"    {variant:>6}: {form.c_log!r}", file=sink)
    print(f"    fitted: {slope!r}", file=sink)
    print("  constant term:", file=sink)
    for variant, form in forms.items():
        print(f"    {variant:>6}: {form.c_const!r}", file=sink)
    print(f"    fitted: {const!r}", file=sink)
    print(f"    fitted (slope pinned to F1A): {pinned!r}", file=sink)
    print("  (informational only; asserting checks live in `check`)", file=sink)
    return 0


_RUNNERS = {
    "exact": _run_exact,
    "asympt": _run_asympt,
    "largedev": _run_largedev,
    "contour": _run_contour,
    "mc": _run_mc,
    "check": _run_check,
    "sweep": _run_sweep,
    "report": _run_report,
}


def run(config: RunConfig, sink: IO[str]) -> int:
    """Execute one parsed invocation, writing records to the sink."""
    return _RUNNERS[config.command](config, sink)


def _add_common(parser: argparse.ArgumentParser, *, need_s: bool = False) -> None:
    parser.add_argument("--beta", type=float, required=True, help="inverse temperature")
    parser.add_argument("--a", type=float, required=True, help="weight exponent parameter")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    if need_s:
        parser.add_argument("--s", type=float, required=True, help="gap endpoint")


def build_parser() -> argparse.ArgumentParser:
    """The betagap argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="betagap",
        description="Gap probabilities at the hard edge of beta-ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact series/quadrature evaluation")
    _add_common(p, need_s=True)
    p.add_argument("--n", type=int, default=0, help="eigenvalues inside the gap")
    p.add_argument("--N", type=int, default=None, help="ensemble size (omit for hard edge)")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-weight", type=int, default=None, dest="max_weight")

    p = sub.add_parser("asympt", help="asymptotic form evaluation")
    _add_common(p, need_s=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--variant", choices=("F1A", "PU", "MG"), default="F1A")

    p = sub.add_parser("largedev", help="finite-size large-deviation formula")
    _add_common(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument(
        "--s", type=float, required=True,
        help="gap endpoint as a fraction of the spectrum width 4N",
    )

    p = sub.add_parser("contour", help="torus / branch-cut quadrature routes")
    _add_common(p, need_s=True)
    p.add_argument("--N", type=int, default=None, help="ensemble size (omit for hard edge)")
    p.add_argument("--route", choices=("contour", "torus"), default="contour")
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("mc", help="Monte Carlo gap-probability estimate")
    _add_common(p, need_s=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("check", help="asserting identity/consistency suite")
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")

    p = sub.add_parser("sweep", help="exact evaluation over an s-grid")
    _add_common(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--s-min", type=float, required=True, dest="s_min")
    p.add_argument("--s-max", type=float, required=True, dest="s_max")
    p.add_argument("--s-count", type=int, required=True, dest="s_count")
    p.add_argument("--log-grid", action="store_true", dest="log_grid")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-weight", type=int, default=None, dest="max_weight")

    p = sub.add_parser("report", help="side-by-side asymptotic exponents (no assertions)")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-weight", type=int, default=None, dest="max_weight")

    return parser


def _check_endpoint(flag: str, value: float, *, positive: bool = False) -> None:
    """Reject a gap endpoint that is NaN, infinite, negative, or (when
    ``positive``) zero."""
    if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        kind = "positive" if positive else "nonnegative"
        raise ValueError(f"{flag} must be finite and {kind}, got {value}")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = vars(args).copy()
    if args.command in ("exact", "mc", "contour"):
        _check_endpoint("--s", args.s)
    elif args.command in ("asympt", "largedev"):
        _check_endpoint("--s", args.s, positive=True)
    elif args.command == "sweep":
        _check_endpoint("--s-min", args.s_min)
        _check_endpoint("--s-max", args.s_max)
    if args.command in ("asympt", "largedev", "report"):
        # the double-gamma constants walk their argument down one unit at
        # a time, and name their own variables, not these flags
        for flag, value in (("--a", args.a), ("--beta", args.beta)):
            if not math.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value}")
    if args.command == "sweep":
        count = values.pop("s_count")
        lo, hi = values.pop("s_min"), values.pop("s_max")
        if count < 1:
            raise ValueError(f"s-count must be positive, got {count}")
        if count > 1 and hi <= lo:
            raise ValueError(f"grid needs s-max > s-min, got [{lo}, {hi}]")
        if values.pop("log_grid"):
            grid = np.geomspace(lo, hi, count)
        else:
            grid = np.linspace(lo, hi, count)
        values["s_grid"] = tuple(float(g) for g in grid)
    allowed = {f.name for f in fields(RunConfig)}
    return RunConfig(**{k: v for k, v in values.items() if k in allowed})


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse, run, and translate failures to exit codes."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config, sys.stdout)
    except (ParameterQuantizationError, ValueError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    except BetagapError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 3
