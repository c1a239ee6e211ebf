"""Checks of one workload's outputs against the references and method properties.

``check`` takes the operations and one result per operation and returns
the digits of agreement with every independent reference plus a list of
problems; an empty list means the outputs are correct.  Like the
references, this module imports nothing from ``betagap``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import reference

#: Slack for sums and orderings of probabilities computed in floating point.
_ROUNDING = 1e-12
#: Largest |log E| error accepted from the large-gap form at s = 100 (it
#: omits O(s^-1/2) corrections; the measured error there is 0.013).
_ASYMPT_LOG_TOL = 0.05
#: Largest relative error in log E accepted from the large-deviation formula.
_LARGEDEV_REL_LOG_TOL = 1e-3
#: Monte Carlo estimates must lie within this many standard errors.
_MC_SIGMAS = 4.0


@dataclass
class Result:
    """What one operation returned: a value, or an error it raised."""

    value: float | None = None
    error: str | None = None
    records: list | None = None  # parsed JSON lines of a command-line call


def ref_value(spec: tuple) -> float:
    """Evaluate a reference named as ``(function_name, args)``."""
    name, args = spec
    return getattr(reference, name)(*args)


def parse_cli(exit_code: int, stdout: str, csv_lines: bool = False) -> Result:
    """A command-line call's result; a nonzero exit is an error.

    Output is JSON lines, or with ``csv_lines`` plain lines kept as text.
    """
    if csv_lines:
        lines = stdout.splitlines()
        return Result(error=f"exit {exit_code}" if exit_code else None, records=lines)
    records = []
    for line in stdout.splitlines():
        line = line.strip()
        if line:
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                return Result(error=f"unparseable output line {line[:80]!r}")
    if exit_code != 0:
        message = records[-1].get("error") if records and isinstance(records[-1], dict) else None
        return Result(error=f"exit {exit_code}: {message}")
    value = None
    if len(records) == 1 and isinstance(records[0].get("value"), (int, float)):
        value = float(records[0]["value"])
    return Result(value=value, records=records)


def _probability(name: str, value, problems: list[str]) -> None:
    if not isinstance(value, float) or not 0.0 <= value <= 1.0:
        problems.append(f"{name}: {value!r} is not a probability")


def check(ops, results: list[Result]) -> tuple[list[float], list[str]]:
    """Digits of agreement with each reference, and every problem found."""
    digits: list[float] = []
    problems: list[str] = []
    by_name = {op.name: res for op, res in zip(ops, results)}
    ref_cache: dict = {}

    def ref(spec):
        key = (spec[0], tuple(spec[1]))
        if key not in ref_cache:
            ref_cache[key] = ref_value(spec)
        return ref_cache[key]

    for op, res in zip(ops, results):
        if res.error is not None:
            if op.expect_error is None or not res.error.startswith(op.expect_error):
                problems.append(f"{op.name}: unexpected failure {res.error}")
            continue
        if op.kind == "value":
            _probability(op.name, res.value, problems)
            if op.ref is not None and res.value is not None:
                digits.append(reference.digits(res.value, ref(op.ref)))
            other = op.extra.get("agrees_with")
            if other is not None:
                mate = by_name[other]
                if mate.value is None or abs(res.value / mate.value - 1.0) > op.extra["tol"]:
                    problems.append(
                        f"{op.name}: {res.value!r} disagrees with {other} {mate.value!r}"
                    )
            if op.sum_with:
                total = res.value
                for item in op.sum_with:
                    if isinstance(item, str):
                        total += by_name[item].value or 0.0
                    else:
                        total += ref(item)
                if total > 1.0 + _ROUNDING:
                    problems.append(f"{op.name}: sum over n of E(n) is {total!r} > 1")
        elif op.kind == "sweep":
            values = [r.get("value") for r in res.records]
            s_values = [r.get("s") for r in res.records]
            if len(values) != op.extra["count"]:
                problems.append(f"{op.name}: {len(values)} rows, expected {op.extra['count']}")
            for v in values:
                _probability(op.name, v, problems)
            pairs = sorted(zip(s_values, values))
            if any(b[1] > a[1] + _ROUNDING for a, b in zip(pairs, pairs[1:])):
                problems.append(f"{op.name}: E(0) increases with s")
        elif op.kind == "asympt":
            (record,) = res.records
            if abs(record["log_value"] - math.log(ref(op.ref))) > _ASYMPT_LOG_TOL:
                problems.append(f"{op.name}: log value {record['log_value']!r} off the reference")
        elif op.kind == "largedev":
            (record,) = res.records
            want = math.log(ref(op.ref))
            if abs(record["log_value"] / want - 1.0) > _LARGEDEV_REL_LOG_TOL:
                problems.append(f"{op.name}: log value {record['log_value']!r}, reference {want!r}")
        elif op.kind == "mc":
            (record,) = res.records
            _probability(op.name, record["value"], problems)
            if abs(record["value"] - ref(op.ref)) > _MC_SIGMAS * record["stderr"]:
                problems.append(f"{op.name}: {record['value']!r} +- {record['stderr']!r} "
                                f"misses the reference {ref(op.ref)!r}")
        elif op.kind == "check":
            if not res.records or not all(line.startswith("PASS ") for line in res.records):
                problems.append(f"{op.name}: identity suite did not pass: {res.records!r}")
        elif op.kind == "report":
            (payload,) = res.records
            if abs(payload["log_s_coefficient"]["F1A"] - ref(op.ref)) > _ROUNDING:
                problems.append(f"{op.name}: F1A log s coefficient "
                                f"{payload['log_s_coefficient']['F1A']!r}, "
                                f"reference {ref(op.ref)!r}")
            if not math.isfinite(payload["fitted_log_s_coefficient"]):
                problems.append(f"{op.name}: fitted coefficient is not finite")
        else:
            raise ValueError(f"unknown operation kind {op.kind!r}")

    families: dict = {}
    for op, res in zip(ops, results):
        if op.family is not None and res.value is not None:
            families.setdefault(op.family, []).append((op.s, res.value, op.name))
    for members in families.values():
        members.sort()
        for (_, v0, _), (_, v1, name) in zip(members, members[1:]):
            if v1 > v0 + _ROUNDING:
                problems.append(f"{name}: E(0) increases with s")
    return digits, problems
