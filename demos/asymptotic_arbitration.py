#!/usr/bin/env python3
"""Arbitrate between competing large-gap asymptotic expansions.

Three published forms of the large-``s`` expansion of the hard-edge
gap probability agree on the leading exponential terms but differ in
the coefficient of ``log s``.  Deciding between them numerically is
delicate because the candidates differ by slowly varying terms.
``betagap report`` removes the agreed-upon terms from the exact series
values and fits the residual against ``log s``; this script reads its
fit and candidates as JSON, compares the fitted constant with ``-log
sqrt(2 pi)`` and names the candidate nearest the fitted slope.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

from betagap import cli


def report(a: float, beta: float) -> dict:
    """The payload of ``betagap report --format json``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["report", "--beta", repr(beta), "--a", repr(a), "--format", "json"])
    if code:
        raise SystemExit(f"betagap report exited {code}: {out.getvalue()}")
    return json.loads(out.getvalue())


def main() -> int:
    payload = report(1.0, 2.0)
    print(f"large-gap expansion arbitration at beta={payload['beta']:.0f}, a={payload['a']:.0f}")
    print(f"  s grid: {', '.join(f'{s:.6g}' for s in payload['s_grid'])}")
    print()
    print("  candidate log(s) coefficients:")
    for variant, c_log in payload["log_s_coefficient"].items():
        c_const = payload["constant"][variant]
        print(f"    {variant:>3}: c_log = {c_log:+.6f}  c_const = {c_const:+.6f}")
    print()

    slope = payload["fitted_log_s_coefficient"]
    pinned = payload["fitted_constant_pinned_slope"]
    print(f"  fitted slope (free):        {slope:+.6f}")
    print(f"  fitted constant (free):     {payload['fitted_constant']:+.6f}")
    print(f"  fitted constant (pinned):   {pinned:+.6f}")
    target = -0.5 * math.log(2.0 * math.pi)
    print(f"  -log sqrt(2 pi):            {target:+.6f}")
    print()
    candidates = payload["log_s_coefficient"]
    best = min(candidates, key=lambda variant: abs(candidates[variant] - slope))
    print(f"  nearest candidate to the fitted slope: {best}")
    print(f"  pinned-constant relative gap: {abs(pinned / target - 1.0):.2%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
