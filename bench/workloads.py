"""Operations of the three benchmark workloads.

Each workload is a fixed list of operations built from ``--seed``; the
same seed gives the same list.  This module imports nothing from
``betagap``: the parent process uses it to check outputs, the worker
process to run them.

- ``e0_series`` jitters every ``s`` by at most 2% from the seed.  Series
  cost is smooth in ``s``: over seeds 101-110 the total number of series
  terms varied by 2.6%.
- ``en_quadrature`` and ``cli_cold`` keep their inputs fixed.  The
  quadrature and contour routes escalate their order in discrete steps,
  so a jittered ``s`` could move one evaluation across a step and double
  its cost.  There the seed only fixes the order of the operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("e0_series", "en_quadrature", "cli_cold")


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``call`` is ``(function_name, args)`` for the in-process workloads and
    the ``betagap`` argument list for ``cli_cold``.  ``ref`` names a
    function of ``reference`` and its arguments.  ``family`` groups
    ``E(0)`` evaluations whose values must not increase with ``s``;
    ``sum_with`` names the reference ``E(0)`` (and other operations) whose
    values with this one must sum to at most 1.  ``expect_error`` marks
    the one operation kept although it fails every time; it never enters
    ``evals_per_s``.  ``small`` selects the reduced-size mode.  ``kind``
    says how ``verify`` reads the output and ``extra`` holds what that
    check needs.
    """

    name: str
    call: tuple
    ref: tuple | None = None
    family: tuple | None = None
    s: float | None = None
    sum_with: tuple = ()
    expect_error: str | None = None
    small: bool = False
    kind: str = "value"
    extra: dict = field(default_factory=dict)


def _jitter(rng: random.Random, s: float) -> float:
    return s * (1.0 + 0.02 * (2.0 * rng.random() - 1.0))


def e0_series(seed: int) -> list[Op]:
    """``E(0)`` by the series on the identity path (every argument equal)."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for beta in (2.0, 1.0, 4.0, 3.0):
        for m in (1, 2, 3, 4):
            if m == 4 and beta != 2.0:
                continue
            a = 2.0 * m / beta
            for s_nominal in (4.0, 20.0, 60.0):
                s = _jitter(rng, s_nominal)
                if beta == 2.0:
                    ref = ("E0_hard_beta2", (s, m))
                elif m == 1:
                    ref = ("E0_hard_one_var", (s, beta))
                else:
                    ref = None
                ops.append(Op(
                    name=f"exact_E0_hard(s={s:.4f}, a={a:.4f}, beta={beta:g})",
                    call=("exact_E0_hard", (s, a, beta)),
                    ref=ref, family=("hard", beta, m), s=s,
                    small=s_nominal == 4.0 and m <= 2,
                ))
    for beta in (2.0, 1.0, 4.0):
        for m in (1, 2, 3):
            a = 2.0 * m / beta
            for N in (10, 30):
                for s_nominal in (0.1, 0.5):
                    s = _jitter(rng, s_nominal)
                    ref = ("E0_finiteN_beta2", (s, m, N)) if beta == 2.0 else None
                    ops.append(Op(
                        name=f"exact_E0_finiteN(s={s:.4f}, a={a:.4f}, beta={beta:g}, N={N})",
                        call=("exact_E0_finiteN", (s, a, beta, N)),
                        ref=ref, family=("finite", beta, m, N), s=s,
                        small=N == 10 and m == 1,
                    ))
    rng.shuffle(ops)
    return ops


def en_quadrature(seed: int) -> list[Op]:
    """``E(n)``, n = 1 and 2, by quadrature over series with two distinct arguments."""
    ops: list[Op] = [
        Op(
            name="exact_En_hard(s=4, a=0, beta=2, n=2)",
            call=("exact_En_hard_detailed", (4.0, 0.0, 2.0, 2)),
            ref=("En_hard_beta2", (4.0, 0.0, 2)),
            sum_with=(("E0_hard_beta2", (4.0, 0)), "exact_En_hard(s=4, a=0, beta=2, n=1)"),
        ),
        # Kept failure: the tensor Gauss-Jacobi rule does not settle on the
        # |y1 - y2|^beta kink at beta = 1.
        Op(
            name="exact_En_hard(s=0.5, a=0, beta=1, n=2)",
            call=("exact_En_hard_detailed", (0.5, 0.0, 1.0, 2)),
            sum_with=(("E0_hard_a0", (0.5, 1.0)),),
            expect_error="QuadratureError",
        ),
    ]
    for s in (1.0, 4.0, 10.0):
        for a in (0.0, 1.0):
            ops.append(Op(
                name=f"exact_En_hard(s={s:g}, a={a:g}, beta=2, n=1)",
                call=("exact_En_hard_detailed", (s, a, 2.0, 1)),
                ref=("En_hard_beta2", (s, a, 1)),
                sum_with=(("E0_hard_beta2", (s, int(a))),),
                small=a == 0.0,
            ))
    for s in (1.0, 4.0):
        for a in (0.0, 2.0):
            e0 = ("E0_hard_one_var", (s, 1.0)) if a else ("E0_hard_a0", (s, 1.0))
            ops.append(Op(
                name=f"exact_En_hard(s={s:g}, a={a:g}, beta=1, n=1)",
                call=("exact_En_hard_detailed", (s, a, 1.0, 1)),
                sum_with=(e0,),
                small=True,
            ))
    for N in (5, 10):
        for a in (0.0, 1.0):
            ops.append(Op(
                name=f"exact_En_finiteN(s=0.5, a={a:g}, beta=2, n=1, N={N})",
                call=("exact_En_finiteN", (0.5, a, 2.0, 1, N)),
                ref=("En_finiteN_beta2", (0.5, a, 1, N + 1)),
                sum_with=(("En_finiteN_beta2", (0.5, a, 0, N + 1)),),
                small=N == 5 and a == 0.0,
            ))
        for a in (0.0, 2.0):
            ops.append(Op(
                name=f"exact_En_finiteN(s=0.5, a={a:g}, beta=1, n=1, N={N})",
                call=("exact_En_finiteN", (0.5, a, 1.0, 1, N)),
                small=N == 5,
            ))
    random.Random(seed).shuffle(ops)
    return ops


def _cli(name: str, argv: list[str], kind: str, **fields) -> Op:
    return Op(name=name, call=tuple(argv + ["--format", "json"]), kind=kind, **fields)


def cli_cold(seed: int) -> list[Op]:
    """One fresh ``python -m betagap`` process per operation."""
    ops = [
        _cli("exact hard edge", ["exact", "--beta", "2", "--a", "1", "--s", "4"],
             "value", ref=("E0_hard_beta2", (4.0, 1)), small=True),
        _cli("exact finite N", ["exact", "--beta", "2", "--a", "2", "--s", "0.5", "--N", "8"],
             "value", ref=("E0_finiteN_beta2", (0.5, 2, 8))),
        _cli("exact n=1", ["exact", "--beta", "2", "--a", "1", "--s", "4", "--n", "1"],
             "value", ref=("En_hard_beta2", (4.0, 1.0, 1))),
        _cli("sweep", ["sweep", "--beta", "4", "--a", "1.5", "--s-min", "1", "--s-max", "16",
                       "--s-count", "16"], "sweep", extra={"count": 16}),
        _cli("asympt", ["asympt", "--beta", "2", "--a", "1", "--s", "100"],
             "asympt", ref=("E0_hard_beta2", (100.0, 1))),
        _cli("largedev", ["largedev", "--beta", "2", "--a", "1", "--N", "20", "--s", "0.3"],
             "largedev", ref=("E0_finiteN_beta2", (24.0, 1, 20))),
        _cli("contour dimension 1", ["contour", "--beta", "2", "--a", "1", "--s", "2"],
             "value", ref=("E0_hard_beta2", (2.0, 1)), small=True),
        # beta = 4/3, a = 3: dimension 2 with a fractional power 2/beta on
        # the rays.  (beta = 3, a = 4/3 is left out: that route returns
        # values above 1 there; see CHANGES.md.)
        _cli("contour dimension 2", ["contour", "--beta", "1.3333333333333333", "--a", "3",
                                     "--s", "1"],
             "value", extra={"agrees_with": "exact dimension 2", "tol": 1e-8}),
        _cli("exact dimension 2", ["exact", "--beta", "1.3333333333333333", "--a", "3",
                                   "--s", "1"], "value"),
        _cli("contour torus", ["contour", "--beta", "2", "--a", "1", "--s", "2",
                               "--route", "torus"], "value", ref=("E0_hard_beta2", (2.0, 1))),
        _cli("contour finite-N torus", ["contour", "--beta", "2", "--a", "1", "--s", "0.5",
                                        "--N", "4"],
             "value", ref=("E0_finiteN_beta2", (0.5, 1, 4))),
        _cli("mc", ["mc", "--beta", "2", "--a", "1", "--N", "20", "--s", "2",
                    "--samples", "100000", "--seed", "11"],
             "mc", ref=("E0_finiteN_beta2", (2.0 / 80.0, 1, 20))),
        # CSV: ``check --format json`` fails (see CHANGES.md).
        Op(name="check", call=("check",), kind="check"),
        _cli("report", ["report", "--beta", "2", "--a", "1"], "report",
             ref=("asymptotic_E0_F1A_c_log", (1.0, 2.0))),
    ]
    random.Random(seed).shuffle(ops)
    return ops


BUILDERS = {"e0_series": e0_series, "en_quadrature": en_quadrature, "cli_cold": cli_cold}


def build(workload: str, seed: int, small: bool = False) -> list[Op]:
    """The workload's operations in run order; ``small`` keeps the cheap subset."""
    ops = BUILDERS[workload](seed)
    return [op for op in ops if op.small] if small else ops
