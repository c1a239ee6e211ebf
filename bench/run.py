"""CPU-time benchmark of ``betagap`` on three workloads.

Usage, from the root of a checkout::

    python3 bench/run.py --workload e0_series --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``README.md``):

- ``e0_series``: ``E(0)`` by the series, in process, warm caches;
- ``en_quadrature``: ``E(n)`` by quadrature over series, in process;
- ``cli_cold``: one fresh ``python -m betagap`` process per evaluation.

Every evaluation runs in a child process with BLAS pinned to one thread
and ``src`` of this checkout on its path; evaluations run one after
another, never concurrently.  Timings are CPU seconds of the process
doing the work, rescaled to a reference host speed by the kernel of
``calibrate.py`` sampled inside that process (untraced runs only).  Every output is checked against ``reference.py`` or a
property of the method.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Span records of a traced run go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import verify
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Fresh processes whose median CPU time is ``setup_s``.
#: ``en_quadrature`` takes two: each of its set-ups is a 10 s pass, which
#: already spans the host's short-term speed changes.
SETUP_PROBES = {"e0_series": 3, "en_quadrature": 2, "cli_cold": 5}
#: Wall-clock limit of any one child process.
CHILD_TIMEOUT_S = 170
_BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["BETAGAP_THREADS"] = "1"
    for var in _BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def _run_child(argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run one child to completion; its result and its CPU seconds.

    Children run one at a time, so the change in this process's
    children rusage is the child's own CPU time.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc, cpu


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _worker(*args: str) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), *args]


@dataclass
class Measured:
    """What one run measured.

    ``rounds[r][i]`` is operation ``i``'s result in round ``r`` and
    ``times[i]`` its CPU seconds at the reference speed in every round
    (``raw_times[i]`` in plain CPU seconds); ``setup`` holds the
    ``setup_s`` samples.
    """

    rounds: list = field(default_factory=list)
    times: list = field(default_factory=list)
    raw_times: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    peak_mb: float = 0.0
    layers: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _setup_probes(out: Measured, workload: str, seed: int, small: bool) -> None:
    """``setup_s`` samples from fresh processes that only set up.

    For ``cli_cold`` each is the CPU time of a process that imports
    ``betagap`` and exits, at the reference speed.  For the in-process workloads the timed
    worker gives one more sample, so one probe fewer is started.
    """
    count = 1 if small else SETUP_PROBES[workload]
    if workload == "cli_cold":
        for _ in range(count):
            proc, cpu = _run_child(_worker("import"))
            out.setup.append(_rescaled(cpu, _last_json(proc))[1])
        return
    argv = _worker("probe", workload, str(seed), *(["--small"] if small else []))
    for _ in range(count - 1):
        out.setup.append(_last_json(_run_child(argv)[0])["setup_s"])


def _in_process(out: Measured, workload, ops, seed, seconds, traced, small) -> None:
    """Rounds of an in-process workload, timed in one worker process."""
    proc, _ = _run_child(_worker(
        "run", workload, str(seed), repr(seconds), "1" if traced else "0",
        *(["--small"] if small else []),
    ))
    data = _last_json(proc)
    out.setup.append(data["setup_s"])
    out.rounds = [
        [verify.Result(value=v, error=e) for v, e in round_results]
        for round_results in data["results"]
    ]
    out.times, out.raw_times = data["times"], data["raw_times"]
    out.peak_mb = data["max_rss_mb"]
    out.layers, out.spans = data["layers"], data["spans"]
    for i, op in enumerate(ops):
        outputs = {tuple(r) for r in (res[i] for res in data["results"])}
        if op.expect_error is None:
            outputs.add(tuple(data["warm"][i]))
        if len(outputs) > 1:
            out.problems.append(
                f"{op.name}: output changed between passes: {sorted(map(str, outputs))}"
            )


def _rescaled(cpu: float, data: dict) -> tuple[float, float]:
    """A sampled child's rusage CPU seconds without its samples: plain, and rescaled."""
    net = cpu - data["spent"]
    return net, net * data["scale"]


def _cold_cli(out: Measured, ops, seconds, traced) -> None:
    """Rounds of fresh command-line processes, one after another.

    Untraced, each process runs ``python -m betagap`` through the
    worker's ``plain`` mode, which samples the calibration kernel.
    """
    stdout_seen: list[dict] = [{} for _ in ops]
    out.times = [[] for _ in ops]
    out.raw_times = [[] for _ in ops]
    import_s: list[float] = []
    start = time.perf_counter()
    while True:
        round_results, round_layers = [], []
        for i, op in enumerate(ops):
            if traced:
                proc, cpu = _run_child(_worker("cli", *op.call))
                data = _last_json(proc)
                code, stdout = data["exit"], data["stdout"]
                round_layers.append(data["layers"])
                import_s.append(data["layers"]["cli.import_s"])
                out.spans.append({"op": op.name, "spans": data["spans"]})
                raw = scaled = cpu
            else:
                proc, cpu = _run_child(_worker("plain", *op.call))
                data = _last_json(proc)
                code, stdout = data["exit"], data["stdout"]
                raw, scaled = _rescaled(cpu, data)
            out.times[i].append(scaled)
            out.raw_times[i].append(raw)
            stdout_seen[i][stdout] = code
            round_results.append(verify.parse_cli(code, stdout, csv_lines=op.kind == "check"))
        out.rounds.append(round_results)
        if traced:
            out.layers.append(_sum_layers(round_layers))
        if time.perf_counter() - start >= seconds:
            break
    # the largest peak over this process's children: every fresh process
    out.peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for layer in out.layers:
        layer["cli.import_s"] = statistics.median(import_s)
    out.problems += [
        f"{op.name}: output changed between calls"
        for op, seen in zip(ops, stdout_seen) if len(seen) > 1
    ]


def _sum_layers(per_call: list[dict]) -> dict:
    total = {name: sum(call[name] for call in per_call) for name in tracing.PER_LAYER}
    total["hypergeom.max_weight"] = max(call["hypergeom.max_weight"] for call in per_call)
    return total


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced-size mode: cheap operations only, one set-up probe")
    args = parser.parse_args(argv)

    if not (SRC / "betagap" / "__init__.py").is_file():
        print(f"no betagap sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)  # byte-compile once, outside every measurement

    ops = workloads.build(args.workload, args.seed, args.small)
    traced = args.trace == 1
    out = Measured()
    if not traced:
        _setup_probes(out, args.workload, args.seed, args.small)
    if args.workload == "cli_cold":
        _cold_cli(out, ops, args.seconds, traced)
    else:
        _in_process(out, args.workload, ops, args.seed, args.seconds, traced, args.small)

    digits, check_problems = verify.check(ops, out.rounds[0])
    problems = out.problems + check_problems
    attempted = len(out.rounds) * len(ops)
    failed = sum(res.error is not None for round_results in out.rounds for res in round_results)
    # An evaluation counts when it never failed; the kept failure never counts.
    counted = [
        i for i, op in enumerate(ops)
        if op.expect_error is None and all(r[i].error is None for r in out.rounds)
    ]

    # each evaluation's time is the median of its repeats
    evals_per_s = len(counted) / sum(statistics.median(out.times[i]) for i in counted)
    raw_evals_per_s = len(counted) / sum(statistics.median(out.raw_times[i]) for i in counted)

    for problem in problems:
        print(f"PROBLEM {problem}")
    print(f"workload={args.workload} seed={args.seed} rounds={len(out.rounds)} "
          f"operations={len(ops)} traced={traced} evals_per_s={evals_per_s!r} "
          f"raw_evals_per_s={raw_evals_per_s!r}")

    if traced:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as sink:
            json.dump(out.spans, sink)
        metrics = {
            name: _metric(statistics.median(layer[name] for layer in out.layers), unit)
            for name, unit in tracing.PER_LAYER.items()
        }
    else:
        metrics = {
            "evals_per_s": _metric(evals_per_s, "1/s"),
            "setup_s": _metric(statistics.median(out.setup), "s"),
            "min_digits": _metric(min(digits), "digits"),
            "peak_rss_mb": _metric(out.peak_mb, "MB"),
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
