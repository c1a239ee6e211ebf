"""The process that does the measured work; started by ``run.py``.

Modes:

- ``probe WORKLOAD SEED``: import ``betagap`` and make one untimed,
  cold-cache warm-up pass over the workload, then print this process's
  CPU seconds so far: one ``setup_s`` sample.
- ``run WORKLOAD SEED SECONDS TRACE``: the same set-up, which gives one
  more ``setup_s`` sample, then repeat whole rounds of the workload until
  ``SECONDS`` of wall time have passed, timing every evaluation in CPU
  seconds of this process.  Prints one JSON object.
- ``import``: ``import betagap`` and nothing else; the parent takes the
  CPU time of this process from its rusage.
- ``plain ARGS...``: one command-line call run as ``python -m betagap
  ARGS...`` would run it; prints its exit code and output.
- ``cli ARGS...``: one command-line call replayed in process
  through ``betagap.cli.main`` with every layer traced.  Prints one JSON
  object.

Untraced modes time in CPU seconds at the reference speed of
``calibrate.py``, with its kernel sampled from the start of the process;
``import`` and ``plain`` print the samples' total time and the scale, so
that the parent can rescale the process's rusage.  Traced modes time in
plain CPU seconds and take no samples.

The parent pins BLAS to one thread through the environment before this
process starts, and puts the checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import runpy
import sys
import time

import calibrate
import tracing
import workloads

clock = calibrate.clock


def _import_betagap() -> float:
    """Import the package; CPU seconds the import took."""
    start = clock()
    import betagap  # noqa: F401

    return clock() - start


def _api() -> dict:
    from betagap import gap

    return {name: getattr(gap, name) for name in tracing.GAP_FUNCTIONS}


def _evaluate(api: dict, op) -> tuple[float | None, str | None]:
    """Run one operation; its probability, or the error it raised."""
    name, args = op.call
    try:
        out = api[name](*args)
    except Exception as exc:  # recorded as a failed operation, the run goes on
        return None, f"{type(exc).__name__}: {exc}"
    if isinstance(out, tuple):  # (log value, diagnostics) of a *_detailed route
        out = math.exp(out[0])
    return float(out), None


def _set_up(workload: str, seed: int, small: bool):
    """Import and one warm-up pass; the operations, api, warm-up results and timings.

    The kept failure is left out of the warm-up pass, so that mending it
    cannot read as a set-up regression.
    """
    import_s = _import_betagap()
    api = _api()
    ops = workloads.build(workload, seed, small)
    warm = [_evaluate(api, op) if op.expect_error is None else (None, None) for op in ops]
    return ops, api, warm, import_s


def _since_start(sampler) -> float:
    """CPU seconds of this fresh interpreter up to here, start-up included."""
    if sampler is None:
        return clock()
    return sampler.measure((0.0, 0.0))[1]


def probe(workload: str, seed: int, small: bool, sampler) -> dict:
    _set_up(workload, seed, small)
    return {"setup_s": _since_start(sampler)}


def run(workload: str, seed: int, seconds: float, small: bool, sampler) -> dict:
    """Timed rounds; traced when no ``sampler`` is given.

    ``times`` are the evaluations' CPU seconds at the reference speed
    (plain CPU seconds when traced), ``raw_times`` their plain CPU
    seconds.
    """
    ops, api, warm, import_s = _set_up(workload, seed, small)
    setup_s = _since_start(sampler)
    tracer = None
    if sampler is None:
        tracer = tracing.Tracer()
        tracing.install(tracer, api)
    results: list[list] = []
    times: list[list[float]] = [[] for _ in ops]
    raw_times: list[list[float]] = [[] for _ in ops]
    layers: list[dict] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.new_round()
        round_results = []
        for i, op in enumerate(ops):
            if sampler is None:
                t0 = clock()
                value, error = _evaluate(api, op)
                raw = scaled = clock() - t0
            else:
                mark = sampler.mark()
                value, error = _evaluate(api, op)
                raw, scaled = sampler.measure(mark)
            times[i].append(scaled)
            raw_times[i].append(raw)
            round_results.append([value, error])
        results.append(round_results)
        if tracer is not None:
            layers.append(tracer.metrics(import_s))
        if time.perf_counter() - start >= seconds:
            break
    return {
        "setup_s": setup_s,
        "warm": [list(w) for w in warm],
        "results": results,
        "times": times,
        "raw_times": raw_times,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "spans": tracer.spans if tracer is not None else [],
    }


def import_only(sampler) -> dict:
    _import_betagap()
    return {"spent": sampler.spent, "scale": sampler.scale(0.0, clock())}


def plain_cli(argv: list[str], sampler) -> dict:
    """``python -m betagap ARGV`` in this process, its output captured."""
    sys.argv = ["betagap", *argv]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        try:
            runpy.run_module("betagap", run_name="__main__", alter_sys=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return {
        "exit": code,
        "stdout": sink.getvalue(),
        "spent": sampler.spent,
        "scale": sampler.scale(0.0, clock()),
    }


def replay_cli(argv: list[str]) -> dict:
    import_s = _import_betagap()
    from betagap import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return {
        "exit": code,
        "stdout": sink.getvalue(),
        "layers": tracer.metrics(import_s),
        "spans": tracer.spans,
    }


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    traced = mode == "cli" or (mode == "run" and rest[3] == "1")
    sampler = None if traced else calibrate.Sampler().start()
    small = mode in ("probe", "run") and "--small" in rest
    if small:
        rest.remove("--small")
    if mode == "probe":
        out = probe(rest[0], int(rest[1]), small, sampler)
    elif mode == "run":
        out = run(rest[0], int(rest[1]), float(rest[2]), small, sampler)
    elif mode == "import":
        out = import_only(sampler)
    elif mode == "plain":
        out = plain_cli(rest, sampler)
    elif mode == "cli":
        out = replay_cli(rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if sampler is not None:
        sampler.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
