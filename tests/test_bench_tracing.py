"""The benchmark's tracer still finds every module attribute it wraps.

``bench/tracing.py`` replaces functions of ``betagap`` modules by name and
counts calls made through those module globals.  A renamed or inlined
function breaks traced benchmark runs, which only ``bench/tests`` would
otherwise notice.  The tracer runs in a child process, so this session's
modules stay unwrapped.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One call per traced layer, then the counts each layer must have seen.
SCRIPT = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import tracing
from betagap import cli

tracer = tracing.Tracer()
tracing.install(tracer)
# a single series, not only a quadrature batch, is one span with its terms
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["exact", "--beta", "2", "--a", "1", "--s", "4", "--n", "0"])
assert code == 0, code
assert [span[1] for span in tracer.spans].count("hypergeom.series") == 1, tracer.spans
assert tracer.calls["hypergeom.series"] == 1, tracer.calls
assert tracer.counts["hypergeom.terms"] > 0, tracer.counts
calls = [
    ["exact", "--beta", "2", "--a", "1", "--s", "4", "--n", "1"],
    # n = 1 is one exactly integrated series; n = 2 at a > 0 runs the
    # quadrature (at a = 0 it is one series too)
    ["exact", "--beta", "2", "--a", "1", "--s", "4", "--n", "2"],
    ["asympt", "--beta", "2", "--a", "1", "--s", "100"],
    ["contour", "--beta", "2", "--a", "1", "--s", "2"],
    ["contour", "--beta", "2", "--a", "1", "--s", "2", "--route", "torus"],
    ["contour", "--beta", "2", "--a", "1", "--s", "0.5", "--N", "4"],
    ["mc", "--beta", "2", "--a", "1", "--N", "5", "--s", "1", "--samples", "5000"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in calls]
assert codes == [0] * 7, codes
seen = tracer.calls
for layer in ("cli.run", "gap.eval", "hypergeom.series",
              "barnes.gamma2", "contour.eval", "mc.estimate", "mc.sample"):
    assert seen[layer] > 0, layer
# no route calls partitions_of_weight, but the tracer still wraps it by name
from betagap import hypergeom, partitions
assert hypergeom.partitions_of_weight.__wrapped__ is partitions.partitions_of_weight
assert seen["cli.run"] == 8, seen["cli.run"]
assert seen["contour.eval"] == 3, seen["contour.eval"]
assert tracer.counts["mc.samples"] == 5000, tracer.counts["mc.samples"]
assert tracer.counts["gap.quad_order"] > 0
# the batched quadrature still reaches the series through gap.pFq_alpha
assert tracer.counts["gap.quad_nodes"] > 0
assert tracer.counts["hypergeom.terms"] > 0
# at odd beta the nested map's axis rules also pass through gap.roots_jacobi
before = tracer.counts["gap.quad_order"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["exact", "--beta", "1", "--a", "2", "--s", "4", "--n", "2"])
assert code == 0, code
assert tracer.counts["gap.quad_order"] > before, tracer.counts
"""


def test_tracer_installs_and_sees_every_layer() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench")],
        capture_output=True,
        text=True,
        check=False,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
