"""Every name a module lists in ``__all__`` exists, no ``__all__`` lists a
function beside its log twin, neither importing the package nor any
subcommand needs scipy, and the test oracles share no code with the
package."""

from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import betagap

_SUBMODULES = sorted(
    info.name for info in pkgutil.iter_modules(betagap.__path__) if info.name != "__main__"
)


def test_package_all_resolves() -> None:
    missing = [name for name in betagap.__all__ if not hasattr(betagap, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", _SUBMODULES)
def test_submodule_all_resolves(module_name: str) -> None:
    module = importlib.import_module(f"betagap.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module_name", ["betagap"] + [f"betagap.{m}" for m in _SUBMODULES])
def test_no_exp_twin_exported(module_name: str) -> None:
    # Constants and asymptotic forms have one public copy, their log: an
    # exported ``f`` beside ``log_f`` would overflow where ``log_f`` does not.
    names = set(getattr(importlib.import_module(module_name), "__all__", ()))
    twins = sorted(name for name in names if f"log_{name}" in names)
    assert twins == []


def test_import_loads_no_scipy() -> None:
    # scipy is not a runtime dependency: the quadrature rules and the
    # Hurwitz zeta are the package's own (see test_no_subcommand_needs_scipy).
    script = "import sys, betagap; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=60
    )
    assert result.stdout.strip() == "[]"


# One call of every subcommand, reaching each route that once used
# scipy.special: the E(n) quadrature rule, the contour's Legendre rules, the
# double gamma's Hurwitz zeta and the check suite's log gamma.
_NO_SCIPY_CALLS = {
    "exact n=1": ["exact", "--beta", "2", "--a", "1", "--s", "4", "--n", "1"],
    "sweep": ["sweep", "--beta", "4", "--a", "1.5", "--s-min", "1", "--s-max", "4",
              "--s-count", "3"],
    "asympt": ["asympt", "--beta", "2", "--a", "1", "--s", "100"],
    "largedev": ["largedev", "--beta", "2", "--a", "1", "--N", "20", "--s", "0.3"],
    "contour dimension 1": ["contour", "--beta", "2", "--a", "1", "--s", "2"],
    "contour dimension 2": ["contour", "--beta", "1.3333333333333333", "--a", "3",
                            "--s", "1"],
    "contour torus": ["contour", "--beta", "2", "--a", "1", "--s", "2", "--route", "torus"],
    "mc": ["mc", "--beta", "2", "--a", "1", "--N", "20", "--s", "2", "--samples", "2000",
           "--seed", "11"],
    "check": ["check"],
    "report": ["report", "--beta", "2", "--a", "1"],
}


def test_no_subcommand_needs_scipy() -> None:
    # scipy is blocked before betagap is imported, so any import of it
    # raises ImportError; each call reports its exit code or its error.
    script = f"""
import contextlib, io, json, sys
sys.modules["scipy"] = None
from betagap.cli import main
outcomes = {{}}
for name, argv in {_NO_SCIPY_CALLS!r}.items():
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            outcomes[name] = main(argv)
    except Exception as exc:
        outcomes[name] = repr(exc)
print(json.dumps(outcomes))
"""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=300
    )
    assert json.loads(result.stdout) == dict.fromkeys(_NO_SCIPY_CALLS, 0)


def test_oracles_import_only_enumeration_and_errors() -> None:
    # tests/oracles.py checks JackTable, the strip table and the series'
    # coefficient layers, so it takes from betagap only the partition
    # enumeration and the error types.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    taken = [
        f"{node.module}.{alias.name}" if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    allowed = ("betagap.partitions.partitions_of_weight", "betagap.errors")
    stray = [name for name in taken if name.startswith("betagap") and not name.startswith(allowed)]
    assert stray == []
