"""Every name a module lists in ``__all__`` exists, no ``__all__`` lists a
function beside its log twin, no public function takes a formula switch,
no closed form has a second copy, two-value series have one evaluator,
cached layers have one locked build loop, each route's end is decided
once, no eigensolver or scalar Vandermonde is back, neither importing the
package nor any subcommand needs scipy or (single-threaded) the thread
pool, and the test oracles share no code with the package."""

from __future__ import annotations

import ast
import importlib
import inspect
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


def test_no_public_formula_switch() -> None:
    # Each public function computes one formula, and alternative readings
    # are test references.  asymptotic_E0's variants are the exponents that
    # `betagap asympt --variant` and `report` arbitrate between.
    public = {name: getattr(betagap, name) for name in betagap.__all__ if name != "asymptotic_E0"}
    found = [
        f"{name}({param})"
        for name, obj in public.items()
        if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, Exception))
        for param in inspect.signature(obj).parameters
        if param in ("variant", "route", "prefactor")
    ]
    assert found == []


def _defined_or_imported(retired: set[str]) -> list[str]:
    """Each place a package module defines, imports or assigns a name in
    ``retired``, as ``"<file>: <name>"``."""
    source = Path(betagap.__file__).parent
    found = []
    for path in sorted(source.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name in retired]
    return found


def test_no_per_partition_pair_table() -> None:
    # Two-value series contract their argument out of cached layer sums
    # (hypergeom._Contraction); the per-partition pair tables they replaced
    # must not come back beside them.
    retired = {"JackPairTable", "JackPairIntegral"}
    assert _defined_or_imported(retired) == []
    assert retired.isdisjoint(importlib.import_module("betagap.jack").__all__)


def test_no_second_copy_of_a_closed_form() -> None:
    # Each closed form is stated once: the characteristic-polynomial moment
    # is exp(linstat_mean + linstat_variance / 2), the E(n) / E(0) form is
    # asymptotic_En minus asymptotic_E0, the duality constants are the
    # c_const entries of duality_check, the large-gap form is built only
    # by asymptotic_En (asymptotic_E0 is its n = 0 case), and the contents
    # of C_kappa(1^n) are the Pochhammer symbol [n/alpha]_kappa times
    # alpha**k, read from the same tables as every other parameter.
    retired = {
        "char_poly_moment_asympt",
        "asymptotic_En_ratio",
        "log_duality_constants",
        "_content_log_sums",
    }
    assert _defined_or_imported(retired) == []
    builders = []
    for path in sorted(Path(betagap.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            builders += [
                f"{path.stem}.{getattr(statement, 'name', '<module>')}"
                for node in ast.walk(statement)
                if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", "")) == "AsymptoticForm"
            ]
    assert builders == ["gap.asymptotic_En"]
    exported = [
        f"{module}: {name}"
        for module in ["betagap"] + [f"betagap.{m}" for m in _SUBMODULES]
        for name in getattr(importlib.import_module(module), "__all__", ())
        if name in retired
    ]
    assert exported == []


def test_no_eigensolver_or_scalar_vandermonde() -> None:
    # The Monte Carlo route only counts eigenvalues below a threshold
    # (mc._count_below), and a folded quadrature level forms its Vandermonde
    # factors over its index array; the bisection eigensolver and the
    # per-tuple Vandermonde they replaced must not come back.
    retired = {"smallest_eigenvalues", "sample_smallest", "_bisect", "_vandermonde"}
    assert _defined_or_imported(retired) == []
    assert retired.isdisjoint(betagap.__all__)
    assert retired.isdisjoint(importlib.import_module("betagap.mc").__all__)


def test_one_end_rule_per_route() -> None:
    # A series' weight ceiling is decided in hypergeom alone (a terminating
    # series has none by default), so no route restates a degree; every
    # circle route, closed forms included, ends in
    # contour._scaled_probability, so no second range check comes back.
    assigned = _defined_or_imported({"max_weight"})
    assert assigned and all(place.startswith("hypergeom.py: ") for place in assigned)
    assert _defined_or_imported({"_probability"}) == []


def test_one_locked_layer_loop() -> None:
    # Every cached layer table builds its layers in jack._Layers, the one
    # place a lock is made, and a series reads its coefficient entry from
    # its layer source, so _sum_layers takes no second one beside it (only
    # the spec's t_power, a number).
    source = Path(betagap.__file__).parent
    locks, sum_layers = [], []
    for path in sorted(source.glob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            owner = f"{path.stem}.{getattr(statement, 'name', '<module>')}"
            for node in ast.walk(statement):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", ""))
                    if name in ("Lock", "RLock"):
                        locks.append(owner)
                elif isinstance(node, ast.FunctionDef) and node.name == "_sum_layers":
                    sum_layers.append([arg.arg for arg in node.args.args + node.args.kwonlyargs])
    assert locks == ["jack._Layers"]
    assert sum_layers == [["source", "members", "tol", "max_weight", "t_power"]]


def test_import_loads_no_scipy() -> None:
    # scipy is not a runtime dependency: the quadrature rules and the
    # Hurwitz zeta are the package's own (see test_no_subcommand_needs_scipy).
    script = "import sys, betagap; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=60
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["betagap", "betagap.cli"])
def test_import_loads_no_thread_pool(module: str) -> None:
    # Only mc --threads > 1 uses a thread pool, so a single-threaded process
    # does not pay for concurrent.futures and the logging it imports.
    script = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))"
    )
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
    # scipy, and the thread pool that only mc --threads > 1 uses, are
    # blocked before betagap is imported, so any import of either raises
    # ImportError; each call reports its exit code or its error.
    script = f"""
import contextlib, io, json, sys
sys.modules["scipy"] = sys.modules["concurrent.futures"] = None
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
