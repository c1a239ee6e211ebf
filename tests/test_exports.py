"""Every name a module lists in ``__all__`` exists, no ``__all__`` lists a
function beside its log twin, and importing the package loads no scipy."""

from __future__ import annotations

import importlib
import pkgutil
import subprocess
import sys

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
    # scipy is imported where a quadrature rule or a Hurwitz zeta is used,
    # never by the series routes.
    script = "import sys, betagap; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=60
    )
    assert result.stdout.strip() == "[]"
