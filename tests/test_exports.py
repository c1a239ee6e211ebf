"""Every name a module lists in ``__all__`` exists; importing the package loads no scipy."""

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


def test_import_loads_no_scipy() -> None:
    # scipy is imported where a quadrature rule, a Hurwitz zeta or a
    # tridiagonal eigensolver is used, never by the series routes.
    script = "import sys, betagap; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=60
    )
    assert result.stdout.strip() == "[]"
