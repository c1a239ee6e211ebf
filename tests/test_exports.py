"""Every name a module lists in ``__all__`` exists."""

from __future__ import annotations

import importlib
import pkgutil

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
