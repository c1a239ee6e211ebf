"""Each script in ``demos/`` runs to completion against the package under test."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import betagap

_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found() -> None:
    assert len(_DEMOS) >= 3


@pytest.mark.parametrize("demo", _DEMOS, ids=[path.stem for path in _DEMOS])
def test_demo_exits_0(demo: Path) -> None:
    src = str(Path(betagap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, check=False,
        timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
