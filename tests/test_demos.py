"""Smoke test: every script in demos/ runs to completion."""
import os
from pathlib import Path
import subprocess
import sys

import pytest

import dpdkit

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(dpdkit.__file__).resolve().parent.parent)


def test_all_demos_are_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
