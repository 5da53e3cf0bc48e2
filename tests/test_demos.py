"""Smoke test: every script in demos/ and the README quick start run to completion."""
import os
from pathlib import Path
import re
import subprocess
import sys

import pytest

import dpdkit

REPO_ROOT = Path(__file__).parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(dpdkit.__file__).resolve().parent.parent)


def test_all_demos_are_collected():
    assert len(DEMOS) == 4


def _run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(script, tmp_path):
    result = _run_python([str(script)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_exits_zero(tmp_path):
    readme = (REPO_ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    result = _run_python(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr
    nmse_db, depth = result.stdout.split()
    assert float(nmse_db) < -50 and int(depth) >= 0
