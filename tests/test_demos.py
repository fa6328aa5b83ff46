"""Every demo runs to completion: a subprocess per script, exit code 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SLOW = {"05_acoustic_quickstart.py", "06_optical_quickstart.py"}  # 15-20 s each


@pytest.mark.parametrize("demo", [
    pytest.param(p, id=p.stem, marks=[pytest.mark.slow] if p.name in SLOW else [])
    for p in DEMOS])
def test_demo_runs(demo):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
