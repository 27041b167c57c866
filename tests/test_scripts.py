"""The scripts under scripts/ run against the package as it stands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("singularity_profile.py", ["--skip-oracle", "--steps", "3"]),
    ("alpha_sweep.py", ["--count", "5", "--out", "{tmp}/alpha_sweep.csv"]),
])
def test_script_exits_cleanly(script, args, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    cmd = [sys.executable, str(ROOT / "scripts" / script)] + [a.format(tmp=tmp_path) for a in args]
    result = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
