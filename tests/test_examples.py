"""Smoke tests: the API examples run cleanly as scripts.

Each example runs in a fresh interpreter with ``DeprecationWarning``
raised as an error, so an example that drifts onto a deprecated path
fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["simulate_api.py", "custom_platform.py"])
def test_example_runs_without_deprecations(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [
            sys.executable,
            "-W", "error::DeprecationWarning",
            str(ROOT / "examples" / script),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "makespan" in proc.stdout
