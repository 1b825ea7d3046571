"""Smoke tests: every example runs cleanly as a script.

Each example runs in a fresh interpreter with ``DeprecationWarning``
raised as an error, so an example that drifts onto a deprecated path
fails here.  Each must also print its headline.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Example script -> text its output must contain.
HEADLINES = {
    "batch_interference.py": "slowdown",
    "calibration_workflow.py": "Calibration (Eq. 4)",
    "custom_platform.py": "makespan",
    "genomes_at_scale.py": "speedup(cori)",
    "placement_search.py": "makespan",
    "quickstart.py": "makespan",
    "simulate_api.py": "makespan",
    "swarp_characterization.py": "stage-in",
    "trace_analysis.py": "makespan",
}


def test_every_example_is_run():
    assert sorted(HEADLINES) == sorted(
        p.name for p in (ROOT / "examples").glob("*.py")
    )


@pytest.mark.parametrize("script", sorted(HEADLINES))
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
    assert HEADLINES[script] in proc.stdout
