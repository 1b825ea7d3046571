"""The paired wall-time gate's extra rule (``scripts/e2e_gate.py``)."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "e2e_gate", ROOT / "scripts" / "e2e_gate.py"
)
e2e_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_gate)


def _runs(tmp_path, side, walls):
    paths = []
    for i, wall in enumerate(walls, 1):
        result = {
            "workload": "genomes-full", "correct": True,
            "attempted": 5, "failed": 0,
            "metrics": {
                "wall_s": {"value": wall, "unit": "s"},
                "tasks_per_s": {"value": 903 / wall, "unit": "1/s"},
            },
        }
        path = tmp_path / f"{side}-{i}.json"
        path.write_text(json.dumps({"results": [result]}))
        paths.append(str(path))
    return paths


def test_a_wide_spread_does_not_hide_a_clear_regression(tmp_path):
    parent = _runs(tmp_path, "parent", [0.23, 0.32, 0.26, 0.22, 0.30])
    change = _runs(tmp_path, "change", [0.37, 0.49, 0.40, 0.33, 0.45])
    found = e2e_gate.clear_regressions(parent, change)
    assert [line.split(":")[0] for line in found] == [
        "genomes-full tasks_per_s", "genomes-full wall_s",
    ]


def test_a_won_pair_drift_or_a_small_slowdown_pass(tmp_path):
    parent = _runs(tmp_path, "parent", [0.23, 0.32, 0.26, 0.22, 0.30])
    won_one = _runs(tmp_path, "won", [0.37, 0.30, 0.40, 0.33, 0.45])
    assert e2e_gate.clear_regressions(parent, won_one) == []
    # Lost every pair and the medians of the sides are 32% apart, but
    # the median pair is only 12% worse: the machine drifted.
    parent_2 = _runs(tmp_path, "parent2", [0.247, 0.316, 0.262, 0.264, 0.343])
    drift = _runs(tmp_path, "drift", [0.254, 0.353, 0.348, 0.364, 0.345])
    assert e2e_gate.clear_regressions(parent_2, drift) == []
    slower = _runs(tmp_path, "slower", [0.25, 0.34, 0.28, 0.24, 0.32])
    assert e2e_gate.clear_regressions(parent, slower) == []
