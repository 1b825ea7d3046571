"""BENCH report files: writing, calibration, and regression gating.

A report is one JSON document (schema ``repro.bench/1``)::

    {
      "schema": "repro.bench/1",
      "created": "2026-08-06T12:00:00+00:00",
      "mode": "full" | "smoke",
      "calibration_s": 0.41,
      "entries": [ {<micro/macro result>}, ... ]
    }

``calibration_s`` is the wall time of a fixed, deterministic solver
workload measured on the same machine as the benchmarks.  Regression
checks compare *calibrated* wall times (``wall_s / calibration_s``), so
a committed baseline from one machine still gates CI runners of a
different speed; only genuine slowdowns relative to the machine's own
solver throughput fail the build.
"""

from __future__ import annotations

import datetime
import json
from pathlib import Path
from typing import Optional

from repro.bench.micro import make_workload, run_micro

BENCH_SCHEMA = "repro.bench/1"

#: Fixed workload whose wall time defines one "machine unit".
_CALIBRATION_WINDOW = 64
_CALIBRATION_SEED = 1234


def calibrate() -> float:
    """Measure this machine's speed factor (seconds per calibration run)."""
    workload = make_workload(
        _CALIBRATION_WINDOW, seed=_CALIBRATION_SEED, name="calibration"
    )
    result = run_micro(workload, repeats=3)
    # The oracle replay dominates and is pure solver arithmetic — a good
    # proxy for how fast this machine runs the simulator's inner loops.
    return result.oracle_wall_s


def write_report(
    entries: list[dict],
    calibration_s: float,
    mode: str,
    path: "str | Path | None" = None,
    directory: "str | Path" = "benchmarks",
) -> Path:
    """Write a BENCH report; default name ``BENCH_<date>.json``."""
    if path is None:
        date = datetime.date.today().isoformat()  # lint: ignore[SIM001] — report file name
        path = Path(directory) / f"BENCH_{date}.json"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    now = datetime.datetime.now(datetime.timezone.utc)  # lint: ignore[SIM001] — report provenance stamp
    report = {
        "schema": BENCH_SCHEMA,
        "created": now.isoformat(timespec="seconds"),
        "mode": mode,
        "calibration_s": calibration_s,
        "entries": entries,
    }
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def load_report(path: "str | Path") -> dict:
    report = json.loads(Path(path).read_text())
    if report.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: not a {BENCH_SCHEMA} report "
            f"(schema={report.get('schema')!r})"
        )
    return report


#: Relative tolerance (of the baseline makespan) for schedule agreement.
SCHEDULE_REL_TOL = 1e-9


def check_against(
    current: dict, baseline: dict, tolerance: float = 0.25
) -> list[dict]:
    """Compare two reports' macro entries; return regression records.

    An entry regresses when its calibrated wall time exceeds the
    baseline's by more than ``tolerance`` (relative), or when both carry
    a per-task schedule and a task's host differs or its start/end moved
    by more than :data:`SCHEDULE_REL_TOL` of the makespan.  Entries are
    matched by ``(name, allocator)``; entries missing from the baseline
    are informational only (new benchmarks can't regress).

    Each returned record is machine-readable::

        {"name": ..., "allocator": ..., "metric": "wall_s",
         "measured_units": ..., "baseline_units": ...,
         "ratio": measured/baseline, "tolerance": ...}
        {"name": ..., "allocator": ..., "metric": "schedule",
         "tasks": <differing tasks>, "first": <one of them>}

    so callers can both render it (:func:`format_regression`) and emit
    it as JSON for harnesses.
    """
    failures: list[dict] = []
    base_cal = baseline["calibration_s"]
    cur_cal = current["calibration_s"]
    if base_cal <= 0 or cur_cal <= 0:
        raise ValueError("calibration_s must be positive in both reports")
    baseline_by_key = {
        (e["name"], e.get("allocator")): e
        for e in baseline["entries"]
        if e["kind"] == "macro"
    }
    for entry in current["entries"]:
        if entry["kind"] != "macro":
            continue
        base = baseline_by_key.get((entry["name"], entry.get("allocator")))
        if base is None:
            continue
        differing = _schedule_differences(entry, base)
        if differing:
            failures.append(
                {
                    "name": entry["name"],
                    "allocator": entry.get("allocator"),
                    "metric": "schedule",
                    "tasks": len(differing),
                    "first": differing[0],
                }
            )
        current_units = entry["wall_s"] / cur_cal
        base_units = base["wall_s"] / base_cal
        if current_units > base_units * (1.0 + tolerance):
            failures.append(
                {
                    "name": entry["name"],
                    "allocator": entry.get("allocator"),
                    "metric": "wall_s",
                    "measured_units": current_units,
                    "baseline_units": base_units,
                    "ratio": current_units / base_units,
                    "tolerance": tolerance,
                }
            )
    return failures


def _schedule_differences(entry: dict, base: dict) -> list[str]:
    """Tasks whose ``(start, end, host)`` disagree between two entries."""
    got = entry.get("schedule")
    want = base.get("schedule")
    if not got or not want:
        return []
    scale = SCHEDULE_REL_TOL * max(abs(base["makespan"]), 1.0)
    differing = sorted(set(got) ^ set(want))
    for task in sorted(set(got) & set(want)):
        (start, end, host), (b_start, b_end, b_host) = got[task], want[task]
        if host != b_host or abs(start - b_start) > scale or abs(end - b_end) > scale:
            differing.append(task)
    return differing


def format_regression(failure: dict) -> str:
    """One human-readable line for a :func:`check_against` record."""
    if failure["metric"] == "schedule":
        return (
            f"{failure['name']} [{failure['allocator']}]: schedule of "
            f"{failure['tasks']} task(s) differs from the baseline "
            f"(first: {failure['first']})"
        )
    return (
        f"{failure['name']} [{failure['allocator']}]: wall_s "
        f"{failure['measured_units']:.2f} machine units vs baseline "
        f"{failure['baseline_units']:.2f} "
        f"({failure['ratio']:.2f}x, tolerance {failure['tolerance']:.0%})"
    )
