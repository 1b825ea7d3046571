"""Tests for the repro.bench harness (workloads, agreement, gating)."""

import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    check_against,
    run_micro,
    write_report,
)
from repro.bench.micro import MicroResult, _check_agreement, make_workload
from repro.bench.report import load_report


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
def test_workload_is_deterministic():
    a = make_workload(16, seed=3)
    b = make_workload(16, seed=3)
    assert a == b
    assert make_workload(16, seed=4).events != a.events


def test_workload_keeps_window_bounded():
    workload = make_workload(10, n_events=60)
    live = 0
    peak = 0
    for event in workload.events:
        live += 1 if event[0] == "admit" else -1
        peak = max(peak, live)
    assert peak == 11  # one over the window, drained immediately


def test_workload_rejects_degenerate_window():
    with pytest.raises(ValueError, match="window"):
        make_workload(1)


# ----------------------------------------------------------------------
# run_micro: differential measurement
# ----------------------------------------------------------------------
def test_run_micro_agrees_and_measures():
    result = run_micro(make_workload(12, n_events=40), repeats=1)
    assert result.flows == 12
    assert result.events == len(make_workload(12, n_events=40).events)
    assert result.oracle_wall_s > 0
    assert result.incremental_wall_s > 0
    assert result.solver_calls > 0
    assert result.links_touched > 0
    assert result.speedup == result.oracle_wall_s / result.incremental_wall_s
    doc = result.as_dict()
    assert doc["wall_s"] == result.incremental_wall_s
    assert doc["speedup"] == result.speedup


def test_check_agreement_flags_divergence():
    with pytest.raises(AssertionError, match="flow 1 rate"):
        _check_agreement({1: 10.0}, {1: 11.0}, "demo")


# ----------------------------------------------------------------------
# Report round-trip and regression gating
# ----------------------------------------------------------------------
def _macro_entry(name, allocator, wall_s):
    return {
        "name": name,
        "kind": "macro",
        "allocator": allocator,
        "wall_s": wall_s,
        "makespan": 1.0,
        "events": 10,
        "solver_calls": 5,
        "links_touched": 20,
    }


def _report(calibration_s, wall_s):
    return {
        "schema": BENCH_SCHEMA,
        "created": "2026-08-06T00:00:00+00:00",
        "mode": "smoke",
        "calibration_s": calibration_s,
        "entries": [_macro_entry("fig13-point", "max-min", wall_s)],
    }


def test_write_and_load_report(tmp_path):
    path = write_report(
        [_macro_entry("fig13-point", "max-min", 1.0)],
        calibration_s=0.5,
        mode="smoke",
        path=tmp_path / "BENCH_test.json",
    )
    report = load_report(path)
    assert report["schema"] == BENCH_SCHEMA
    assert report["calibration_s"] == 0.5
    assert len(report["entries"]) == 1


def test_load_report_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "nope"}))
    with pytest.raises(ValueError, match="not a repro.bench/1 report"):
        load_report(path)


def test_check_against_passes_within_tolerance():
    baseline = _report(calibration_s=1.0, wall_s=10.0)
    current = _report(calibration_s=1.0, wall_s=12.0)  # +20% < 25%
    assert check_against(current, baseline, tolerance=0.25) == []


def test_check_against_fails_on_regression():
    baseline = _report(calibration_s=1.0, wall_s=10.0)
    current = _report(calibration_s=1.0, wall_s=13.0)  # +30% > 25%
    failures = check_against(current, baseline, tolerance=0.25)
    assert len(failures) == 1
    failure = failures[0]
    assert failure["name"] == "fig13-point"
    assert failure["allocator"] == "max-min"
    assert failure["metric"] == "wall_s"
    assert failure["measured_units"] == pytest.approx(13.0)
    assert failure["baseline_units"] == pytest.approx(10.0)
    assert failure["ratio"] == pytest.approx(1.3)
    assert failure["tolerance"] == 0.25
    # The record renders to a human line carrying the ratio, and is
    # JSON-serializable for the CLI's machine-readable output.
    from repro.bench import format_regression

    line = format_regression(failure)
    assert "fig13-point" in line and "1.30x" in line
    json.dumps(failure)


def test_check_against_cli_emits_json_line_and_fails(tmp_path, capsys):
    """``repro-bench --check-against`` on a regression exits nonzero,
    prints the measured-vs-baseline ratio, and emits one machine-
    readable JSON line."""
    from repro.bench.cli import main as bench_main

    # An impossibly fast committed baseline forces every macro entry to
    # regress regardless of this machine's speed.
    baseline = _report(calibration_s=1.0, wall_s=1e-9)
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps(baseline))
    code = bench_main(
        [
            "--smoke",
            "-o",
            str(tmp_path / "current.json"),
            "--check-against",
            str(baseline_path),
        ]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "PERFORMANCE REGRESSION" in captured.err
    assert "vs baseline" in captured.err and "x, tolerance" in captured.err
    json_lines = [
        json.loads(line)
        for line in captured.out.splitlines()
        if line.startswith("{")
    ]
    assert len(json_lines) == 1
    payload = json_lines[0]
    regressions = payload["bench_regressions"]
    assert any(
        r["name"] == "fig13-point" and r["allocator"] == "max-min"
        for r in regressions
    )
    for r in regressions:
        assert r["ratio"] > 1.0
        assert r["measured_units"] > r["baseline_units"]


def test_check_against_normalizes_by_calibration():
    """A slower machine (2x calibration, 2x wall) is not a regression."""
    baseline = _report(calibration_s=1.0, wall_s=10.0)
    current = _report(calibration_s=2.0, wall_s=20.0)
    assert check_against(current, baseline, tolerance=0.25) == []


def test_check_against_ignores_unknown_entries():
    baseline = _report(calibration_s=1.0, wall_s=10.0)
    current = _report(calibration_s=1.0, wall_s=99.0)
    current["entries"][0]["name"] = "brand-new-bench"
    assert check_against(current, baseline) == []


def test_check_against_flags_moved_schedule():
    """Wall time within tolerance, but one task ended later: a regression."""
    baseline = _report(calibration_s=1.0, wall_s=10.0)
    current = _report(calibration_s=1.0, wall_s=10.0)
    baseline["entries"][0]["schedule"] = {"a": [0.0, 1.0, "cn0"], "b": [1.0, 2.0, "cn0"]}
    current["entries"][0]["schedule"] = {"a": [0.0, 1.0, "cn0"], "b": [1.0, 2.5, "cn0"]}
    failures = check_against(current, baseline)
    assert [(f["metric"], f["tasks"], f["first"]) for f in failures] == [
        ("schedule", 1, "b")
    ]
    from repro.bench import format_regression

    assert "1 task(s) differs" in format_regression(failures[0])
    # Float noise far below 1e-9 of the makespan is not a change.
    current["entries"][0]["schedule"]["b"] = [1.0, 2.0 + 1e-13, "cn0"]
    assert check_against(current, baseline) == []


def test_macro_smoke_records_schedule():
    """One smoke macro entry per scenario, carrying its per-task
    schedule for the baseline comparison CI's bench step relies on."""
    from repro.bench import MACRO_ALLOCATORS, macro_benchmarks

    results = macro_benchmarks(smoke=True)
    assert MACRO_ALLOCATORS == ("max-min",)
    assert [(r.name, r.allocator) for r in results] == [("fig13-point", "max-min")]
    result = results[0]
    assert result.solver_calls > 0 and result.events > 0
    assert result.schedule and max(end for _, end, _ in result.schedule.values()) == (
        result.makespan
    )
