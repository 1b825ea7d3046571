"""``repro-obs`` CLI: validate exit codes, watch rendering, HTML report."""

import itertools
import json

from repro.obs import LiveBus, Observer, export_run
from repro.obs.cli import main, quantile, sweep_eta
from repro.scenarios import run_swarp
from repro.sweep import SweepSpec, SweepTelemetry, run_sweep


def _clock(start=100.0):
    counter = itertools.count()
    return lambda: start + float(next(counter))


def _finished_sweep(tmp_path):
    spec = SweepSpec.cartesian(
        "demo", "tests.sweep.points:square", axes={"x": [1, 2, 3]}
    )
    telemetry = SweepTelemetry("demo")
    run_sweep(spec, live_dir=tmp_path / "live", telemetry=telemetry)
    return tmp_path / "live"


def _mid_flight_sweep(tmp_path):
    """A live dir as a crashed/running 4-worker sweep would leave it."""
    telemetry = SweepTelemetry("midflight")
    telemetry.total.set(8.0)
    telemetry.attach_bus(
        LiveBus(tmp_path / "live", flush_every=1, clock=_clock())
    )
    for pid in ("x=1", "x=2"):
        telemetry.record("point_started", pid, attempt=1)
        telemetry.completed.inc()
        telemetry.point_seconds.observe(1.5)
        telemetry.record("point_completed", pid, duration=1.5)
    telemetry.in_flight.set(4.0)
    for pid in ("x=3", "x=4", "x=5", "x=6"):
        telemetry.record("point_started", pid, attempt=1)
    return tmp_path / "live"  # never closed: heartbeat stays open


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------
def test_validate_subcommand_matches_module_validator(tmp_path, capsys):
    obs = Observer()
    run_swarp(n_pipelines=1, observer=obs)
    out = export_run(obs, tmp_path / "telemetry")
    assert main(["validate", str(out)]) == 0
    assert "ok" in capsys.readouterr().out
    assert main(["validate", str(tmp_path / "nope")]) == 1


# ----------------------------------------------------------------------
# watch
# ----------------------------------------------------------------------
def test_watch_once_on_finished_sweep(tmp_path, capsys):
    live = _finished_sweep(tmp_path)
    assert main(["watch", "--once", str(live)]) == 0
    frame = capsys.readouterr().out
    assert "sweep demo — DONE" in frame
    assert "3/3 points" in frame
    assert "3 completed" in frame
    assert "p50" in frame and "p99" in frame


def test_watch_once_on_mid_flight_sweep(tmp_path, capsys):
    live = _mid_flight_sweep(tmp_path)
    assert main(["watch", "--once", str(live)]) == 0
    frame = capsys.readouterr().out
    assert "2/8 points" in frame
    assert "in flight (4):" in frame
    assert "x=3 — running" in frame
    assert "ETA" in frame


def test_watch_once_on_simulation_live_dir(tmp_path, capsys):
    bus = LiveBus(tmp_path / "live", flush_every=16, clock=_clock())
    obs = Observer(bus=bus)
    run_swarp(n_pipelines=1, observer=obs)
    bus.close()
    assert main(["watch", "--once", str(tmp_path / "live")]) == 0
    frame = capsys.readouterr().out
    assert "DONE" in frame
    assert "sim time" in frame
    assert "dropped" in frame


def test_watch_rejects_non_live_directory(tmp_path, capsys):
    assert main(["watch", "--once", str(tmp_path)]) == 2
    assert "heartbeat" in capsys.readouterr().err


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def test_report_writes_self_contained_html(tmp_path, capsys):
    live = _finished_sweep(tmp_path)
    out = tmp_path / "report.html"
    assert main(["report", str(live), "-o", str(out)]) == 0
    html = out.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "Sweep demo" in html
    assert "✓ completed" in html            # status = icon + label, not color alone
    assert "prefers-color-scheme: dark" in html  # dark mode is selected, not flipped
    assert 'data-theme="dark"' in html
    assert "--series-1" in html
    assert "x=2" in html
    assert "<script" not in html            # static: no external or inline JS needed


def test_report_on_mid_flight_dir(tmp_path):
    live = _mid_flight_sweep(tmp_path)
    out = tmp_path / "report.html"
    assert main(["report", str(live), "-o", str(out)]) == 0
    html = out.read_text()
    assert "status: running" in html
    assert "• running" in html


def test_report_rejects_simulation_live_dir(tmp_path, capsys):
    bus = LiveBus(tmp_path / "live", clock=_clock())
    Observer(bus=bus)
    bus.close()
    assert main(["report", str(tmp_path / "live")]) == 2
    assert "sweep live directory" in capsys.readouterr().err


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def test_quantile_nearest_rank():
    assert quantile([], 0.5) is None
    assert quantile([3.0], 0.99) == 3.0
    assert quantile([1.0, 2.0, 3.0], 0.5) == 2.0
    samples = [float(i) for i in range(1, 102)]
    assert quantile(samples, 0.5) == 51.0
    assert quantile(samples, 0.99) == 100.0


def test_sweep_eta_scales_with_parallelism():
    progress = {"total": 10, "completed": 2, "cached": 0, "failed": 0,
                "in_flight": 4}
    eta = sweep_eta(progress, [2.0, 2.0])
    assert eta == 8 * 2.0 / 4
    assert sweep_eta({"total": 2, "completed": 2}, [1.0]) is None
    assert sweep_eta(progress, []) is None
