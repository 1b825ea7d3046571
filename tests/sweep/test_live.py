"""Sweep live stream (a LiveBus fed by SweepTelemetry) and in-flight/latency telemetry."""

import json

import pytest

from repro.obs.cli import point_durations, sweep_view
from repro.obs.live import LIVE_SCHEMA, LiveBus
from repro.obs.log import iter_ndjson
from repro.obs.probes import quantile
from repro.obs.validate import validate_live_dir
from repro.sweep import SweepError, SweepSpec, SweepTelemetry, run_sweep


def _spec(xs=(1, 2, 3), func="tests.sweep.points:square", **kwargs):
    return SweepSpec.cartesian("demo", func, axes={"x": list(xs)}, **kwargs)


def _stream(live_dir):
    records = list(iter_ndjson(live_dir / "events.ndjson"))
    assert records[0] == {"schema": LIVE_SCHEMA}
    return records[1:]


# ----------------------------------------------------------------------
# Live stream contents
# ----------------------------------------------------------------------
def test_serial_run_streams_point_lifecycle(tmp_path):
    run_sweep(_spec(), live_dir=tmp_path / "live")
    records = _stream(tmp_path / "live")
    assert [r["kind"] for r in records] == [
        "point_started", "point_completed",
        "point_started", "point_completed",
        "point_started", "point_completed",
        "sweep_done",
    ]
    assert [r.get("point_id") for r in records[:-1:2]] == ["x=1", "x=2", "x=3"]
    assert all(r["sweep_id"] == "demo" for r in records)
    assert all("duration" in r for r in records
               if r["kind"] == "point_completed")
    final = records[-1]["progress"]
    assert final["completed"] == 3 and final["in_flight"] == 0
    heartbeat = json.loads((tmp_path / "live" / "heartbeat.json").read_text())
    assert heartbeat["closed"] is True
    assert heartbeat["schema"] == LIVE_SCHEMA
    assert sweep_view(records)[2] == {}
    assert validate_live_dir(tmp_path / "live") == []


def test_parallel_run_streams_every_point(tmp_path):
    run_sweep(_spec([1, 2, 3, 4]), workers=4, live_dir=tmp_path / "live")
    records = _stream(tmp_path / "live")
    started = {r["point_id"] for r in records if r["kind"] == "point_started"}
    completed = {
        r["point_id"] for r in records if r["kind"] == "point_completed"
    }
    assert started == completed == {"x=1", "x=2", "x=3", "x=4"}
    assert records[-1]["kind"] == "sweep_done"
    assert validate_live_dir(tmp_path / "live") == []


def test_failures_are_streamed(tmp_path):
    with pytest.raises(SweepError):
        run_sweep(
            _spec([1], func="tests.sweep.points:boom"),
            live_dir=tmp_path / "live",
        )
    records = _stream(tmp_path / "live")
    assert [r["kind"] for r in records] == [
        "point_started", "point_failed", "sweep_done",
    ]
    assert "boom on 1" in records[1]["error"]


def test_serial_and_parallel_stream_the_same_failure_records(tmp_path):
    streams = []
    for workers in (1, 2):
        live = tmp_path / f"w{workers}"
        with pytest.raises(SweepError):
            run_sweep(
                _spec([1], func="tests.sweep.points:boom"),
                workers=workers, live_dir=live,
            )
        records = _stream(live)
        for record in records:
            record.pop("ts")
            assert isinstance(record.pop("duration", 0.0), float)
        streams.append(records)
    assert streams[0] == streams[1]


def test_cached_points_are_streamed(tmp_path):
    from repro.sweep import SweepCache

    cache = SweepCache(tmp_path / "cache")
    run_sweep(_spec(), cache=cache)
    run_sweep(_spec(), cache=cache, live_dir=tmp_path / "live")
    records = _stream(tmp_path / "live")
    assert [r["kind"] for r in records] == ["point_cached"] * 3 + ["sweep_done"]
    assert records[-1]["progress"]["cached"] == 3


def test_sweep_without_live_dir_writes_nothing(tmp_path):
    run_sweep(_spec())
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Telemetry: in-flight gauge and latency histogram
# ----------------------------------------------------------------------
def test_point_seconds_histogram_feeds_stats(tmp_path):
    telemetry = SweepTelemetry("demo")
    run_sweep(_spec(), telemetry=telemetry)
    assert telemetry.point_seconds.count == 3
    assert telemetry.point_latency(0.5) is not None
    snap = telemetry.snapshot()
    assert "sweep.point_seconds" in snap["histograms"]
    assert snap["point_latency"]["p50"] is not None
    assert snap["point_latency"]["p99"] is not None
    assert snap["gauges"]["sweep.points_in_flight"] == 0.0


def test_in_flight_gauge_returns_to_zero_parallel():
    telemetry = SweepTelemetry("demo")
    run_sweep(_spec([1, 2, 3, 4]), workers=2, telemetry=telemetry)
    assert telemetry.in_flight.value == 0.0
    assert telemetry.point_seconds.count == 4


def test_point_latency_is_nearest_rank_of_raw_durations():
    telemetry = SweepTelemetry("demo")
    for duration in (0.6, 0.8, 0.7):
        telemetry.observe_point(duration)
    assert telemetry.point_latency(0.5) == 0.7
    assert telemetry.snapshot()["point_latency"] == {"p50": 0.7, "p99": 0.8}


def test_stats_p50_equals_the_live_stream_p50(tmp_path):
    """``--stats-json`` and ``repro-obs watch`` report one p50."""
    telemetry = SweepTelemetry("demo")
    run_sweep(_spec([1, 2, 3, 4, 5]), live_dir=tmp_path / "live",
              telemetry=telemetry)
    durations = point_durations(_stream(tmp_path / "live"))
    assert len(durations) == 5
    assert telemetry.snapshot()["point_latency"]["p50"] == quantile(durations, 0.5)


def test_stats_schema_is_unchanged():
    # The stats export schema is pinned: histograms/latency are additive.
    snap = SweepTelemetry("demo").snapshot()
    assert snap["schema"] == "repro.sweep.stats/1"
    assert {"counters", "gauges", "histograms", "point_latency",
            "cache_hit_ratio"} <= set(snap)


# ----------------------------------------------------------------------
# Bus attached to the campaign telemetry
# ----------------------------------------------------------------------
def test_writer_tracks_in_flight_and_closes_once(tmp_path):
    telemetry = SweepTelemetry("demo")
    clock = iter(range(100)).__next__
    bus = telemetry.attach_bus(
        LiveBus(tmp_path, flush_every=1, clock=lambda: float(clock()))
    )
    telemetry.record("point_started", "x=1", attempt=1)
    heartbeat = json.loads((tmp_path / "heartbeat.json").read_text())
    assert heartbeat["closed"] is False
    assert sweep_view(_stream(tmp_path))[2] == {"x=1": 0.0}
    telemetry.record("point_completed", "x=1", duration=1.0)
    telemetry.record("sweep_done")
    bus.close()
    bus.close()  # idempotent
    telemetry.record("point_started", "x=2")  # ignored after close
    heartbeat = json.loads((tmp_path / "heartbeat.json").read_text())
    assert heartbeat["closed"] is True
    assert heartbeat["sim_time"] is None  # a sweep has no simulated clock
    assert sweep_view(_stream(tmp_path))[2] == {}
    events = [r["kind"] for r in _stream(tmp_path)]
    assert events == ["point_started", "point_completed", "sweep_done"]


def test_telemetry_rejects_a_second_open_bus(tmp_path):
    telemetry = SweepTelemetry("demo")
    first = telemetry.attach_bus(LiveBus(tmp_path / "a"))
    with pytest.raises(ValueError, match="another live bus"):
        telemetry.attach_bus(LiveBus(tmp_path / "b"))
    first.close()
    telemetry.attach_bus(LiveBus(tmp_path / "b"))  # a closed bus is replaced


def test_sweep_cli_live_flag(tmp_path, capsys):
    from repro.experiments.cli import main

    code = main([
        "fig13", "--quick", "--no-cache",
        "--live", str(tmp_path / "live"),
        "--stats-json", str(tmp_path / "stats.json"),
    ])
    assert code == 0
    assert "[fig13: 12 points — 12 ran, 0 cached, 0 failed — " in (
        capsys.readouterr().out
    )
    live = tmp_path / "live" / "fig13"
    heartbeat = json.loads((live / "heartbeat.json").read_text())
    assert heartbeat["closed"] is True
    records = _stream(live)
    assert records[-1]["kind"] == "sweep_done"
    assert records[-1]["progress"]["failed"] == 0
    assert validate_live_dir(live) == []
    stats = json.loads((tmp_path / "stats.json").read_text())["fig13"]
    assert stats["counters"]["sweep.points_completed"] == 12


def test_experiments_cli_lists_points(capsys):
    from repro.experiments.cli import main

    assert main(["table1", "fig13", "--quick", "--list-points"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("fig13 (12 points, version ")
    assert lines[1] == "  fraction=0.0,n_chromosomes=6,system=cori"
    assert len(lines) == 13  # table1 has no sweep spec: nothing listed
