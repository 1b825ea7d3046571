"""Unit and integration tests for the sweep runner."""

import json
import multiprocessing  # lint: ignore[SIM050] — reads active_children(); spawns nothing

import pytest

import tests.sweep.points as points_module
from repro.sweep import (
    SweepCache,
    SweepError,
    SweepOptions,
    SweepSpec,
    SweepTelemetry,
    run_sweep,
)
from repro.sweep.runner import _canonical


def _spec(xs=(1, 2, 3), func="tests.sweep.points:square", **kwargs):
    return SweepSpec.cartesian("demo", func, axes={"x": list(xs)}, **kwargs)


# ----------------------------------------------------------------------
# Serial path
# ----------------------------------------------------------------------
def test_serial_run_values_in_point_id_order():
    outcome = run_sweep(_spec([3, 1, 2]))
    assert [p.point_id for p in outcome.points] == ["x=1", "x=2", "x=3"]
    assert outcome.values() == {"x=1": 1, "x=2": 4, "x=3": 9}
    assert outcome.count("completed") == 3


def test_values_are_canonicalized():
    outcome = run_sweep(_spec([1], func="tests.sweep.points:tupled"))
    # Tuples became lists exactly once, matching what a cache read or a
    # pickled worker result would contain.
    assert outcome.values()["x=1"] == {"pair": [1, 2], "one": [1]}


def test_canonical_rejects_non_json():
    with pytest.raises(SweepError, match="JSON"):
        _canonical({1, 2})
    with pytest.raises(SweepError, match="JSON"):
        _canonical(float("nan"))
    with pytest.raises(SweepError, match="JSON"):
        run_sweep(_spec([1], func="tests.sweep.points:unjsonable"))


def test_argument_validation():
    spec = _spec([1])
    with pytest.raises(ValueError):
        run_sweep(spec, workers=0)


def test_failure_strict_raises():
    with pytest.raises(SweepError, match="boom on 1"):
        run_sweep(_spec([1], func="tests.sweep.points:boom"))


def test_failure_lenient_records_outcome():
    outcome = run_sweep(
        _spec([1, 2], func="tests.sweep.points:boom"), strict=False
    )
    assert outcome.count("failed") == 2
    assert "boom" in outcome.failed[0].error


# ----------------------------------------------------------------------
# Cache integration
# ----------------------------------------------------------------------
def test_cached_rerun_executes_nothing(tmp_path, monkeypatch):
    spec = _spec([1, 2, 3])
    cache = SweepCache(tmp_path / "cache")
    first = run_sweep(spec, cache=cache)
    assert first.count("completed") == 3

    # If any point escaped the cache, this would blow up the re-run.
    def explode(params):
        raise AssertionError("point function invoked on a cached re-run")

    monkeypatch.setattr(points_module, "square", explode)
    second = run_sweep(spec, cache=SweepCache(tmp_path / "cache"))
    assert second.count("cached") == 3
    assert second.count("completed") == 0
    assert second.values() == first.values()
    assert json.dumps(second.values(), sort_keys=True) == json.dumps(
        first.values(), sort_keys=True
    )


def test_version_bump_invalidates_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    run_sweep(_spec([1]), cache=SweepCache(cache_dir))
    outcome = run_sweep(
        _spec([1], version=2), cache=SweepCache(cache_dir)
    )
    assert outcome.count("completed") == 1
    assert outcome.count("cached") == 0


def test_telemetry_counts_and_stats(tmp_path):
    spec = _spec([1, 2])
    cache = SweepCache(tmp_path / "cache")
    telemetry = SweepTelemetry("demo")
    run_sweep(spec, cache=cache, telemetry=telemetry)
    assert telemetry.completed.value == 2
    assert telemetry.snapshot()["cache_hit_ratio"] == 0.0

    telemetry2 = SweepTelemetry("demo")
    run_sweep(spec, cache=SweepCache(tmp_path / "cache"), telemetry=telemetry2)
    assert telemetry2.cached.value == 2
    snapshot = telemetry2.snapshot()
    assert snapshot["cache_hit_ratio"] == 1.0
    assert snapshot["schema"] == "repro.sweep.stats/1"
    assert snapshot["counters"]["sweep.points_cached"] == 2
    assert snapshot["sweep_id"] == "demo"


# ----------------------------------------------------------------------
# Parallel path
# ----------------------------------------------------------------------
def test_parallel_matches_serial():
    spec = _spec([1, 2, 3, 4, 5])
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=3)
    assert json.dumps(serial.values(), sort_keys=True) == json.dumps(
        parallel.values(), sort_keys=True
    )


def test_parallel_non_json_value_is_per_point_failure():
    """Regression: a non-JSON point value used to escape the parallel
    path's bookkeeping and abort the sweep mid-flight; it must be an
    ordinary per-point failure exactly like on the serial path."""
    outcome = run_sweep(
        _spec([1, 2], func="tests.sweep.points:unjsonable"),
        workers=2,
        strict=False,
    )
    assert outcome.count("failed") == 2
    assert all("JSON" in p.error for p in outcome.failed)
    with pytest.raises(SweepError, match="JSON"):
        run_sweep(_spec([1], func="tests.sweep.points:unjsonable"), workers=2)


def test_parallel_failure_strict_raises():
    with pytest.raises(SweepError, match="failed"):
        run_sweep(_spec([1, 2], func="tests.sweep.points:boom"), workers=2)


def test_parallel_worker_crash_fails_the_sweep(tmp_path):
    """A worker that dies (segfault, OOM kill) fails the whole sweep,
    naming the point, and leaves no worker process behind."""
    with pytest.raises(SweepError, match=r"died while running point\(s\) .*x=2"):
        run_sweep(_spec([1, 2, 3], func="tests.sweep.points:dies"),
                  workers=2, live_dir=tmp_path / "live")
    assert multiprocessing.active_children() == []
    heartbeat = json.loads((tmp_path / "live" / "heartbeat.json").read_text())
    assert heartbeat["closed"] is True


def test_parallel_workers_serve_many_points():
    """Six points on two workers run in at most two processes, so a
    worker's memos outlive the point that filled them."""
    outcome = run_sweep(_spec(range(6), func="tests.sweep.points:worker_pid"),
                        workers=2)
    assert outcome.count("completed") == 6
    assert len(set(outcome.values().values())) <= 2


# ----------------------------------------------------------------------
# Per-point telemetry directories
# ----------------------------------------------------------------------
def test_obs_dirs_created_with_manifests(tmp_path):
    obs = tmp_path / "obs"
    outcome = run_sweep(_spec([1, 2]), obs_dir=obs)
    assert outcome.count("completed") == 2
    for pid in ("x=1", "x=2"):
        manifest = json.loads((obs / pid / "point.manifest.json").read_text())
        assert manifest["point_id"] == pid
        assert manifest["status"] == "completed"
        assert manifest["manifest"]["sweep"]["sweep_id"] == "demo"


def test_obs_collision_fails_fast(tmp_path):
    obs = tmp_path / "obs"
    run_sweep(_spec([1]), obs_dir=obs)
    with pytest.raises(SweepError, match="collision"):
        run_sweep(_spec([1]), obs_dir=obs)


def test_pass_obs_dir_hands_directory_to_point(tmp_path):
    obs = tmp_path / "obs"
    spec = SweepSpec(
        sweep_id="demo",
        func="tests.sweep.points:writes_obs",
        points=({"x": 7},),
        pass_obs_dir=True,
    )
    outcome = run_sweep(spec, obs_dir=obs)
    assert outcome.values()["x=7"] == 7
    assert (obs / "x=7" / "marker.txt").read_text() == "7"


def test_sweep_options_round_trip(tmp_path):
    options = SweepOptions(workers=1, cache_dir=tmp_path / "cache")
    outcome = options.run(_spec([1, 2]))
    assert outcome.count("completed") == 2
    again = SweepOptions(workers=1, cache_dir=tmp_path / "cache").run(_spec([1, 2]))
    assert again.count("cached") == 2
