"""Exporter tests: Chrome trace shape, CSV layout, manifests, validation."""

import json

import pytest

from repro import des
from repro.obs import (
    MANIFEST_SCHEMA,
    Observer,
    build_manifest,
    chrome_trace,
    config_from_manifest,
    export_run,
    platform_digest,
    validate_chrome_trace,
    validate_manifest,
    validate_obs_dir,
    write_manifest,
    write_metric_csvs,
)
from repro.traces import TaskRecord


def observed_sample():
    """A small hand-driven observer with spans and metrics."""
    env = des.Environment()
    obs = Observer().attach(env)
    obs.on_storage_occupancy("bb", 100.0, 1000.0)
    env._now = 2.0
    obs.on_storage_occupancy("bb", 400.0, 1000.0)
    obs.on_storage_op("bb", "write", 300.0)
    env._now = 10.0
    obs.on_task_complete(
        TaskRecord(
            name="t", group="g", host="cn0", cores=4,
            start=0.0, read_start=0.0, read_end=2.0,
            compute_end=8.0, write_end=10.0, end=10.0,
        ),
        "compute",
    )
    return obs


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------
def test_chrome_trace_shape():
    doc = chrome_trace(observed_sample())
    events = doc["traceEvents"]
    metadata = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    counters = [e for e in events if e["ph"] == "C"]
    assert {m["args"]["name"] for m in metadata} == {"repro simulation", "cn0"}
    assert {s["name"] for s in spans} == {"t", "t:read", "t:compute", "t:write"}
    assert all(s["ts"] >= 0 and s["dur"] >= 0 for s in spans)
    # Timestamps are microseconds of simulated time.
    task = next(s for s in spans if s["name"] == "t")
    assert task["ts"] == 0.0
    assert task["dur"] == 10.0e6
    assert counters  # every series renders as a counter track
    assert doc["otherData"]["counters"]["storage.bb.write_ops"] == 1


def test_chrome_trace_is_time_sorted_and_valid():
    doc = chrome_trace(observed_sample())
    timestamps = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
    assert timestamps == sorted(timestamps)
    assert validate_chrome_trace(doc) == []


def test_validate_chrome_trace_catches_bad_docs():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "x"}]}) != []
    unsorted = {
        "traceEvents": [
            {"ph": "C", "name": "a", "ts": 5.0},
            {"ph": "C", "name": "b", "ts": 1.0},
        ]
    }
    assert any("time-sorted" in e for e in validate_chrome_trace(unsorted))
    unbalanced = {"traceEvents": [{"ph": "B", "name": "x", "ts": 0.0, "pid": 1, "tid": 1}]}
    assert any("unclosed" in e for e in validate_chrome_trace(unbalanced))
    stray_end = {"traceEvents": [{"ph": "E", "name": "x", "ts": 0.0, "pid": 1, "tid": 1}]}
    assert any("no open B" in e for e in validate_chrome_trace(stray_end))


# ----------------------------------------------------------------------
# CSV export
# ----------------------------------------------------------------------
def test_metric_csvs_layout(tmp_path):
    paths = write_metric_csvs(observed_sample(), tmp_path)
    names = {p.name for p in paths}
    assert {"index.csv", "counters.csv", "gauges.csv"} <= names
    index = dict(
        line.split(",", 1)
        for line in (tmp_path / "index.csv").read_text().splitlines()[1:]
    )
    assert "storage.bb.occupancy_bytes" in index
    series = (tmp_path / index["storage.bb.occupancy_bytes"]).read_text().splitlines()
    assert series[0] == "time,value"
    assert [tuple(map(float, row.split(","))) for row in series[1:]] == [
        (0.0, 100.0),
        (2.0, 400.0),
    ]


# ----------------------------------------------------------------------
# Empty and partially-populated registries
# ----------------------------------------------------------------------
def test_chrome_trace_on_fresh_observer():
    """An observer that never saw a hook still exports a valid trace."""
    doc = chrome_trace(Observer())
    assert validate_chrome_trace(doc) == []
    assert [e["ph"] for e in doc["traceEvents"]] == ["M"]  # process name only
    assert doc["otherData"]["counters"] == {}


def test_metric_csvs_on_fresh_observer(tmp_path):
    paths = write_metric_csvs(Observer(), tmp_path)
    names = {p.name for p in paths}
    assert {"index.csv", "counters.csv", "gauges.csv"} <= names
    # Every file is header-only: no metrics means no rows, not no files.
    assert (tmp_path / "index.csv").read_text().splitlines()[1:] == []
    assert (tmp_path / "counters.csv").read_text().splitlines()[1:] == []


def test_export_run_on_fresh_observer(tmp_path):
    out = export_run(Observer(), tmp_path / "telemetry")
    assert validate_obs_dir(out) == []
    assert json.loads((out / "trace.json").read_text())["traceEvents"]
    # No events were emitted, so no event log is written (documented).
    assert not (out / "events.ndjson").exists()


def test_export_run_counter_only_registry(tmp_path):
    """A registry with one counter and no spans/gauges/series exports
    cleanly and the counter lands in every sink that carries counters."""
    obs = Observer()
    obs.registry.counter("demo.count").inc(5.0)
    out = export_run(obs, tmp_path / "telemetry")
    assert validate_obs_dir(out) == []
    assert chrome_trace(obs)["otherData"]["counters"] == {"demo.count": 5.0}
    rows = (out / "metrics" / "counters.csv").read_text().splitlines()
    assert rows == ["metric,value", "demo.count,5.0"]


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
def test_manifest_roundtrips_config():
    from repro.config import Config
    from repro.storage import BBMode

    config = Config(
        bb_mode=BBMode.PRIVATE,
        input_fraction=0.5,
        intermediate_fraction=0.25,
        output_fraction=1.0,
        use_amdahl_alpha=True,
    )
    doc = build_manifest(config=config)
    assert validate_manifest(doc) == []
    assert config_from_manifest(doc) == config
    # The manifest survives a JSON hop unchanged.
    assert config_from_manifest(json.loads(json.dumps(doc))) == config


def test_manifest_digest_is_content_addressed():
    from repro.platform.presets import cori_spec

    a = cori_spec(n_compute=2, n_bb_nodes=1)
    b = cori_spec(n_compute=2, n_bb_nodes=1)
    c = cori_spec(n_compute=3, n_bb_nodes=1)
    assert platform_digest(a) == platform_digest(b)
    assert platform_digest(a) != platform_digest(c)


def test_manifest_is_deterministic(tmp_path):
    doc = build_manifest(observer=observed_sample(), extra={"note": "x"})
    first = write_manifest(doc, tmp_path / "a.json").read_text()
    second = write_manifest(doc, tmp_path / "b.json").read_text()
    assert first == second
    assert json.loads(first)["schema"] == MANIFEST_SCHEMA


def test_validate_manifest_catches_missing_fields():
    assert validate_manifest([]) != []
    assert any("schema" in e for e in validate_manifest({"schema": "wrong"}))
    doc = build_manifest()
    doc["config"] = {"bb_mode": "striped"}  # missing fractions
    assert any("input_fraction" in e for e in validate_manifest(doc))


# ----------------------------------------------------------------------
# Whole-directory export
# ----------------------------------------------------------------------
def test_export_run_produces_valid_directory(tmp_path):
    out = export_run(observed_sample(), tmp_path / "telemetry")
    assert validate_obs_dir(out) == []
    assert (out / "manifest.json").is_file()
    assert (out / "trace.json").is_file()
    assert (out / "metrics" / "index.csv").is_file()


def test_validate_obs_dir_reports_missing_pieces(tmp_path):
    errors = validate_obs_dir(tmp_path)
    assert "missing manifest.json" in errors
    assert "missing trace.json" in errors
    assert "missing metrics/ directory" in errors


def test_validate_cli_main(tmp_path, capsys):
    from repro.obs.validate import main

    out = export_run(observed_sample(), tmp_path / "telemetry")
    assert main([str(out)]) == 0
    assert "ok" in capsys.readouterr().out
    assert main([str(tmp_path / "nothing")]) == 1
    assert "missing" in capsys.readouterr().err


def test_validate_cli_names_the_failing_file(tmp_path, capsys):
    """Regression: a malformed manifest must exit non-zero and print the
    path of the file that failed, not just the directory."""
    from repro.obs.validate import main

    out = export_run(observed_sample(), tmp_path / "telemetry")
    (out / "manifest.json").write_text(json.dumps({"schema": "wrong/1"}))
    assert main([str(out)]) == 1
    err = capsys.readouterr().err
    assert str(out / "manifest.json") in err

    # A manifest whose platform block is not even an object must not
    # crash the validator — it is reported like any other violation.
    (out / "manifest.json").write_text(json.dumps(
        {"schema": MANIFEST_SCHEMA, "platform": "cori"}
    ))
    assert main([str(out)]) == 1
    assert str(out / "manifest.json") in capsys.readouterr().err


# ----------------------------------------------------------------------
# Profile export (repro.profile/1 inside a telemetry directory)
# ----------------------------------------------------------------------
def _profiled_run():
    from repro.profile import build_profile
    from repro.scenarios import run_swarp

    obs = Observer()
    result = run_swarp(observer=obs)
    return obs, build_profile(result.trace, observer=obs)


def test_export_run_with_profile_round_trips(tmp_path):
    from repro.config import Config
    from repro.obs import validate_profile_doc
    from repro.profile import read_profile

    obs, profile = _profiled_run()
    config = Config(input_fraction=1.0)
    out = export_run(
        obs, tmp_path / "telemetry",
        manifest=build_manifest(config=config, observer=obs),
        profile=profile,
    )
    # The directory validates as a whole, profile.json included.
    assert validate_obs_dir(out) == []
    doc = json.loads((out / "profile.json").read_text())
    assert validate_profile_doc(doc) == []
    # Loading back yields the same profile...
    loaded = read_profile(out / "profile.json")
    assert loaded.to_doc() == profile.to_doc()
    assert loaded.attribution == profile.attribution
    # ...and the manifest still round-trips its config alongside it.
    manifest = json.loads((out / "manifest.json").read_text())
    assert config_from_manifest(manifest) == config
    # The flamegraph rides along.
    assert (out / "profile.folded").is_file()


def test_export_run_profile_annotates_chrome_trace(tmp_path):
    obs, profile = _profiled_run()
    out = export_run(obs, tmp_path / "telemetry", profile=profile)
    doc = json.loads((out / "trace.json").read_text())
    lanes = [
        e for e in doc["traceEvents"] if e.get("cat") == "critical-path"
    ]
    assert lanes
    assert validate_chrome_trace(doc) == []


def test_validator_flags_corrupted_profile(tmp_path):
    from repro.obs import validate_profile_doc

    obs, profile = _profiled_run()
    out = export_run(obs, tmp_path / "telemetry", profile=profile)
    doc = json.loads((out / "profile.json").read_text())

    tampered = json.loads(json.dumps(doc))
    tampered["attribution"][next(iter(tampered["attribution"]))] += 10.0
    assert any("attribution" in e for e in validate_profile_doc(tampered))

    tampered = json.loads(json.dumps(doc))
    tampered["schema"] = "repro.profile/0"
    assert any("schema" in e for e in validate_profile_doc(tampered))

    tampered = json.loads(json.dumps(doc))
    if tampered["critical_path"]:
        tampered["critical_path"][0]["start"] -= 1.0
    assert validate_profile_doc(tampered) != []

    tampered = json.loads(json.dumps(doc))
    tampered["waits"] = [{"task": "t", "cause": "vibes", "start": 0, "end": 1}]
    assert any("cause" in e for e in validate_profile_doc(tampered))

    # A corrupted profile.json fails whole-directory validation too.
    (out / "profile.json").write_text(json.dumps({"schema": "repro.profile/0"}))
    assert any("profile" in e for e in validate_obs_dir(out))
    (out / "profile.json").write_text("{not json")
    assert any("invalid JSON" in e for e in validate_obs_dir(out))


def test_exported_files_parse_back_to_their_documents(tmp_path):
    """The compact exports carry exactly the in-memory documents."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro
    from repro.obs.log import header

    obs, profile = _profiled_run()
    out = export_run(obs, tmp_path / "telemetry", profile=profile)
    trace_doc = json.loads((out / "trace.json").read_text())
    assert trace_doc == chrome_trace(obs, profile=profile)
    assert json.loads((out / "profile.json").read_text()) == profile.to_doc()

    lines = (out / "events.ndjson").read_text().splitlines()
    assert obs.events
    assert lines == [json.dumps(e, sort_keys=True) for e in [header(), *obs.events]]

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "repro.obs", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "ok" in done.stdout
