"""Structured event log (``repro.obs.log/1``): schema, emission, export."""

import collections
import json

import pytest

from repro.obs import (
    LOG_SCHEMA,
    LiveBus,
    Observer,
    WaitCause,
    export_run,
    iter_ndjson,
    make_event,
    read_events,
    validate_events_ndjson,
    write_events,
)
from repro.obs.observer import RECENT_EVENT_WINDOW
from repro.scenarios import run_swarp


# ----------------------------------------------------------------------
# Record / stream primitives
# ----------------------------------------------------------------------
def test_make_event_envelope():
    record = make_event(1.5, "storage", "file_added", {"size": 3})
    assert record == {
        "ts": None,
        "sim_time": 1.5,
        "component": "storage",
        "event": "file_added",
        "fields": {"size": 3},
    }


def test_write_read_roundtrip(tmp_path):
    events = [
        make_event(0.0, "des", "sim_started"),
        make_event(2.0, "wms", "task_ready", {"task": "t1"}),
    ]
    path = write_events(events, tmp_path / "events.ndjson")
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"schema": LOG_SCHEMA}
    assert read_events(path) == events


def test_read_events_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"schema": "something/9"}\n')
    with pytest.raises(ValueError, match="repro.obs.log"):
        read_events(path)


def test_iter_ndjson_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "stream.ndjson"
    path.write_text(
        '{"schema": "repro.obs.log/1"}\n{"a": 1}\n{"trunc'
    )
    assert list(iter_ndjson(path)) == [{"schema": LOG_SCHEMA}, {"a": 1}]
    # A corrupt line that is *not* the unterminated tail still raises.
    path.write_text('{"a": 1}\n{bad}\n{"b": 2}\n')
    with pytest.raises(json.JSONDecodeError):
        list(iter_ndjson(path))


# ----------------------------------------------------------------------
# Observer emission
# ----------------------------------------------------------------------
def test_log_event_stamps_sim_time():
    from repro import des

    env = des.Environment()
    obs = Observer().attach(env)
    env._now = 4.25
    record = obs.log_event("storage", "file_added", service="bb", size=8)
    assert record["sim_time"] == 4.25
    assert record["ts"] is None
    assert obs.events == [record]


def test_recent_event_window_is_bounded():
    obs = Observer()
    for i in range(3 * RECENT_EVENT_WINDOW):
        obs.log_event("obs", "tick", i=i)
    assert len(obs.events) == 3 * RECENT_EVENT_WINDOW
    assert obs.recent_events == obs.events[-RECENT_EVENT_WINDOW:]
    assert len(obs.recent_events) == RECENT_EVENT_WINDOW


#: Kinds no longer logged: a TaskRecord (and its spans), a CORES wait
#: interval or an ``Observer.flows`` entry holds each of these facts.
REMOVED_KINDS = {
    "task_ready", "task_start", "task_end",
    "cores_queued", "cores_granted", "flow_completed",
}


def test_scenario_logs_only_facts_no_other_record_holds():
    obs = Observer()
    run_swarp(n_pipelines=2, observer=obs)
    names = {e["event"] for e in obs.events}
    assert not REMOVED_KINDS & names
    assert "file_added" in names
    assert {e["component"] for e in obs.events} == {"storage"}


def test_removed_facts_stay_readable_and_stream_once(tmp_path):
    bus = LiveBus(tmp_path / "live", flush_every=64)
    obs = Observer(bus=bus)
    trace = run_swarp(n_pipelines=2, observer=obs).trace
    bus.close()

    # Each task's start, end, host and cores: its task span.
    task_spans = {s.name: s for s in obs.spans if s.name in trace.records}
    for record in trace.records.values():
        span = task_spans[record.name]
        assert (span.track, span.start, span.end, span.args["cores"]) == (
            record.host, record.start, record.end, record.cores,
        )
    # Each core wait ends when its task is granted cores and starts.
    core_waits = [w for w in obs.waits if w.cause is WaitCause.CORES]
    assert core_waits
    for wait in core_waits:
        assert wait.end == trace.records[wait.task].start
        assert wait.detail == trace.records[wait.task].host
    # Each task read or write: its flow (one per file on a private BB).
    # A stage-in copy from outside the platform is a write to the BB.
    flows = {(f["label"], f["size"]): f for f in obs.flows}
    for op in trace.io_operations:
        kind = "write" if op.kind == "stage_in" else op.kind
        flow = flows[(f"{op.service}:{kind}:{op.file}", op.size)]
        assert op.start <= flow["start"] <= flow["end"] <= op.end

    records = [r for r in iter_ndjson(tmp_path / "live" / "events.ndjson")
               if "schema" not in r]
    assert bus.dropped == 0
    kinds = collections.Counter(r["kind"] for r in records)
    assert kinds["event"] == len(obs.events)
    assert kinds["span_close"] == len(obs.spans)
    assert kinds["wait_close"] >= len(obs.waits)
    assert len(records) == (
        len(obs.events) + kinds["span_close"]
        + kinds["wait_open"] + kinds["wait_close"]
    )
    assert not REMOVED_KINDS & {r["event"] for r in records if r["kind"] == "event"}


def test_event_log_export_is_deterministic(tmp_path):
    streams = []
    for run in ("a", "b"):
        obs = Observer()
        run_swarp(n_pipelines=2, observer=obs)
        out = export_run(obs, tmp_path / run)
        streams.append((out / "events.ndjson").read_bytes())
    assert streams[0] == streams[1]
    assert validate_events_ndjson(tmp_path / "a" / "events.ndjson") == []


# ----------------------------------------------------------------------
# Validator
# ----------------------------------------------------------------------
def test_validate_events_catches_violations(tmp_path):
    path = tmp_path / "events.ndjson"

    path.write_text("")
    assert any("empty" in e for e in validate_events_ndjson(path))

    path.write_text('{"schema": "wrong/1"}\n')
    assert any("header" in e for e in validate_events_ndjson(path))

    header = json.dumps({"schema": LOG_SCHEMA})
    bad = [
        {"ts": None, "sim_time": -1.0, "component": "wms",
         "event": "x", "fields": {}},
        {"ts": None, "sim_time": 0.0, "component": "kernel",
         "event": "x", "fields": {}},
        {"ts": "late", "sim_time": 0.0, "component": "wms",
         "event": "x", "fields": {}},
        {"ts": None, "sim_time": 0.0, "component": "wms",
         "event": "x", "fields": []},
        {"sim_time": 0.0, "component": "wms", "event": "x"},
    ]
    path.write_text(
        "\n".join([header] + [json.dumps(r) for r in bad]) + "\n"
    )
    errors = validate_events_ndjson(path)
    assert any("negative sim_time" in e for e in errors)
    assert any("unknown component" in e for e in errors)
    assert any("non-numeric ts" in e for e in errors)
    assert any("fields is not an object" in e for e in errors)
    assert any("missing" in e for e in errors)
