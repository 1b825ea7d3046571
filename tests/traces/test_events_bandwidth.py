"""Tests for execution traces and bandwidth accounting."""

import json

import pytest

from repro import des
from repro.network import FlowNetwork, Link
from repro.obs import Observer
from repro.traces import ExecutionTrace, IOOperation, TaskRecord


# ----------------------------------------------------------------------
# TaskRecord
# ----------------------------------------------------------------------
def make_record(**kw):
    defaults = dict(
        name="t", group="g", host="cn0", cores=4,
        start=0.0, read_start=0.0, read_end=2.0,
        compute_end=8.0, write_end=10.0, end=10.0,
    )
    defaults.update(kw)
    return TaskRecord(**defaults)


def test_record_phase_durations():
    r = make_record()
    assert r.duration == 10.0
    assert r.read_time == 2.0
    assert r.compute_time == 6.0
    assert r.write_time == 2.0
    assert r.io_time == 4.0


def test_record_io_fraction_matches_eq1():
    r = make_record()
    assert r.io_fraction == pytest.approx(0.4)


def test_record_io_fraction_zero_duration():
    r = make_record(end=0.0, read_end=0.0, compute_end=0.0, write_end=0.0)
    assert r.io_fraction == 0.0


# ----------------------------------------------------------------------
# ExecutionTrace
# ----------------------------------------------------------------------
def test_trace_makespan_is_last_event():
    # The last event is the last task completion.
    trace = ExecutionTrace("wf")
    trace.add_record(make_record(name="a", ready=0.5, start=1.0, end=5.5))
    trace.add_record(make_record(name="b", ready=3.0, start=3.0, end=5.0))
    assert trace.makespan == 5.5


def test_trace_empty_makespan_zero():
    assert ExecutionTrace().makespan == 0.0


def test_trace_makespan_falls_back_to_records():
    # A records-only trace (e.g. re-loaded from a sparse export) must
    # still report the last task completion, not 0.0.
    trace = ExecutionTrace("wf")
    trace.add_record(make_record(name="a", end=12.5))
    trace.add_record(make_record(name="b", end=7.0))
    assert trace.makespan == 12.5


def test_trace_record_queries():
    trace = ExecutionTrace("wf")
    trace.add_record(make_record(name="a", group="resample"))
    trace.add_record(make_record(name="b", group="resample", end=20.0))
    trace.add_record(make_record(name="c", group="combine"))
    assert trace.task_record("a").name == "a"
    assert [r.name for r in trace.records_in_group("resample")] == ["a", "b"]
    assert trace.group_mean_duration("resample") == pytest.approx(15.0)
    with pytest.raises(KeyError):
        trace.task_record("ghost")
    with pytest.raises(KeyError):
        trace.group_mean_duration("ghost")


def test_trace_json_roundtrippable(tmp_path):
    trace = ExecutionTrace("wf")
    trace.add_record(make_record(name="a", ready=0.0))
    path = tmp_path / "trace.json"
    text = trace.to_json(path)
    doc = json.loads(path.read_text())
    assert doc == json.loads(text)
    assert doc["workflow"] == "wf"
    # The record ends at 10.0, the last task completion.
    assert doc["makespan"] == 10.0
    assert "events" not in doc
    assert doc["tasks"][0]["name"] == "a"
    assert doc["tasks"][0]["ready"] == 0.0
    # Each task fact is written once: raw stamps, no derived durations.
    assert doc["tasks"][0]["read_end"] == 2.0
    assert not {"read_time", "compute_time", "write_time"} & set(doc["tasks"][0])


def test_trace_json_is_one_line_and_indented_documents_load():
    trace = ExecutionTrace("wf")
    trace.add_record(make_record(name="a", ready=1.0))
    text = trace.to_json()
    assert "\n" not in text
    indented = json.dumps(json.loads(text), indent=2)
    assert ExecutionTrace.from_json(indented).to_json() == text


def test_trace_from_json_roundtrips_everything(tmp_path):
    trace = ExecutionTrace("wf")
    trace.add_record(make_record(name="a", ready=0.0))
    trace.add_record(make_record(name="b"))  # no ready stamp
    trace.log_io(
        IOOperation(
            task="a", file="f1", service="bb", kind="read",
            size=1000.0, start=0.0, end=2.0,
        )
    )
    trace.log_io(
        IOOperation(
            task="a", file="f0", service="bb", kind="stage_in",
            size=500.0, start=0.0, end=0.5,
        )
    )
    loaded = ExecutionTrace.from_json(trace.to_json())
    assert loaded.workflow_name == "wf"
    assert loaded.records == trace.records
    assert loaded.io_operations == trace.io_operations
    assert loaded.makespan == trace.makespan

    path = tmp_path / "trace.json"
    trace.to_json(path)
    from_file = ExecutionTrace.from_json_file(path)
    assert from_file.to_json() == trace.to_json()


def test_trace_from_json_accepts_parsed_document():
    trace = ExecutionTrace("wf")
    trace.add_record(make_record(name="a"))
    loaded = ExecutionTrace.from_json(json.loads(trace.to_json()))
    assert loaded.records == trace.records


def test_trace_from_json_legacy_derived_durations():
    # Pre-raw-timestamp exports carried only the derived durations;
    # phases are reconstructed as contiguous from start.
    doc = {
        "workflow": "old",
        "tasks": [
            {
                "name": "a", "group": "g", "host": "cn0", "cores": 2,
                "start": 5.0, "end": 15.0,
                "read_time": 2.0, "compute_time": 6.0, "write_time": 2.0,
            }
        ],
    }
    record = ExecutionTrace.from_json(doc).task_record("a")
    assert record.read_start == 5.0
    assert record.read_end == 7.0
    assert record.compute_end == 13.0
    assert record.write_end == 15.0
    assert record.read_time == 2.0
    assert record.compute_time == 6.0
    assert record.write_time == 2.0


# ----------------------------------------------------------------------
# Bandwidth accounting: an attached observer's per-service
# ``network.<service>.achieved_bandwidth`` series (the network keeps no
# finished-flow log of its own)
# ----------------------------------------------------------------------
def achieved_bandwidths(*transfers):
    """Run ``(size, links, label, latency)`` transfers on one network with
    an observer attached; return its achieved-bandwidth samples by service."""
    env = des.Environment()
    obs = Observer(metrics=["network"]).attach(env)
    net = FlowNetwork(env)
    for size, links, label, latency in transfers:
        net.transfer(size, links, latency=latency, label=label)
    env.run()
    obs.end_run()
    prefix, suffix = "network.", ".achieved_bandwidth"
    return {
        name[len(prefix):-len(suffix)]: obs.registry.timeseries(name).values
        for name in obs.registry.names()
        if name.endswith(suffix)
    }


def test_achieved_bandwidths_all():
    l = Link("l", bandwidth=100.0)
    bw = achieved_bandwidths(
        (1000, [l], "bb:read:f1", 0.0), (500, [l], "pfs:read:f2", 0.0)
    )
    assert sum(len(v) for v in bw.values()) == 2
    # Both flows share the link; each achieves well under 100 B/s.
    assert all(0 < b < 100.0 for v in bw.values() for b in v)


def test_zero_byte_flows_excluded():
    assert achieved_bandwidths((0, [], "empty", 1.0)) == {}


def test_zero_duration_flows_excluded():
    # A flow over an infinitely-fast path completes instantaneously;
    # its bandwidth is undefined and must not pollute the series.
    env = des.Environment()
    net = FlowNetwork(env)
    flow = env.run(until=net.transfer(1000, [], label="instant"))
    assert flow.achieved_bandwidth is None
    assert achieved_bandwidths((1000, [], "instant", 0.0)) == {}


def test_prefix_filter_composes_with_skipping():
    l = Link("l", bandwidth=100.0)
    bw = achieved_bandwidths(
        (1000, [l], "bb:read:f1", 0.0),
        (0, [l], "bb:noop", 1.0),
        (500, [l], "pfs:read:f2", 0.0),
    )
    assert len(bw["bb"]) == 1
