"""Observer unit tests: lifecycle, group filtering, hooks, spans."""

import pytest

from repro import des
from repro.network import FlowNetwork, Link
from repro.obs import METRIC_GROUPS, Observer, Span, spans_from_record
from repro.traces import ExecutionTrace, TaskRecord


def make_record(**kw):
    defaults = dict(
        name="t", group="g", host="cn0", cores=4,
        start=0.0, read_start=0.0, read_end=2.0,
        compute_end=8.0, write_end=10.0, end=10.0,
    )
    defaults.update(kw)
    return TaskRecord(**defaults)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_attach_sets_env_obs():
    env = des.Environment()
    obs = Observer().attach(env)
    assert env.obs is obs
    assert obs.now == env.now


def test_attach_twice_same_env_is_fine():
    env = des.Environment()
    obs = Observer().attach(env)
    obs.attach(env)
    assert env.obs is obs


def test_attach_to_second_env_rejected():
    obs = Observer().attach(des.Environment())
    with pytest.raises(ValueError):
        obs.attach(des.Environment())


def test_detach_restores_disabled_path():
    env = des.Environment()
    obs = Observer().attach(env)
    obs.detach()
    assert env.obs is None
    assert obs.env is None
    with pytest.raises(RuntimeError):
        obs.now


def test_end_run_unhooks_env_but_keeps_its_clock():
    env = des.Environment()
    obs = Observer().attach(env)
    env.run(until=5.0)
    obs.end_run()
    assert env.obs is None
    assert obs.env is env
    assert obs.now == 5.0


def test_unknown_metric_group_rejected():
    with pytest.raises(ValueError):
        Observer(metrics=["storage", "nonsense"])


def test_default_collects_all_groups():
    assert Observer().groups == frozenset(METRIC_GROUPS)


# ----------------------------------------------------------------------
# Hooks record into the registry
# ----------------------------------------------------------------------
def test_storage_hooks():
    obs = Observer().attach(des.Environment())
    obs.on_storage_occupancy("bb", used=100.0, capacity=1000.0)
    obs.on_storage_op("bb", "write", 100.0)
    obs.on_storage_op("bb", "write", 50.0)
    r = obs.registry
    assert r.timeseries("storage.bb.occupancy_bytes").last == 100.0
    assert r.gauge("storage.bb.capacity_bytes").value == 1000.0
    assert r.counter("storage.bb.write_ops").value == 2
    assert r.counter("storage.bb.write_bytes").value == 150.0
    assert r.timeseries("storage.bb.cumulative_write_bytes").last == 150.0


def test_compute_and_engine_hooks():
    obs = Observer().attach(des.Environment())
    obs.on_core_allocation("cn0", busy=8, total=32, queued=1)
    obs.on_task_complete(make_record(), "compute")
    r = obs.registry
    assert r.timeseries("compute.cn0.busy_cores").last == 8
    assert r.gauge("compute.cn0.total_cores").value == 32
    assert r.timeseries("compute.cn0.queue_depth").last == 1
    assert obs.spans  # lifecycle spans derived from the record


def test_end_run_builds_engine_series_from_the_trace():
    trace = ExecutionTrace()
    for name, ready, start in (("a", 0.0, 0.0), ("b", 0.0, 2.0), ("c", 1.0, 2.0)):
        trace.add_record(
            make_record(name=name, ready=ready, start=start, end=start + 1)
        )
    obs = Observer().attach(des.Environment())
    obs.end_run(trace)
    r = obs.registry
    # Ready minus started, as each instant settles.
    assert list(r.timeseries("engine.ready_tasks").items()) == [
        (0.0, 1), (1.0, 2), (2.0, 0)
    ]
    assert r.counter("engine.tasks_completed").value == 3
    obs.end_run(trace)  # a second call builds nothing twice
    assert r.counter("engine.tasks_completed").value == 3


def test_end_run_without_trace_builds_no_engine_metrics():
    obs = Observer().attach(des.Environment())
    obs.end_run()
    assert not [n for n in obs.registry.names() if n.startswith("engine.")]


def test_trace_io_bytes_match_storage_counters():
    # Every byte a service is charged is one IOOperation in the trace,
    # the external stage-in writes included: per service, the trace's
    # op bytes equal the read + write + stage byte counters.
    from repro.scenarios import run_swarp

    obs = Observer()
    trace = run_swarp(n_pipelines=2, observer=obs).trace
    charged: dict[str, float] = {}
    for name, value in obs.registry.snapshot()["counters"].items():
        group, _, rest = name.partition(".")
        service, _, quantity = rest.rpartition(".")
        if group == "storage" and quantity in ("read_bytes", "write_bytes", "stage_bytes"):
            charged[service] = charged.get(service, 0.0) + value
    assert charged and trace.service_bytes() == charged
    assert {op.kind for op in trace.io_operations} == {"stage_in", "read", "write"}


def test_group_filter_drops_other_groups():
    obs = Observer(metrics=["storage"]).attach(des.Environment())
    obs.on_storage_occupancy("bb", 1.0, 2.0)
    obs.on_core_allocation("cn0", 1, 2, 0)
    obs.on_event_processed()
    trace = ExecutionTrace()
    trace.add_record(make_record(ready=0.0))
    obs.end_run(trace)
    names = obs.registry.names()
    assert names == ["storage.bb.capacity_bytes", "storage.bb.occupancy_bytes"]


def test_flow_hooks_derive_service_bandwidth():
    env = des.Environment()
    obs = Observer().attach(env)
    net = FlowNetwork(env)
    net.transfer(1000.0, [Link("l", bandwidth=250.0)], label="bb:read:f1")
    env.run()
    obs.end_run()
    r = obs.registry
    assert list(r.timeseries("network.active_flows").items()) == [(0.0, 1), (4.0, 0)]
    assert r.counter("network.flows_completed").value == 1
    assert r.counter("network.bytes_completed").value == 1000.0
    assert r.timeseries("network.bb.achieved_bandwidth").last == 250.0
    assert obs.flows == [{
        "label": "bb:read:f1", "size": 1000.0, "start": 0.0, "end": 4.0,
        "max_rate": float("inf"),
    }]


def test_flow_admitted_after_its_latency():
    env = des.Environment()
    obs = Observer().attach(env)
    net = FlowNetwork(env)
    net.transfer(1000.0, [Link("l", bandwidth=250.0)], latency=1.0)
    env.run()
    obs.end_run()
    series = obs.registry.timeseries("network.active_flows")
    assert list(series.items()) == [(1.0, 1), (5.0, 0)]


def test_flow_without_bandwidth_skips_series():
    env = des.Environment()
    obs = Observer().attach(env)
    net = FlowNetwork(env)
    net.transfer(0.0, [Link("l", bandwidth=1.0)])
    env.run()
    obs.end_run()
    assert "network.unlabeled.achieved_bandwidth" not in obs.registry.names()
    # A zero-byte flow is never admitted, but its completion is an instant.
    assert list(obs.registry.timeseries("network.active_flows").items()) == [(0.0, 0)]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_spans_from_compute_record():
    spans = spans_from_record(make_record(), "compute")
    assert [s.name for s in spans] == ["t", "t:read", "t:compute", "t:write"]
    task = spans[0]
    assert isinstance(task, Span)
    assert task.track == "cn0"
    assert task.duration == 10.0
    assert task.args["cores"] == 4
    # Phases tile the task span.
    assert [(s.start, s.end) for s in spans[1:]] == [(0.0, 2.0), (2.0, 8.0), (8.0, 10.0)]


def test_spans_zero_duration_phase_omitted():
    record = make_record(read_start=0.0, read_end=0.0)
    spans = spans_from_record(record, "compute")
    assert [s.name for s in spans] == ["t", "t:compute", "t:write"]


def test_spans_from_staging_record():
    record = make_record(name="in", read_end=0.0, compute_end=0.0, write_end=0.0, end=5.0)
    spans = spans_from_record(record, "stage_in")
    assert [s.name for s in spans] == ["in", "in:stage-in"]
    assert spans[1].category == "stage-in"
    assert (spans[1].start, spans[1].end) == (0.0, 5.0)
