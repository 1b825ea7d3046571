"""Property-based round-trip tests across serialization boundaries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import platform_from_json, platform_to_json
from repro.platform.spec import DiskSpec, HostSpec, LinkSpec, PlatformSpec, RouteSpec
from repro.traces import ExecutionTrace, IOOperation, TaskRecord
from repro.workflow.synthetic import make_random_dag
from repro.workflow.wfformat import workflow_from_wfformat, workflow_to_wfformat
from tests.workflow.nx_view import digraph


# ----------------------------------------------------------------------
# Random platform specs
# ----------------------------------------------------------------------
@st.composite
def platform_specs(draw):
    n_hosts = draw(st.integers(min_value=1, max_value=6))
    hosts = []
    for i in range(n_hosts):
        disks = tuple(
            DiskSpec(
                name=f"d{k}",
                read_bandwidth=draw(st.floats(min_value=1e6, max_value=1e10)),
                write_bandwidth=draw(st.floats(min_value=1e6, max_value=1e10)),
                capacity=draw(st.floats(min_value=1e9, max_value=1e15)),
            )
            for k in range(draw(st.integers(min_value=0, max_value=2)))
        )
        hosts.append(
            HostSpec(
                name=f"h{i}",
                cores=draw(st.integers(min_value=1, max_value=128)),
                core_speed=draw(st.floats(min_value=1e9, max_value=1e11)),
                ram=draw(
                    st.one_of(
                        st.just(float("inf")),
                        st.floats(min_value=1e9, max_value=1e12),
                    )
                ),
                disks=disks,
            )
        )
    n_links = draw(st.integers(min_value=0, max_value=4))
    links = tuple(
        LinkSpec(
            name=f"l{i}",
            bandwidth=draw(st.floats(min_value=1e6, max_value=1e11)),
            latency=draw(st.floats(min_value=0, max_value=1e-3)),
            concurrency_penalty=draw(st.floats(min_value=0, max_value=0.5)),
        )
        for i in range(n_links)
    )
    routes = []
    if n_hosts >= 2 and n_links >= 1:
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            a, b = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_hosts - 1),
                    min_size=2,
                    max_size=2,
                    unique=True,
                )
            )
            pair = (f"h{a}", f"h{b}")
            if any((r.src, r.dst) == pair for r in routes):
                continue
            routes.append(
                RouteSpec(
                    pair[0],
                    pair[1],
                    [f"l{draw(st.integers(min_value=0, max_value=n_links - 1))}"],
                )
            )
    return PlatformSpec(
        name=draw(st.text(min_size=1, max_size=12)),
        hosts=tuple(hosts),
        links=links,
        routes=tuple(routes),
    )


@given(platform_specs())
@settings(max_examples=50, deadline=None)
def test_platform_json_roundtrip_any_spec(spec):
    assert platform_from_json(platform_to_json(spec)) == spec


# ----------------------------------------------------------------------
# Random workflows through WfCommons JSON
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=0, max_value=50),
)
@settings(max_examples=30, deadline=None)
def test_wfformat_roundtrip_random_dags(n, seed):
    original = make_random_dag(n, seed=seed)
    loaded = workflow_from_wfformat(workflow_to_wfformat(original))
    assert set(loaded.tasks) == set(original.tasks)
    assert sorted(digraph(loaded).edges) == sorted(digraph(original).edges)
    for name, task in original.tasks.items():
        other = loaded.task(name)
        # Flops go through seconds with float rounding; sizes are
        # truncated to integer bytes by the schema.
        assert other.flops == pytest.approx(task.flops, rel=1e-9)
        assert other.cores == task.cores
        assert {f.name for f in other.inputs} == {f.name for f in task.inputs}
        assert {f.name for f in other.outputs} == {f.name for f in task.outputs}


# ----------------------------------------------------------------------
# Random execution traces through to_json / from_json
# ----------------------------------------------------------------------
_times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_-."),
    min_size=1,
    max_size=12,
)


@st.composite
def execution_traces(draw):
    trace = ExecutionTrace(draw(_names))
    names = draw(st.lists(_names, max_size=6, unique=True))
    for name in names:
        # Monotone stamps from ready on, as the engine records them; a
        # hand-built record may have no ready stamp.
        ready, a, b, c, d = sorted(draw(st.lists(_times, min_size=5, max_size=5)))
        trace.add_record(
            TaskRecord(
                name=name,
                group=draw(_names),
                host=draw(_names),
                cores=draw(st.integers(min_value=1, max_value=64)),
                ready=draw(st.none() | st.just(ready)),
                start=a,
                read_start=a,
                read_end=b,
                compute_end=c,
                write_end=d,
                end=d,
            )
        )
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        begin, end = sorted([draw(_times), draw(_times)])
        trace.log_io(
            IOOperation(
                task=draw(_names),
                file=draw(_names),
                service=draw(_names),
                kind=draw(
                    st.sampled_from(["read", "write", "stage_in", "stage_out"])
                ),
                size=draw(st.floats(min_value=0.0, max_value=1e12)),
                start=begin,
                end=end,
            )
        )
    return trace


@given(execution_traces())
@settings(max_examples=50, deadline=None)
def test_trace_json_roundtrip_any_trace(trace):
    loaded = ExecutionTrace.from_json(trace.to_json())
    assert loaded.workflow_name == trace.workflow_name
    assert loaded.io_operations == trace.io_operations
    assert set(loaded.records) == set(trace.records)
    assert sorted(loaded.records.values(), key=lambda r: (r.start, r.name)) == sorted(
        trace.records.values(), key=lambda r: (r.start, r.name)
    )
    assert loaded.makespan == trace.makespan
    # A second hop is exactly stable.
    assert ExecutionTrace.from_json(loaded.to_json()).to_json() == loaded.to_json()
