"""Property-based tests on engine invariants over random workflows."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import des
from repro.compute import ComputeService
from repro.platform import Platform
from repro.platform.presets import TABLE_I, cori_spec
from repro.platform.units import MB
from repro.storage import BBMode, ParallelFileSystem, SharedBurstBuffer
from repro.wms import AllBB, AllPFS, WorkflowEngine
from repro.workflow import File, Task, Workflow
from tests.workflow.nx_view import digraph

SPEED = TABLE_I["cori"]["core_speed"]


@st.composite
def layered_workflows(draw):
    """Random layered DAGs: files flow only from layer i to layer i+1."""
    n_layers = draw(st.integers(min_value=1, max_value=3))
    layers = []
    file_id = [0]

    def new_file(size_mb: float) -> File:
        file_id[0] += 1
        return File(f"f{file_id[0]}", size_mb * MB)

    previous_outputs: list[File] = []
    tasks = []
    for layer in range(n_layers):
        n_tasks = draw(st.integers(min_value=1, max_value=4))
        layer_outputs = []
        for t in range(n_tasks):
            if previous_outputs:
                k = draw(st.integers(min_value=1, max_value=len(previous_outputs)))
                inputs = tuple(previous_outputs[:k])
            else:
                inputs = (new_file(draw(st.floats(min_value=1, max_value=50))),)
            outputs = tuple(
                new_file(draw(st.floats(min_value=1, max_value=50)))
                for _ in range(draw(st.integers(min_value=1, max_value=2)))
            )
            cores = draw(st.integers(min_value=1, max_value=8))
            seconds = draw(st.floats(min_value=0.0, max_value=5.0))
            tasks.append(
                Task(
                    f"t{layer}_{t}",
                    flops=seconds * SPEED,
                    inputs=inputs,
                    outputs=outputs,
                    cores=cores,
                )
            )
            layer_outputs.extend(outputs)
        previous_outputs = layer_outputs
    return Workflow("random", tasks)


def run_workflow(workflow, placement):
    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=1, n_bb_nodes=1))
    engine = WorkflowEngine(
        plat,
        workflow,
        ComputeService(plat, ["cn0"]),
        ParallelFileSystem(plat),
        bb_for_host=lambda h: SharedBurstBuffer(
            plat, ["bb0"], BBMode.PRIVATE, owner_host=h
        ),
        placement=placement,
        host_assignment=lambda t: "cn0",
    )
    return engine, engine.run()


@given(layered_workflows())
@settings(max_examples=25, deadline=None)
def test_every_task_executes_exactly_once(workflow):
    engine, trace = run_workflow(workflow, AllPFS())
    assert set(trace.records) == set(workflow.tasks)


@given(layered_workflows())
@settings(max_examples=25, deadline=None)
def test_dependencies_never_violated(workflow):
    engine, trace = run_workflow(workflow, AllPFS())
    for task in workflow:
        record = trace.task_record(task.name)
        for parent in workflow.parents(task.name):
            assert trace.task_record(parent.name).end <= record.start + 1e-9


@given(layered_workflows())
@settings(max_examples=25, deadline=None)
def test_phase_ordering_within_task(workflow):
    engine, trace = run_workflow(workflow, AllBB())
    for record in trace.records.values():
        assert record.start <= record.read_start <= record.read_end
        assert record.read_end <= record.compute_end <= record.write_end
        assert record.write_end <= record.end + 1e-9


@given(layered_workflows())
@settings(max_examples=25, deadline=None)
def test_makespan_bounded_below_by_critical_path(workflow):
    """Makespan can never beat the pure-compute critical path."""
    engine, trace = run_workflow(workflow, AllBB())
    # Each task's compute time on its granted cores (perfect speedup,
    # cores clamped to the host's 32).
    lower_bound = 0.0
    import networkx as nx

    best: dict[str, float] = {}
    graph = digraph(workflow)
    for name in nx.topological_sort(graph):
        task = workflow.task(name)
        cores = min(task.cores, 32)
        compute = task.flops / SPEED / cores
        preds = list(graph.predecessors(name))
        best[name] = compute + max((best[p] for p in preds), default=0.0)
    lower_bound = max(best.values(), default=0.0)
    assert trace.makespan >= lower_bound - 1e-6


@given(layered_workflows())
@settings(max_examples=15, deadline=None)
def test_all_outputs_stored_somewhere(workflow):
    engine, trace = run_workflow(workflow, AllBB())
    for f in workflow.files.values():
        assert engine.registry.has(f), f"{f.name} vanished"
