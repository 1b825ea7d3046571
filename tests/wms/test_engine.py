"""Tests for the workflow execution engine."""

import pytest

from repro import des
from repro.compute import ComputeService
from repro.platform import Platform
from repro.platform.presets import TABLE_I, cori_spec
from repro.platform.units import MB
from repro.storage import BBMode, ParallelFileSystem, SharedBurstBuffer
from repro.wms import AllBB, AllPFS, FractionPlacement, WorkflowEngine
from repro.workflow import File, Task, TaskCategory, Workflow
from repro.workflow.swarp import make_swarp

SPEED = TABLE_I["cori"]["core_speed"]


def build(workflow, n_bb=1, placement=None, n_compute=1,
          host_assignment=None, bb=True, **engine_kwargs):
    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=n_compute, n_bb_nodes=n_bb))
    hosts = [f"cn{i}" for i in range(n_compute)]
    compute = ComputeService(plat, hosts)
    pfs = ParallelFileSystem(plat)
    if bb:
        bbs = {
            h: SharedBurstBuffer(plat, [f"bb{i}" for i in range(n_bb)],
                                 BBMode.PRIVATE, owner_host=h)
            for h in hosts
        }
        bb_for_host = lambda h: bbs[h]
    else:
        bb_for_host = None
    engine = WorkflowEngine(
        plat, workflow, compute, pfs,
        bb_for_host=bb_for_host,
        placement=placement or AllPFS(),
        host_assignment=host_assignment,
        **engine_kwargs,
    )
    return engine


def simple_chain():
    """a → b through one 100 MB file; one external input."""
    ext = File("ext", 100 * MB)
    mid = File("mid", 100 * MB)
    out = File("out", 100 * MB)
    a = Task("a", flops=SPEED, inputs=(ext,), outputs=(mid,), cores=1)
    b = Task("b", flops=SPEED, inputs=(mid,), outputs=(out,), cores=1)
    return Workflow("chain", [a, b])


def test_engine_executes_chain_in_order():
    engine = build(simple_chain())
    trace = engine.run()
    ra, rb = trace.task_record("a"), trace.task_record("b")
    assert ra.end <= rb.start
    assert trace.makespan == rb.end


def test_engine_timing_decomposition():
    """a: read 100MB from PFS (1s), compute 1s, write 100MB to PFS (1s)."""
    engine = build(simple_chain())
    trace = engine.run()
    record = trace.task_record("a")
    assert record.read_time == pytest.approx(1.0, rel=1e-6)
    assert record.compute_time == pytest.approx(1.0, rel=1e-6)
    assert record.write_time == pytest.approx(1.0, rel=1e-6)
    assert record.io_fraction == pytest.approx(2 / 3, rel=1e-6)


def test_engine_respects_core_limits():
    """Two independent 32-core tasks on one node serialize."""
    tasks = [
        Task(f"t{i}", flops=32 * SPEED, cores=32) for i in range(2)
    ]
    engine = build(Workflow("two", tasks))
    trace = engine.run()
    assert trace.makespan == pytest.approx(2.0, rel=1e-6)


def test_engine_parallel_tasks_on_free_cores():
    tasks = [Task(f"t{i}", flops=SPEED, cores=1) for i in range(32)]
    engine = build(Workflow("par", tasks))
    trace = engine.run()
    assert trace.makespan == pytest.approx(1.0, rel=1e-6)


def test_outputs_to_bb_when_placed():
    engine = build(simple_chain(), placement=AllBB())
    trace = engine.run()
    bb = engine._bb_service("cn0")
    assert bb.contains(File("mid", 100 * MB))
    assert bb.contains(File("out", 100 * MB))


def test_outputs_to_pfs_by_default():
    engine = build(simple_chain())
    engine.run()
    assert engine.pfs.contains(File("mid", 100 * MB))


def test_external_inputs_populated_on_pfs():
    engine = build(simple_chain())
    engine.run()
    assert engine.pfs.contains(File("ext", 100 * MB))


def test_prestage_places_inputs_in_bb_at_no_cost():
    engine = build(
        simple_chain(),
        placement=FractionPlacement(input_fraction=1.0),
    )
    trace = engine.run()
    # Input read from the BB (800 MB/s uplink) instead of the PFS disk.
    record = trace.task_record("a")
    assert record.read_time == pytest.approx(100 * MB / (800 * MB), rel=1e-6)


def test_prestage_disabled():
    # Prestaging follows the placement: no staged inputs, no prestage.
    engine = build(
        simple_chain(),
        placement=FractionPlacement(input_fraction=0.0),
    )
    trace = engine.run()
    record = trace.task_record("a")
    assert record.read_time == pytest.approx(1.0, rel=1e-6)  # PFS read


def test_stage_in_task_copies_to_bb():
    ext = File("ext", 100 * MB)
    stage = Task(
        "stage_in", flops=0, outputs=(ext,), category=TaskCategory.STAGE_IN
    )
    consumer = Task("c", flops=SPEED, inputs=(ext,), cores=1)
    wf = Workflow("staged", [stage, consumer])
    engine = build(wf, placement=FractionPlacement(input_fraction=1.0))
    trace = engine.run()
    # Stage copy: PFS read at 100 MB/s is the bottleneck → 1 s.
    assert trace.task_record("stage_in").duration == pytest.approx(1.0, rel=1e-4)
    assert engine._bb_service("cn0").contains(ext)


def test_stage_in_external_mode_charges_bb_ingest_only():
    ext = File("ext", 800 * MB)
    stage = Task(
        "stage_in", flops=0, outputs=(ext,), category=TaskCategory.STAGE_IN
    )
    consumer = Task("c", flops=SPEED, inputs=(ext,), cores=1)
    wf = Workflow("staged", [stage, consumer])
    engine = build(
        wf,
        placement=FractionPlacement(input_fraction=1.0),
        stage_in_external=True,
    )
    trace = engine.run()
    # 800 MB over the 800 MB/s BB uplink, no PFS read charge → 1 s.
    assert trace.task_record("stage_in").duration == pytest.approx(1.0, rel=1e-4)


def test_stage_in_skips_files_not_placed():
    ext = File("ext", 100 * MB)
    stage = Task(
        "stage_in", flops=0, outputs=(ext,), category=TaskCategory.STAGE_IN
    )
    consumer = Task("c", flops=SPEED, inputs=(ext,), cores=1)
    wf = Workflow("staged", [stage, consumer])
    engine = build(wf, placement=AllPFS())
    trace = engine.run()
    assert trace.task_record("stage_in").duration == pytest.approx(0.0, abs=1e-9)


def test_private_bb_falls_back_to_pfs_for_cross_host_consumers():
    """A file produced on cn0 but consumed on cn1 cannot live only in
    cn0's private allocation; the engine must route it via the PFS."""
    mid = File("mid", 10 * MB)
    a = Task("a", flops=SPEED, outputs=(mid,), cores=1)
    b = Task("b", flops=SPEED, inputs=(mid,), cores=1)
    wf = Workflow("cross", [a, b])
    assignment = {"a": "cn0", "b": "cn1"}
    engine = build(
        wf,
        placement=AllBB(),
        n_compute=2,
        host_assignment=lambda t: assignment[t.name],
    )
    trace = engine.run()
    assert engine.pfs.contains(mid)
    assert trace.task_record("b").end > 0


def test_engine_without_bb_runs_pure_pfs():
    engine = build(simple_chain(), placement=AllBB(), bb=False)
    trace = engine.run()
    assert engine.pfs.contains(File("mid", 100 * MB))


def test_engine_is_single_use():
    engine = build(simple_chain())
    engine.run()
    with pytest.raises(RuntimeError, match="single-use"):
        engine.run()


def test_trace_events_emitted():
    # Each fact lives on its record: every task's ready stamp on its
    # TaskRecord, and each staging copy as one stage op on the service
    # it fills (the BB for a stage-in, the PFS for a stage-out).
    workflow = make_swarp(n_pipelines=1, cores_per_task=4, include_stage_out=True)
    engine = build(workflow, placement=AllBB())
    trace = engine.run()
    assert sorted(trace.records) == sorted(workflow.tasks)
    for record in trace.records.values():
        assert record.ready is not None and record.ready <= record.start

    staged = {
        "stage_in": (TaskCategory.STAGE_IN, "bb-private"),
        "stage_out": (TaskCategory.STAGE_OUT, engine.pfs.name),
    }
    copies = [op for op in trace.io_operations if op.kind in staged]
    assert {op.kind for op in copies} == set(staged)
    for op in copies:
        task = workflow.task(op.task)
        category, service = staged[op.kind]
        assert task.category == category
        assert op.service == service
        moved = task.outputs if category == TaskCategory.STAGE_IN else task.inputs
        assert op.file in {f.name for f in moved}
        record = trace.records[op.task]
        assert record.start <= op.start <= op.end <= record.end
    assert len({(op.task, op.file) for op in copies}) == len(copies)

    assert not hasattr(trace, "events")
    assert trace.makespan == max(r.end for r in trace.records.values())


def test_empty_workflow_completes_immediately():
    engine = build(Workflow("empty", []))
    trace = engine.run()
    assert trace.makespan == 0.0


def test_diamond_dependencies_respected():
    f1, f2, f3, f4 = (File(f"f{i}", MB) for i in range(4))
    tasks = [
        Task("a", flops=SPEED, outputs=(f1, f2), cores=1),
        Task("b", flops=SPEED, inputs=(f1,), outputs=(f3,), cores=1),
        Task("c", flops=SPEED, inputs=(f2,), outputs=(f4,), cores=1),
        Task("d", flops=SPEED, inputs=(f3, f4), cores=1),
    ]
    engine = build(Workflow("diamond", tasks))
    trace = engine.run()
    ra = trace.task_record("a")
    rd = trace.task_record("d")
    for mid in ("b", "c"):
        r = trace.task_record(mid)
        assert ra.end <= r.start
        assert r.end <= rd.start
