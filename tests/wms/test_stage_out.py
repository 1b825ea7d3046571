"""Tests for stage-out tasks (BB→PFS drains)."""

import pytest

from repro import des
from repro.compute import ComputeService
from repro.platform import Platform
from repro.platform.presets import TABLE_I, cori_spec
from repro.platform.units import MB
from repro.storage import BBMode, ParallelFileSystem, SharedBurstBuffer
from repro.wms import AllBB, AllPFS, WorkflowEngine
from repro.workflow import File, Task, TaskCategory, Workflow
from repro.workflow.swarp import make_swarp

SPEED = TABLE_I["cori"]["core_speed"]


def run(workflow, placement):
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


def workflow_with_stage_out():
    result = File("result", 100 * MB)
    producer = Task("produce", flops=SPEED, outputs=(result,), cores=1)
    drain = Task(
        "stage_out",
        flops=0,
        inputs=(result,),
        category=TaskCategory.STAGE_OUT,
    )
    return Workflow("drained", [producer, drain])


def test_stage_out_drains_bb_file_to_pfs():
    engine, trace = run(workflow_with_stage_out(), AllBB())
    f = File("result", 100 * MB)
    assert engine.pfs.contains(f)
    # BB read channel at 950 MB/s; PFS write at 100 MB/s → ~1 s copy.
    record = trace.task_record("stage_out")
    assert record.duration == pytest.approx(1.0, rel=1e-3)


def test_stage_out_noop_when_already_on_pfs():
    engine, trace = run(workflow_with_stage_out(), AllPFS())
    assert trace.task_record("stage_out").duration == pytest.approx(0.0, abs=1e-9)


def test_stage_out_runs_after_producer():
    engine, trace = run(workflow_with_stage_out(), AllBB())
    assert (
        trace.task_record("produce").end
        <= trace.task_record("stage_out").start
    )


def test_stage_out_registers_pfs_copy():
    engine, trace = run(workflow_with_stage_out(), AllBB())
    f = File("result", 100 * MB)
    locations = {s.name for s in engine.registry.locations(f)}
    assert "pfs" in locations


def test_swarp_with_stage_out_structure():
    wf = make_swarp(n_pipelines=2, include_stage_out=True)
    assert len(wf) == 1 + 4 + 1
    stage_out = wf.task("stage_out")
    assert stage_out.category == TaskCategory.STAGE_OUT
    # It consumes every pipeline's coadd products.
    names = {f.name for f in stage_out.inputs}
    assert names == {
        "p0/coadd.fits", "p0/coadd_w.fits", "p1/coadd.fits", "p1/coadd_w.fits"
    }
    # And depends on every combine.
    assert {t.name for t in wf.parents("stage_out")} == {"combine_0", "combine_1"}


def test_swarp_stage_out_executes_end_to_end():
    engine, trace = run(make_swarp(n_pipelines=1, include_stage_out=True), AllBB())
    assert "stage_out" in trace.records
    assert trace.makespan == trace.task_record("stage_out").end


def test_stage_out_events_logged():
    engine, trace = run(workflow_with_stage_out(), AllBB())
    drains = [op for op in trace.io_operations if op.kind == "stage_out"]
    assert drains and all(op.service == engine.pfs.name for op in drains)
