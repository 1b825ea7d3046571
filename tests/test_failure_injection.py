"""Failure-injection tests: the system fails loudly and precisely.

A simulator that silently absorbs misconfiguration produces wrong
science; these tests pin down the failure behaviour of each layer.
"""

import pytest

from repro import des
from repro.compute import AllocationError, ComputeService
from repro.platform import Platform
from repro.platform.presets import TABLE_I, cori_spec
from repro.platform.units import GB, MB
from repro.storage import (
    BBMode,
    InsufficientStorage,
    ParallelFileSystem,
    SharedBurstBuffer,
)
from repro.wms import AllBB, WorkflowEngine
from repro.workflow import File, Task, Workflow

SPEED = TABLE_I["cori"]["core_speed"]


def build(workflow, bb_capacity=None):
    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=1, n_bb_nodes=1))
    bb = SharedBurstBuffer(plat, ["bb0"], BBMode.PRIVATE, owner_host="cn0")
    if bb_capacity is not None:
        bb.capacity = bb_capacity
    engine = WorkflowEngine(
        plat,
        workflow,
        ComputeService(plat, ["cn0"]),
        ParallelFileSystem(plat),
        bb_for_host=lambda h: bb,
        placement=AllBB(),
        host_assignment=lambda t: "cn0",
    )
    return engine


def test_bb_overflow_mid_workflow_raises():
    """Writing outputs beyond the BB capacity aborts the run with a
    precise error instead of silently spilling."""
    tasks = [
        Task(
            f"t{i}",
            flops=SPEED,
            outputs=(File(f"big{i}", 600 * MB),),
            cores=1,
        )
        for i in range(3)
    ]
    engine = build(Workflow("overflow", tasks), bb_capacity=1 * GB)
    with pytest.raises(InsufficientStorage, match="cannot store"):
        engine.run()


def test_missing_route_raises_key_error():
    from repro.platform.spec import DiskSpec, HostSpec, PlatformSpec

    env = des.Environment()
    spec = PlatformSpec(
        name="isolated",
        hosts=(
            HostSpec(name="cn0", cores=4, core_speed=SPEED),
            HostSpec(
                name="pfs",
                cores=1,
                core_speed=SPEED,
                disks=(DiskSpec("lustre", read_bandwidth=1e8, write_bandwidth=1e8),),
            ),
        ),
    )
    plat = Platform(env, spec)
    pfs = ParallelFileSystem(plat)
    with pytest.raises(KeyError, match="no route"):
        env.run(until=pfs.write(File("f", MB), src_host="cn0"))


def test_task_larger_than_any_host_fails_fast():
    env = des.Environment()
    plat = Platform(env, cori_spec())
    svc = ComputeService(plat, ["cn0"])
    with pytest.raises(AllocationError):
        svc.allocator("cn0").request(33)


def test_engine_surfaces_unknown_host_assignment():
    wf = Workflow("w", [Task("t", flops=SPEED, cores=1)])
    env = des.Environment()
    plat = Platform(env, cori_spec())
    engine = WorkflowEngine(
        plat,
        wf,
        ComputeService(plat, ["cn0"]),
        ParallelFileSystem(plat),
        host_assignment=lambda t: "ghost",
    )
    with pytest.raises(KeyError, match="ghost"):
        engine.run()


def test_workflow_consuming_nonexistent_file_fails_loudly():
    """A task reading a file nobody provides aborts with the file name."""
    orphan = File("never-produced", MB)
    consumer = Task("c", flops=SPEED, inputs=(orphan,), cores=1)
    # No producer, and the engine puts external inputs on the PFS when
    # it starts — so skip that step to simulate a lost file.
    engine = build(Workflow("w", [consumer]))
    engine._initialize_files = lambda: None
    trace_error = None
    try:
        engine.run()
    except Exception as exc:  # noqa: BLE001 - asserting the message below
        trace_error = exc
    assert trace_error is not None
    assert "never-produced" in str(trace_error)
