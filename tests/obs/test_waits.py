"""Wait-cause instrumentation: blocked/unblocked hooks at decision sites.

The profiler's causal signal — every interval during which a task could
not make progress is recorded with a closed-enum cause (SIM070 enforces
the closed set at call sites).
"""

import pytest

import repro
from repro import des
from repro.compute import ComputeService, CoreAllocator
from repro.obs import Observer, WaitCause, WaitInterval
from repro.platform import Platform
from repro.platform.presets import TABLE_I, cori_spec
from repro.platform.units import MB, GiB
from repro.scenarios import run_genomes, run_swarp
from repro.storage import ParallelFileSystem
from repro.storage.base import InsufficientStorage
from repro.storage.provisioning import BBProvisioner
from repro.wms import WorkflowEngine
from repro.workflow import File, Task, Workflow


# ----------------------------------------------------------------------
# Observer bookkeeping
# ----------------------------------------------------------------------
def _attached_observer(**kwargs):
    env = des.Environment()
    obs = Observer(**kwargs).attach(env)
    return env, obs


def test_blocked_then_unblocked_records_interval():
    env, obs = _attached_observer()
    obs.on_task_blocked("t", WaitCause.CORES, detail="cn0")
    env.run(until=env.timeout(3.5))
    obs.on_task_unblocked("t", WaitCause.CORES)
    assert obs.waits == [
        WaitInterval(task="t", cause=WaitCause.CORES, start=0.0, end=3.5,
                     detail="cn0")
    ]
    assert obs.waits[0].duration == 3.5
    assert obs.registry.counter("engine.wait.cores_seconds").value == 3.5


def test_zero_duration_wait_dropped():
    _, obs = _attached_observer()
    obs.on_task_blocked("t", WaitCause.DEPENDENCY)
    obs.on_task_unblocked("t", WaitCause.DEPENDENCY)
    assert obs.waits == []


def test_unmatched_unblock_ignored():
    _, obs = _attached_observer()
    obs.on_task_unblocked("ghost", WaitCause.BB_CAPACITY)
    assert obs.waits == []


def test_double_block_keeps_original_start():
    env, obs = _attached_observer()
    obs.on_task_blocked("t", WaitCause.MEMORY)
    env.run(until=env.timeout(1.0))
    obs.on_task_blocked("t", WaitCause.MEMORY)  # refresh, not restart
    env.run(until=env.timeout(1.0))
    obs.on_task_unblocked("t", WaitCause.MEMORY)
    assert obs.waits[0].start == 0.0
    assert obs.waits[0].end == 2.0


def test_distinct_causes_tracked_independently():
    env, obs = _attached_observer()
    obs.on_task_blocked("t", WaitCause.CORES)
    obs.on_task_blocked("t", WaitCause.MEMORY)
    env.run(until=env.timeout(2.0))
    obs.on_task_unblocked("t", WaitCause.CORES)
    env.run(until=env.timeout(1.0))
    obs.on_task_unblocked("t", WaitCause.MEMORY)
    assert {(w.cause, w.duration) for w in obs.waits} == {
        (WaitCause.CORES, 2.0),
        (WaitCause.MEMORY, 3.0),
    }


def test_engine_group_disabled_records_nothing():
    env, obs = _attached_observer(metrics=["storage", "network"])
    obs.on_task_blocked("t", WaitCause.CORES)
    env.run(until=env.timeout(5.0))
    obs.on_task_unblocked("t", WaitCause.CORES)
    assert obs.waits == []
    assert obs._open_waits == {}


# ----------------------------------------------------------------------
# Core allocator decision site
# ----------------------------------------------------------------------
def test_allocator_emits_cores_wait_end_to_end():
    env = des.Environment()
    obs = Observer().attach(env)
    alloc = CoreAllocator(env, 4)

    def holder(env):
        a = yield alloc.request(4, task="holder")
        yield env.timeout(5)
        a.release()

    def waiter(env):
        yield env.timeout(1)
        a = yield alloc.request(2, task="waiter")
        a.release()

    env.process(holder(env))
    env.process(waiter(env))
    env.run()
    assert [
        (w.task, w.cause, w.start, w.end) for w in obs.waits
    ] == [("waiter", WaitCause.CORES, 1.0, 5.0)]
    assert obs.registry.counter("engine.wait.cores_seconds").value == 4.0


def test_allocator_immediate_grant_emits_no_wait():
    env = des.Environment()
    obs = Observer().attach(env)
    alloc = CoreAllocator(env, 8)

    def proc(env):
        a = yield alloc.request(2, task="quick")
        a.release()

    env.run(until=env.process(proc(env)))
    assert obs.waits == []


# ----------------------------------------------------------------------
# BB provisioner decision site
# ----------------------------------------------------------------------
@pytest.fixture
def bb_platform():
    env = des.Environment()
    return Platform(env, cori_spec(n_compute=1, n_bb_nodes=2))


def test_bb_capacity_wait_through_queue(bb_platform):
    env = bb_platform.env
    obs = Observer().attach(env)
    # 2 nodes with a tiny granule budget: 2 granules total.
    prov = BBProvisioner(bb_platform, granularity=3.2e12)
    assert prov.total_granules == 4

    leases = []

    def first(env):
        event = prov.request(4 * 3.2e12, job="jobA")  # whole pool
        lease = yield event
        leases.append(("A", env.now))
        yield env.timeout(10)
        lease.release()

    def second(env):
        yield env.timeout(1)
        lease = yield prov.request(3.2e12, job="jobB")  # must queue
        leases.append(("B", env.now))
        lease.release()

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert leases == [("A", 0.0), ("B", 10.0)]
    assert [(w.task, w.cause, w.start, w.end) for w in obs.waits] == [
        ("jobB", WaitCause.BB_CAPACITY, 1.0, 10.0)
    ]
    assert obs.registry.counter(
        "engine.wait.bb_capacity_seconds"
    ).value == pytest.approx(9.0)


def test_bb_provisioner_fifo_no_backfill(bb_platform):
    env = bb_platform.env
    prov = BBProvisioner(bb_platform, granularity=3.2e12)
    order = []

    def holder(env):
        lease = yield prov.request(3 * 3.2e12, job="hold")
        yield env.timeout(10)
        lease.release()

    def big(env):
        yield env.timeout(1)
        lease = yield prov.request(2 * 3.2e12, job="big")
        order.append(("big", env.now))
        lease.release()

    def small(env):
        yield env.timeout(2)
        # One granule is free right now, but "big" is ahead in line.
        lease = yield prov.request(3.2e12, job="small")
        order.append(("small", env.now))
        lease.release()

    env.process(holder(env))
    env.process(big(env))
    env.process(small(env))
    env.run()
    assert order == [("big", 10.0), ("small", 10.0)]


def test_bb_request_larger_than_pool_raises(bb_platform):
    prov = BBProvisioner(bb_platform, granularity=3.2e12)
    with pytest.raises(InsufficientStorage):
        prov.request((prov.total_granules + 1) * 3.2e12, job="huge")
    with pytest.raises(ValueError):
        prov.request(0)


def test_bb_lease_context_manager_releases(bb_platform):
    env = bb_platform.env
    prov = BBProvisioner(bb_platform, granularity=3.2e12)

    def proc(env):
        event = prov.request(2 * 3.2e12)
        lease = yield event
        with lease:
            assert prov.free_granules == prov.total_granules - 2
        assert prov.free_granules == prov.total_granules
        lease.release()  # idempotent

    env.run(until=env.process(proc(env)))
    assert prov.free_granules == prov.total_granules


def test_bb_wait_without_observer_is_silent(bb_platform):
    """Zero-cost contract: no observer, no bookkeeping, same schedule."""
    env = bb_platform.env
    prov = BBProvisioner(bb_platform, granularity=3.2e12)
    done = []

    def first(env):
        lease = yield prov.request(4 * 3.2e12)
        yield env.timeout(5)
        lease.release()

    def second(env):
        yield env.timeout(1)
        lease = yield prov.request(3.2e12)
        done.append(env.now)
        lease.release()

    env.process(first(env))
    env.process(second(env))
    env.run()
    assert done == [5.0]


# ----------------------------------------------------------------------
# Scenario-level: real runs produce classified waits
# ----------------------------------------------------------------------
def test_swarp_records_dependency_waits():
    obs = Observer()
    run_swarp(observer=obs)
    causes = {w.cause for w in obs.waits}
    assert WaitCause.DEPENDENCY in causes
    for wait in obs.waits:
        assert wait.end > wait.start
        assert isinstance(wait.cause, WaitCause)


def test_contended_genomes_records_cores_waits():
    obs = Observer()
    run_genomes(n_chromosomes=22, observer=obs)
    causes = {w.cause for w in obs.waits}
    assert WaitCause.CORES in causes
    total = obs.registry.counter("engine.wait.cores_seconds").value
    assert total == pytest.approx(
        sum(w.duration for w in obs.waits if w.cause is WaitCause.CORES)
    )


def test_dependency_wait_ends_at_the_last_parent_for_one_or_many_parents():
    """A multi-parent task (``join``) and a single-parent task (``tail``)
    each report one DEPENDENCY interval, from the start of the run to the
    end of their last parent."""
    speed = TABLE_I["cori"]["core_speed"]
    a, b, j = (File(f"wait/{n}", 1 * MB) for n in "abj")
    workflow = Workflow("waits", [
        Task("fast", flops=5 * speed, outputs=(a,)),
        Task("slow", flops=9 * speed, outputs=(b,)),
        Task("join", flops=2 * speed, inputs=(a, b), outputs=(j,)),
        Task("tail", flops=1 * speed, inputs=(j,)),
    ])
    obs = Observer()
    trace = repro.simulate(cori_spec(n_compute=2), workflow, observer=obs).trace
    dependency = {}
    for wait in obs.waits:
        if wait.cause is WaitCause.DEPENDENCY:
            dependency.setdefault(wait.task, []).append((wait.start, wait.end))
    last_parent_end = max(trace.records[n].end for n in ("fast", "slow"))
    assert trace.records["slow"].end > trace.records["fast"].end
    assert dependency == {
        "join": [(0.0, last_parent_end)],
        "tail": [(0.0, trace.records["join"].end)],
    }


def test_metadata_gated_read_reports_its_queueing():
    """Two inputs read at once through a one-slot metadata server: the
    second read's I/O operation spans both service times, so the queueing
    shows in the trace and in the task's read phase."""
    env = des.Environment()
    Observer().attach(env)
    platform = Platform(env, cori_spec(n_compute=1))
    pfs = ParallelFileSystem(platform, metadata_service_time=0.5)
    inputs = (File("gated/x", 1), File("gated/y", 1))
    workflow = Workflow("gated", [Task("reader", flops=0.0, inputs=inputs)])
    engine = WorkflowEngine(
        platform, workflow, ComputeService(platform, ["cn0"]), pfs
    )
    trace = engine.run()
    reads = sorted(
        (op.end - op.start, op.start) for op in trace.io_operations
        if op.kind == "read"
    )
    transfer = 1 / TABLE_I["cori"]["pfs_disk_bandwidth"]
    assert [start for _, start in reads] == [0.0, 0.0]
    assert reads[0][0] == pytest.approx(0.5 + transfer, rel=1e-9)
    assert reads[1][0] == pytest.approx(1.0 + transfer, rel=1e-9)
    record = trace.records["reader"]
    assert record.read_end - record.read_start == pytest.approx(reads[1][0])


def test_wait_interval_serialization():
    interval = WaitInterval(
        task="t", cause=WaitCause.BB_CAPACITY, start=1.0, end=2.5,
        detail="bb-pool",
    )
    doc = interval.to_dict()
    assert doc == {
        "task": "t", "cause": "bb_capacity", "start": 1.0, "end": 2.5,
        "detail": "bb-pool",
    }
