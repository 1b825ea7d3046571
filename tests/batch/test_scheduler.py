"""Tests for the batch scheduler (FCFS + EASY backfilling)."""

import pytest

from repro import des
from repro.batch import BatchScheduler, JobRequest, JobState

NODES = [f"cn{i}" for i in range(4)]


def make_body(env, duration, log=None, name=None):
    def body(allocation):
        if log is not None:
            log.append((name or allocation.job.name, "start", env.now))
        yield env.timeout(duration)
        if log is not None:
            log.append((name or allocation.job.name, "end", env.now))

    return body


def test_job_request_validation():
    with pytest.raises(ValueError):
        JobRequest("", 1, 10)
    with pytest.raises(ValueError):
        JobRequest("j", 0, 10)
    with pytest.raises(ValueError):
        JobRequest("j", 1, 0)


def test_scheduler_requires_nodes():
    env = des.Environment()
    with pytest.raises(ValueError):
        BatchScheduler(env, [])


def test_oversized_job_rejected_at_submit():
    env = des.Environment()
    sched = BatchScheduler(env, NODES)
    with pytest.raises(ValueError, match="requests 5 nodes"):
        sched.submit(JobRequest("big", 5, 10), make_body(env, 1))


def test_job_runs_and_completes():
    env = des.Environment()
    sched = BatchScheduler(env, NODES)
    done = sched.submit(JobRequest("j", 2, 100), make_body(env, 10))
    result = env.run(until=done)
    assert result.state == JobState.COMPLETED
    assert result.start_time == 0
    assert result.end_time == 10
    assert len(result.nodes) == 2
    assert sched.free_nodes == 4


def test_fcfs_ordering():
    env = des.Environment()
    sched = BatchScheduler(env, NODES)
    log = []
    sched.submit(JobRequest("first", 4, 100), make_body(env, 10, log))
    sched.submit(JobRequest("second", 4, 100), make_body(env, 10, log))
    env.run()
    assert log == [
        ("first", "start", 0),
        ("first", "end", 10),
        ("second", "start", 10),
        ("second", "end", 20),
    ]


def test_parallel_jobs_share_machine():
    env = des.Environment()
    sched = BatchScheduler(env, NODES)
    log = []
    sched.submit(JobRequest("a", 2, 100), make_body(env, 10, log))
    sched.submit(JobRequest("b", 2, 100), make_body(env, 10, log))
    env.run()
    starts = {entry[0]: entry[2] for entry in log if entry[1] == "start"}
    assert starts == {"a": 0, "b": 0}


def test_walltime_kills_job():
    env = des.Environment()
    sched = BatchScheduler(env, NODES)
    done = sched.submit(JobRequest("slow", 1, walltime=5), make_body(env, 50))
    result = env.run(until=done)
    assert result.state == JobState.TIMEOUT
    assert result.end_time == 5
    assert sched.free_nodes == 4  # nodes reclaimed


def test_body_can_catch_walltime_interrupt():
    env = des.Environment()
    sched = BatchScheduler(env, NODES)
    cleaned = []

    def body(allocation):
        try:
            yield env.timeout(50)
        except des.Interrupt:
            cleaned.append(env.now)  # graceful shutdown work

    done = sched.submit(JobRequest("graceful", 1, walltime=5), body)
    result = env.run(until=done)
    assert cleaned == [5]
    # Finished exactly at the deadline after cleanup.
    assert result.end_time == 5


def test_easy_backfill_small_job_jumps_queue():
    """head needs the whole machine; a small short job backfills into
    the idle nodes without delaying the head."""
    env = des.Environment()
    sched = BatchScheduler(env, NODES)
    log = []
    # Runner holds 2 nodes until t=20.
    sched.submit(JobRequest("runner", 2, walltime=20), make_body(env, 20, log))
    # Head needs 4 nodes → blocked until t=20 (reservation).
    sched.submit(JobRequest("head", 4, walltime=50), make_body(env, 10, log))
    # Small job: 2 nodes, walltime 10 ≤ reservation (20) → backfills now.
    sched.submit(JobRequest("small", 2, walltime=10), make_body(env, 10, log))
    env.run()
    starts = {e[0]: e[2] for e in log if e[1] == "start"}
    assert starts["runner"] == 0
    assert starts["small"] == 0       # backfilled
    assert starts["head"] == 20       # not delayed by the backfill


def test_backfill_never_delays_head():
    """A long backfill candidate that WOULD delay the head must wait."""
    env = des.Environment()
    sched = BatchScheduler(env, NODES)
    log = []
    sched.submit(JobRequest("runner", 2, walltime=20), make_body(env, 20, log))
    sched.submit(JobRequest("head", 4, walltime=50), make_body(env, 10, log))
    # 2 nodes but walltime 30 > reservation at t=20 → must not backfill.
    sched.submit(JobRequest("long", 2, walltime=30), make_body(env, 30, log))
    env.run()
    starts = {e[0]: e[2] for e in log if e[1] == "start"}
    assert starts["head"] == 20
    assert starts["long"] >= 30  # after the head started


def test_backfill_uses_every_node_released_at_the_shadow_time():
    """Two jobs end together at t=10 and free 7 nodes; the head needs 5,
    so a long job that fits the other 2 backfills now."""
    env = des.Environment()
    sched = BatchScheduler(env, [f"cn{i}" for i in range(9)])
    log = []
    sched.submit(JobRequest("a", 3, walltime=10), make_body(env, 10, log))
    sched.submit(JobRequest("b", 4, walltime=10), make_body(env, 10, log))
    sched.submit(JobRequest("head", 5, walltime=10), make_body(env, 10, log))
    # Runs past the shadow time, but only on the head's spare nodes.
    sched.submit(JobRequest("long", 2, walltime=100), make_body(env, 100, log))
    env.run()
    starts = {e[0]: e[2] for e in log if e[1] == "start"}
    assert starts == {"a": 0, "b": 0, "long": 0, "head": 10}


def test_reservation_counts_jobs_started_in_the_same_pass():
    """At t=10 "a" starts and "head" blocks; "a"'s release at t=110 is
    the head's reservation, so the 1000 s job must not backfill."""
    env = des.Environment()
    sched = BatchScheduler(env, [f"cn{i}" for i in range(6)])
    log = []
    for name, n_nodes, walltime in [
        ("r1", 4, 10), ("r2", 2, 50), ("a", 2, 100), ("head", 6, 10),
        ("long", 2, 1000),
    ]:
        sched.submit(
            JobRequest(name, n_nodes, walltime), make_body(env, walltime, log)
        )
    env.run()
    starts = {e[0]: e[2] for e in log if e[1] == "start"}
    assert starts == {"r1": 0, "r2": 0, "a": 10, "head": 110, "long": 120}


def test_wait_time_counts_from_submission():
    env = des.Environment()
    sched = BatchScheduler(env, NODES)
    results = {}

    def submitter():
        yield env.timeout(5)
        idle = sched.submit(JobRequest("idle", 4, 100), make_body(env, 10))
        queued = sched.submit(JobRequest("queued", 4, 100), make_body(env, 10))
        results["idle"] = yield idle
        results["queued"] = yield queued

    env.process(submitter())
    env.run()
    assert results["idle"].start_time == 5
    assert results["idle"].wait_time == 0
    assert results["queued"].start_time == 15
    assert results["queued"].wait_time == 10


def test_queue_and_running_introspection():
    env = des.Environment()
    sched = BatchScheduler(env, NODES)
    sched.submit(JobRequest("a", 4, 100), make_body(env, 10))
    sched.submit(JobRequest("b", 4, 100), make_body(env, 10))
    assert sched.running_jobs == ["a"]
    assert sched.queued_jobs == ["b"]
    env.run()
    assert sched.running_jobs == []
    assert len(sched.results) == 2


def test_body_exception_propagates():
    env = des.Environment()
    sched = BatchScheduler(env, NODES)

    def bad(allocation):
        yield env.timeout(1)
        raise RuntimeError("job crashed")

    sched.submit(JobRequest("bad", 1, 100), bad)
    with pytest.raises(RuntimeError, match="job crashed"):
        env.run()
    assert sched.free_nodes == 4  # nodes still reclaimed


def test_workflow_inside_batch_job():
    """End-to-end: a job body runs a workflow engine on its nodes."""
    from repro.compute import ComputeService
    from repro.platform import Platform
    from repro.platform.presets import TABLE_I, cori_spec
    from repro.storage import ParallelFileSystem
    from repro.wms import WorkflowEngine
    from repro.workflow import Task, Workflow

    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=4))
    sched = BatchScheduler(env, [f"cn{i}" for i in range(4)])
    makespans = []

    def body(allocation):
        engine = WorkflowEngine(
            plat,
            Workflow(
                "inner",
                [
                    Task(
                        f"t{i}",
                        flops=TABLE_I["cori"]["core_speed"],
                        cores=32,
                    )
                    for i in range(len(allocation.nodes))
                ],
            ),
            ComputeService(plat, list(allocation.nodes)),
            ParallelFileSystem(plat),
        )
        # start() composes with the running simulation (run() would try
        # to drive the event loop, which is already running).
        yield engine.start()
        makespans.append(engine.trace.makespan)

    done = sched.submit(JobRequest("wf", 2, walltime=100), body)
    result = env.run(until=done)
    assert result.state == JobState.COMPLETED
    assert makespans and makespans[0] > 0
