"""Tests for the HEFT static scheduler."""

import pytest

from repro import des
from repro.compute import ComputeService
from repro.platform import Platform
from repro.platform.presets import TABLE_I, cori_spec
from repro.platform.topologies import build_fat_tree
from repro.platform.units import GB, MB
from repro.storage import ParallelFileSystem
from repro.wms import RoundRobinScheduler, WorkflowEngine, heft_assignment
from repro.workflow import File, Task, Workflow
from repro.workflow.synthetic import make_fork_join, make_random_dag

SPEED = TABLE_I["cori"]["core_speed"]


@pytest.fixture
def platform():
    env = des.Environment()
    return Platform(env, cori_spec(n_compute=4))


HOSTS = [f"cn{i}" for i in range(4)]


def test_every_task_placed(platform):
    wf = make_fork_join(6)
    assign = heft_assignment(wf, platform, HOSTS)
    for task in wf:
        assert assign(task) in HOSTS


def test_independent_tasks_spread_over_hosts(platform):
    """Equal independent tasks must not pile onto one host."""
    wf = Workflow(
        "bag", [Task(f"t{i}", flops=32 * SPEED, cores=32) for i in range(4)]
    )
    assign = heft_assignment(wf, platform, HOSTS)
    assert len({assign(t) for t in wf}) == 4


def test_serial_chain_stays_on_one_host(platform):
    """With heavy intermediate files, moving hosts costs transfers; the
    EFT choice keeps a chain co-located."""
    previous = File("c0", 2 * GB)
    tasks = [Task("t0", flops=SPEED, outputs=(previous,), cores=1)]
    for i in range(1, 4):
        out = File(f"c{i}", 2 * GB)
        tasks.append(
            Task(f"t{i}", flops=SPEED, inputs=(previous,), outputs=(out,), cores=1)
        )
        previous = out
    wf = Workflow("chain", tasks)
    assign = heft_assignment(wf, platform, HOSTS)
    assert len({assign(t) for t in wf}) == 1


def test_core_requirements_respected_in_plan(platform):
    """Two 32-core tasks can't share one 32-core host concurrently, so
    HEFT places them apart."""
    wf = Workflow(
        "pair", [Task(f"t{i}", flops=32 * SPEED, cores=32) for i in range(2)]
    )
    assign = heft_assignment(wf, platform, HOSTS)
    assert assign(wf.task("t0")) != assign(wf.task("t1"))


def test_heft_runs_through_engine(platform):
    wf = make_random_dag(15, seed=3)
    assign = heft_assignment(wf, platform, HOSTS)
    engine = WorkflowEngine(
        platform,
        wf,
        ComputeService(platform, HOSTS),
        ParallelFileSystem(platform),
        host_assignment=assign,
    )
    trace = engine.run()
    assert len(trace.records) == 15
    for record in trace.records.values():
        assert record.host == assign.placement[record.name]


def test_heft_no_worse_than_round_robin_on_bags():
    """On a bag of unequal tasks HEFT's EFT placement beats blind RR."""
    def makespan(schedule_factory):
        env = des.Environment()
        plat = Platform(env, cori_spec(n_compute=2))
        wf = Workflow(
            "bag",
            [
                Task(f"big{i}", flops=32 * SPEED, cores=32)
                for i in range(2)
            ]
            + [
                Task(f"small{i}", flops=8 * SPEED, cores=8)
                for i in range(2)
            ],
        )
        hosts = ["cn0", "cn1"]
        engine = WorkflowEngine(
            plat,
            wf,
            ComputeService(plat, hosts),
            ParallelFileSystem(plat),
            host_assignment=schedule_factory(wf, plat, hosts),
        )
        return engine.run().makespan

    heft = makespan(lambda wf, plat, hosts: heft_assignment(wf, plat, hosts))
    rr = makespan(lambda wf, plat, hosts: RoundRobinScheduler())
    assert heft <= rr + 1e-9


def test_heft_with_custom_comm_bytes(platform):
    wf = make_fork_join(3)
    assign = heft_assignment(
        wf, platform, HOSTS, comm_bytes=lambda parent, child: 0.0
    )
    assert set(assign.placement) == set(wf.tasks)


def test_heft_validation(platform):
    with pytest.raises(ValueError):
        heft_assignment(make_fork_join(2), platform, [])


def test_heft_on_fat_tree():
    """Cross-pod transfer costs enter the plan on a real fabric."""
    env = des.Environment()
    spec = build_fat_tree(pods=2, nodes_per_pod=2)
    plat = Platform(env, spec)
    hosts = [h.name for h in spec.hosts_with_role("compute")]
    wf = make_random_dag(12, seed=8)
    assign = heft_assignment(wf, plat, hosts)
    engine = WorkflowEngine(
        plat,
        wf,
        ComputeService(plat, hosts),
        ParallelFileSystem(plat),
        host_assignment=assign,
    )
    assert len(engine.run().records) == 12


# ----------------------------------------------------------------------
# Property: HEFT always yields a complete, valid, dependency-safe plan
# ----------------------------------------------------------------------
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workflow.synthetic import make_random_dag as _make_random_dag


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=30))
@settings(max_examples=20, deadline=None)
def test_heft_places_every_task_on_random_dags(n, seed):
    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=3))
    hosts = ["cn0", "cn1", "cn2"]
    wf = _make_random_dag(n, seed=seed)
    assign = heft_assignment(wf, plat, hosts)
    assert set(assign.placement) == set(wf.tasks)
    assert set(assign.placement.values()) <= set(hosts)


@given(st.integers(min_value=2, max_value=15), st.integers(min_value=0, max_value=20))
@settings(max_examples=10, deadline=None)
def test_heft_plans_execute_correctly(n, seed):
    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=3))
    hosts = ["cn0", "cn1", "cn2"]
    wf = _make_random_dag(n, seed=seed)
    engine = WorkflowEngine(
        plat,
        wf,
        ComputeService(plat, hosts),
        ParallelFileSystem(plat),
        host_assignment=heft_assignment(wf, plat, hosts),
    )
    trace = engine.run()
    for task in wf:
        record = trace.task_record(task.name)
        for parent in wf.parents(task.name):
            assert trace.task_record(parent.name).end <= record.start + 1e-9
