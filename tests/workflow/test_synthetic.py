"""Tests for the synthetic workflow generators."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workflow.synthetic import make_chain, make_fork_join, make_random_dag
from tests.workflow.nx_view import digraph


# ----------------------------------------------------------------------
# make_chain
# ----------------------------------------------------------------------
def test_chain_structure():
    wf = make_chain(5)
    assert len(wf) == 5
    order = [t.name for t in wf.topological_order()]
    assert order == [f"stage_{i}" for i in range(5)]
    for i in range(4):
        assert [t.name for t in wf.children(f"stage_{i}")] == [f"stage_{i+1}"]


def test_chain_single_task():
    wf = make_chain(1)
    assert len(wf) == 1
    assert len(wf.external_input_files()) == 1


def test_chain_validation():
    with pytest.raises(ValueError):
        make_chain(0)


def test_chain_critical_path_is_total():
    wf = make_chain(4, task_seconds=10.0)
    assert wf.critical_path_flops() == pytest.approx(wf.total_flops)


# ----------------------------------------------------------------------
# make_fork_join
# ----------------------------------------------------------------------
def test_fork_join_structure():
    wf = make_fork_join(8)
    assert len(wf) == 10  # source + 8 workers + sink
    assert {t.name for t in wf.children("source")} == {
        f"worker_{i}" for i in range(8)
    }
    assert {t.name for t in wf.parents("sink")} == {
        f"worker_{i}" for i in range(8)
    }


def test_fork_join_levels():
    wf = make_fork_join(4)
    levels = wf.levels()
    assert [len(level) for level in levels] == [1, 4, 1]


def test_fork_join_validation():
    with pytest.raises(ValueError):
        make_fork_join(0)


# ----------------------------------------------------------------------
# make_random_dag
# ----------------------------------------------------------------------
def test_random_dag_deterministic_in_seed():
    a = make_random_dag(20, seed=7)
    b = make_random_dag(20, seed=7)
    assert set(a.tasks) == set(b.tasks)
    assert list(digraph(a).edges) == list(digraph(b).edges)
    assert a.data_footprint == b.data_footprint


def test_random_dag_seeds_differ():
    a = make_random_dag(20, seed=1)
    b = make_random_dag(20, seed=2)
    assert list(digraph(a).edges) != list(digraph(b).edges)


def test_random_dag_validation():
    with pytest.raises(ValueError):
        make_random_dag(0, seed=1)
    with pytest.raises(ValueError):
        make_random_dag(5, seed=1, edge_probability=1.5)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=100))
@settings(max_examples=30, deadline=None)
def test_random_dag_always_valid(n, seed):
    """Any seed yields an acyclic, single-producer workflow (Workflow's
    constructor enforces the invariants; this checks none ever trip)."""
    wf = make_random_dag(n, seed=seed)
    assert len(wf) == n
    assert nx.is_directed_acyclic_graph(digraph(wf))
    # Every task beyond the first has at least one parent.
    for i in range(1, n):
        assert wf.parents(f"task_{i}")


@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=50))
@settings(max_examples=20, deadline=None)
def test_random_dag_executes(n, seed):
    """Random DAGs actually run to completion on a platform."""
    from repro import des
    from repro.compute import ComputeService
    from repro.platform import Platform
    from repro.platform.presets import cori_spec
    from repro.storage import ParallelFileSystem
    from repro.wms import WorkflowEngine

    wf = make_random_dag(n, seed=seed)
    env = des.Environment()
    plat = Platform(env, cori_spec())
    engine = WorkflowEngine(
        plat,
        wf,
        ComputeService(plat, ["cn0"]),
        ParallelFileSystem(plat),
        host_assignment=lambda t: "cn0",
    )
    trace = engine.run()
    assert len(trace.records) == n
