"""Differential test: the stdlib DAG in ``Workflow`` against networkx.

``Workflow`` derives its edges from files and keeps them in ordered
adjacency maps.  Schedules depend on iteration order, so every order it
exposes must equal, node for node, what networkx gives on a ``DiGraph``
built from the same files the way the simulator used to build it.
"""

from __future__ import annotations

import ast

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workflow import File, Task, Workflow
from repro.workflow.checks import lint_workflow

EXTERNAL = ("ext0", "ext1", "ext2")


def oracle_graph(tasks: list[Task]) -> nx.DiGraph:
    """The file-induced graph, built with networkx from the task list."""
    producer = {f.name: t.name for t in tasks for f in t.outputs}
    graph = nx.DiGraph()
    graph.add_nodes_from(t.name for t in tasks)
    for task in tasks:
        for f in task.inputs:
            source = producer.get(f.name)
            if source is not None and source != task.name:
                graph.add_edge(source, task.name)
    return graph


def oracle_levels(graph: nx.DiGraph) -> list[list[str]]:
    depth: dict[str, int] = {}
    for name in nx.topological_sort(graph):
        preds = list(graph.predecessors(name))
        depth[name] = 1 + max((depth[p] for p in preds), default=-1)
    out: list[list[str]] = [[] for _ in range(max(depth.values(), default=-1) + 1)]
    for name, d in depth.items():
        out[d].append(name)
    return out


def oracle_critical_path(graph: nx.DiGraph, flops: dict[str, float]) -> float:
    best: dict[str, float] = {}
    for name in nx.topological_sort(graph):
        preds = list(graph.predecessors(name))
        best[name] = flops[name] + max((best[p] for p in preds), default=0.0)
    return max(best.values(), default=0.0)


def _file(name: str) -> File:
    return File(name, size=float(len(name)))


@st.composite
def task_specs(draw, max_tasks: int = 12, cycle: bool = False):
    """(name, flops, input names, output names) per task, acyclic in list
    order unless ``cycle`` closes a loop through two or more tasks."""
    names = draw(
        st.lists(
            st.text("abcd", min_size=1, max_size=3),
            unique=True,
            min_size=2 if cycle else 0,
            max_size=max_tasks,
        )
    )
    specs = []
    produced: list[str] = []
    for name in names:
        outputs = [f"{name}.out{k}" for k in range(draw(st.integers(0, 2)))]
        if cycle:
            outputs = outputs or [f"{name}.out0"]
        # Earlier tasks' outputs (several from one parent = a duplicate
        # edge), external inputs, and the task's own outputs (no edge).
        candidates = produced + list(EXTERNAL) + outputs
        inputs = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=4))
        flops = float(draw(st.integers(0, 1000)))
        specs.append((name, flops, inputs, outputs))
        produced.extend(outputs)
    if cycle:
        loop = draw(st.permutations(range(len(specs))))[
            : draw(st.integers(2, len(specs)))
        ]
        for i, j in zip(loop, loop[1:] + loop[:1]):
            source = f"{specs[i][0]}.out0"
            if source not in specs[j][2]:
                specs[j][2].append(source)
    return draw(st.permutations(specs))


def build_tasks(specs) -> list[Task]:
    return [
        Task(
            name,
            flops=flops,
            inputs=tuple(_file(f) for f in inputs),
            outputs=tuple(_file(f) for f in outputs),
        )
        for name, flops, inputs, outputs in specs
    ]


def _names(tasks) -> list[str]:
    return [t.name for t in tasks]


def assert_matches_networkx(tasks: list[Task]) -> None:
    wf = Workflow("w", tasks)
    graph = oracle_graph(tasks)

    assert _names(wf.topological_order()) == list(
        nx.lexicographical_topological_sort(graph)
    )
    assert [_names(level) for level in wf.levels()] == oracle_levels(graph)
    for name in graph:
        assert _names(wf.parents(name)) == list(graph.predecessors(name))
        assert _names(wf.children(name)) == list(graph.successors(name))
    assert _names(wf.entry_tasks()) == [n for n in graph if graph.in_degree(n) == 0]
    assert _names(wf.exit_tasks()) == [n for n in graph if graph.out_degree(n) == 0]
    flops = {t.name: t.flops for t in tasks}
    assert wf.critical_path_flops() == oracle_critical_path(graph, flops)

    disconnected = [f for f in lint_workflow(wf) if f.code == "disconnected"]
    components = nx.number_weakly_connected_components(graph) if len(graph) else 0
    if len(wf) > 1 and components > 1:
        assert len(disconnected) == 1
        assert f"splits into {components} independent" in disconnected[0].message
    else:
        assert not disconnected


@given(task_specs())
@settings(max_examples=300, deadline=None)
def test_orders_match_networkx(specs):
    assert_matches_networkx(build_tasks(specs))


@pytest.mark.parametrize(
    "specs",
    [
        [],
        [("solo", 5.0, [], [])],
        [("solo", 5.0, ["ext0", "solo.out0"], ["solo.out0"])],
    ],
    ids=["empty", "one-task", "one-task-reads-own-output"],
)
def test_degenerate_workflows_match_networkx(specs):
    assert_matches_networkx(build_tasks(specs))


@given(task_specs(cycle=True))
@settings(max_examples=100, deadline=None)
def test_cycle_raises_and_names_a_cycle(specs):
    tasks = build_tasks(specs)
    with pytest.raises(ValueError, match="cycle") as info:
        Workflow("w", tasks)
    edges = ast.literal_eval(str(info.value).split(": ", 1)[1])
    graph = oracle_graph(tasks)
    assert edges
    assert all(graph.has_edge(u, v) for u, v in edges)
    # Consecutive edges chain and the last one returns to the start.
    assert all(v == u for (_, v), (u, _) in zip(edges, edges[1:] + edges[:1]))
    assert len({u for u, _ in edges}) == len(edges)
