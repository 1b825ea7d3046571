"""Test helper: a networkx view of a workflow's dependency graph.

``Workflow`` keeps its DAG in plain adjacency maps; tests that want
graph algorithms (paths, acyclicity, edge lists) build this view from
``children()``.  Node order is task order and each node's successors
keep ``children()`` order, so ``list(digraph(wf).edges)`` lists edges
parent by parent in the workflow's own order.
"""

from __future__ import annotations

import networkx as nx

from repro.workflow.model import Workflow


def digraph(workflow: Workflow) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(workflow.tasks)
    for name in workflow.tasks:
        graph.add_edges_from((name, child.name) for child in workflow.children(name))
    return graph
