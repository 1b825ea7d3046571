"""Workflow linting: catch modelling mistakes before simulating them.

The Workflow constructor enforces hard invariants (DAG-ness, single
producers, consistent sizes); this linter flags the *soft* smells that
usually mean a modelling bug — zero-work tasks, dangling outputs,
unreachable islands, core requests no preset host satisfies — without
refusing to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.workflow.model import TaskCategory, Workflow


@dataclass(frozen=True)
class LintFinding:
    severity: str   # "warning" | "info"
    code: str       # short machine-readable id
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.severity}] {self.code}: {self.message}"


def _count_components(workflow: Workflow) -> int:
    """Number of weakly connected components (union-find over the edges)."""
    root = {name: name for name in workflow.tasks}

    def find(name: str) -> str:
        while root[name] != name:
            root[name] = root[root[name]]
            name = root[name]
        return name

    components = len(root)
    for name in workflow.tasks:
        for child in workflow.children(name):
            a, b = find(name), find(child.name)
            if a != b:
                root[a] = b
                components -= 1
    return components


def lint_workflow(
    workflow: Workflow,
    max_host_cores: Optional[int] = None,
) -> list[LintFinding]:
    """Return the lint findings for ``workflow`` (empty = clean)."""
    findings: list[LintFinding] = []

    # Zero-work compute tasks (stage-in/out are legitimately workless).
    for task in workflow:
        if task.category == TaskCategory.COMPUTE and task.flops == 0:
            findings.append(
                LintFinding(
                    "warning",
                    "zero-flops",
                    f"compute task {task.name!r} has zero flops — it will "
                    "finish instantly except for I/O",
                )
            )

    # Tasks with neither inputs nor outputs: pure compute islands.
    for task in workflow:
        if not task.inputs and not task.outputs and len(workflow) > 1:
            findings.append(
                LintFinding(
                    "info",
                    "detached-task",
                    f"task {task.name!r} exchanges no files — it runs "
                    "independently of the rest of the workflow",
                )
            )

    # Disconnected components (beyond one) often mean a typo'd file name.
    if len(workflow) > 1:
        components = _count_components(workflow)
        if components > 1:
            findings.append(
                LintFinding(
                    "info",
                    "disconnected",
                    f"workflow splits into {components} independent "
                    "components",
                )
            )

    # Core requests beyond the target host size get silently clamped by
    # the engine; better to know up front.
    if max_host_cores is not None:
        for task in workflow:
            if task.cores > max_host_cores:
                findings.append(
                    LintFinding(
                        "warning",
                        "cores-clamped",
                        f"task {task.name!r} requests {task.cores} cores but "
                        f"the largest host has {max_host_cores} — the engine "
                        "will clamp it",
                    )
                )

    # Very skewed file sizes can indicate unit mistakes (bytes vs MB).
    sizes = [f.size for f in workflow.files.values() if f.size > 0]
    if len(sizes) >= 2:
        ratio = max(sizes) / min(sizes)
        if ratio > 1e9:
            findings.append(
                LintFinding(
                    "warning",
                    "size-skew",
                    f"file sizes span {ratio:.1e}x — check units "
                    "(bytes vs MB?)",
                )
            )

    # Tasks reading their own outputs would already fail DAG checks;
    # but a task whose output is never read and never marked as a final
    # product of an exit task is suspicious.
    exit_names = {t.name for t in workflow.exit_tasks()}
    for task in workflow:
        if task.name in exit_names:
            continue
        for f in task.outputs:
            if not workflow.consumers_of(f.name):
                findings.append(
                    LintFinding(
                        "info",
                        "unused-output",
                        f"file {f.name!r} produced by non-exit task "
                        f"{task.name!r} is never consumed",
                    )
                )

    return findings
