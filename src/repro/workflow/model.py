"""Files, tasks, and the workflow DAG."""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional


@dataclass(frozen=True)
class File:
    """A data file flowing between tasks.

    Files are identified by name; two File objects with the same name are
    the same file (and must have the same size).
    """

    name: str
    size: float  # bytes

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("file name must be non-empty")
        if self.size < 0:
            raise ValueError(f"file {self.name!r}: negative size")


class TaskCategory(str, enum.Enum):
    """Task roles the engine and experiment harnesses distinguish."""

    STAGE_IN = "stage_in"
    STAGE_OUT = "stage_out"
    COMPUTE = "compute"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Task:
    """A workflow task.

    Parameters
    ----------
    name:
        Unique task identifier.
    flops:
        Sequential compute work in flop — the platform-independent
        equivalent of the paper's ``T_c(1)`` (divide by a core speed to
        get seconds).
    inputs / outputs:
        Files read before and written after the compute phase.
    cores:
        Cores requested for execution.
    alpha:
        Amdahl's-law non-parallelizable fraction (paper Eq. 2).  The
        paper's headline model assumes ``alpha = 0`` (perfect speedup,
        Eq. 4).
    category:
        Role marker; ``STAGE_IN`` tasks are executed by the engine as
        pure data movements.
    group:
        Free-form label tying tasks of the same kind together
        (e.g. ``"resample"``), used for per-category statistics.
    memory:
        RAM the task holds while executing, in bytes (0 = unaccounted).
        Enforced by the compute service against the host's RAM.
    """

    name: str
    flops: float
    inputs: tuple[File, ...] = ()
    outputs: tuple[File, ...] = ()
    cores: int = 1
    alpha: float = 0.0
    category: TaskCategory = TaskCategory.COMPUTE
    group: str = ""
    memory: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")
        if self.flops < 0:
            raise ValueError(f"task {self.name!r}: negative flops")
        if self.cores <= 0:
            raise ValueError(f"task {self.name!r}: cores must be positive")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"task {self.name!r}: alpha must be in [0, 1]")
        if self.memory < 0:
            raise ValueError(f"task {self.name!r}: negative memory")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        names = [f.name for f in self.inputs]
        if len(set(names)) != len(names):
            raise ValueError(f"task {self.name!r}: duplicate input file")
        names = [f.name for f in self.outputs]
        if len(set(names)) != len(names):
            raise ValueError(f"task {self.name!r}: duplicate output file")

    @property
    def input_bytes(self) -> float:
        return sum(f.size for f in self.inputs)

    @property
    def output_bytes(self) -> float:
        return sum(f.size for f in self.outputs)


class Workflow:
    """A DAG of tasks with file-induced dependencies.

    Edges are derived, not declared: task B depends on task A iff some
    output file of A is an input file of B.  Construction validates that:

    * task names are unique;
    * every file name maps to a single size;
    * each file has at most one producer;
    * the induced graph is acyclic.
    """

    def __init__(self, name: str, tasks: Iterable[Task]) -> None:
        self.name = name
        self.tasks: dict[str, Task] = {}
        for task in tasks:
            if task.name in self.tasks:
                raise ValueError(f"duplicate task name {task.name!r}")
            self.tasks[task.name] = task

        # File table + single-producer validation.
        self.files: dict[str, File] = {}
        self._producer: dict[str, str] = {}
        consumers: dict[str, list[str]] = {}
        for task in self.tasks.values():
            for f in task.inputs + task.outputs:
                known = self.files.get(f.name)
                if known is None:
                    self.files[f.name] = f
                elif known.size != f.size:
                    raise ValueError(
                        f"file {f.name!r} declared with conflicting sizes "
                        f"{known.size} and {f.size}"
                    )
            for f in task.outputs:
                if f.name in self._producer:
                    raise ValueError(
                        f"file {f.name!r} produced by both "
                        f"{self._producer[f.name]!r} and {task.name!r}"
                    )
                self._producer[f.name] = task.name
            for f in task.inputs:
                consumers.setdefault(f.name, []).append(task.name)

        # Dependency graph: ordered adjacency maps (dicts used as ordered
        # sets), each edge recorded once, in first-insertion order.
        parents: dict[str, dict[str, None]] = {n: {} for n in self.tasks}
        children: dict[str, dict[str, None]] = {n: {} for n in self.tasks}
        for task in self.tasks.values():
            for f in task.inputs:
                producer = self._producer.get(f.name)
                if producer is not None and producer != task.name:
                    children[producer][task.name] = None
                    parents[task.name][producer] = None
        # Built, each adjacency is kept as a tuple in the same order: a
        # tuple is a fraction of a dict's size, and ``()`` is shared.
        self._consumers = {f: tuple(names) for f, names in consumers.items()}
        self._parents = {n: tuple(p) for n, p in parents.items()}
        self._children = {n: tuple(c) for n, c in children.items()}
        self._generations = self._topological_generations()

    def _topological_generations(self) -> list[list[str]]:
        """Kahn's algorithm, one generation (DAG depth) at a time.

        Generation ``k`` holds the tasks whose longest chain of ancestors
        has ``k`` edges, in the order Kahn's pass reaches them.  Raises
        ``ValueError`` naming a cycle if the graph is not acyclic.
        """
        indegree = {n: len(p) for n, p in self._parents.items() if p}
        generation = [n for n, p in self._parents.items() if not p]
        generations: list[list[str]] = []
        while generation:
            generations.append(generation)
            ready: list[str] = []
            for name in generation:
                for child in self._children[name]:
                    indegree[child] -= 1
                    if not indegree[child]:
                        ready.append(child)
                        del indegree[child]
            generation = ready
        if indegree:
            raise ValueError(
                f"workflow contains a cycle: {self._find_cycle(indegree)}"
            )
        return generations

    def _find_cycle(self, remaining: dict[str, int]) -> list[tuple[str, str]]:
        """Edges of one cycle through the tasks Kahn's pass left behind.

        Every task left behind has a parent that was left behind too, so
        walking parents from any of them must revisit a task.
        """
        path: list[str] = []
        index: dict[str, int] = {}
        name = next(iter(remaining))
        while name not in index:
            index[name] = len(path)
            path.append(name)
            name = next(p for p in self._parents[name] if p in remaining)
        cycle = path[index[name]:][::-1]  # each task is a parent of the next
        return [(u, cycle[(i + 1) % len(cycle)]) for i, u in enumerate(cycle)]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks.values())

    def task(self, name: str) -> Task:
        try:
            return self.tasks[name]
        except KeyError:
            raise KeyError(f"no task named {name!r}") from None

    def producer_of(self, file_name: str) -> Optional[Task]:
        """The task producing ``file_name``, or None for external inputs."""
        producer = self._producer.get(file_name)
        return self.tasks[producer] if producer else None

    def consumers_of(self, file_name: str) -> list[Task]:
        return [self.tasks[n] for n in self._consumers.get(file_name, ())]

    def parents(self, task_name: str) -> list[Task]:
        return [self.tasks[n] for n in self._parents[task_name]]

    def children(self, task_name: str) -> list[Task]:
        return [self.tasks[n] for n in self._children[task_name]]

    def topological_order(self) -> list[Task]:
        """Tasks in a valid execution order (deterministic).

        Among the ready tasks, the smallest name always goes first: the
        unique lexicographical topological order.
        """
        indegree = {n: len(p) for n, p in self._parents.items()}
        ready = [n for n, d in indegree.items() if not d]
        heapq.heapify(ready)
        order: list[Task] = []
        while ready:
            name = heapq.heappop(ready)
            order.append(self.tasks[name])
            for child in self._children[name]:
                indegree[child] -= 1
                if not indegree[child]:
                    heapq.heappush(ready, child)
        return order

    def entry_tasks(self) -> list[Task]:
        return [t for t in self.tasks.values() if not self._parents[t.name]]

    def exit_tasks(self) -> list[Task]:
        return [t for t in self.tasks.values() if not self._children[t.name]]

    def levels(self) -> list[list[Task]]:
        """Tasks grouped by DAG depth (entry tasks = level 0)."""
        return [[self.tasks[n] for n in gen] for gen in self._generations]

    # ------------------------------------------------------------------
    # File classification
    # ------------------------------------------------------------------
    def _computed_by_workflow(self, file_name: str) -> bool:
        """True if a *compute* task produces the file.

        Stage-in tasks move pre-existing data rather than computing it,
        so their outputs still count as external workflow inputs.
        """
        producer = self._producer.get(file_name)
        if producer is None:
            return False
        return self.tasks[producer].category != TaskCategory.STAGE_IN

    def external_input_files(self) -> list[File]:
        """Files consumed but not computed by the workflow (its inputs).

        Includes files "produced" by stage-in tasks: those exist in
        long-term storage before the execution starts.
        """
        return sorted(
            (
                f
                for name, f in self.files.items()
                if not self._computed_by_workflow(name) and self._consumers.get(name)
            ),
            key=lambda f: f.name,
        )

    def intermediate_files(self) -> list[File]:
        """Files both computed and consumed inside the workflow."""
        return sorted(
            (
                f
                for name, f in self.files.items()
                if self._computed_by_workflow(name) and self._consumers.get(name)
            ),
            key=lambda f: f.name,
        )

    def output_files(self) -> list[File]:
        """Files computed but never consumed (workflow outputs)."""
        return sorted(
            (
                f
                for name, f in self.files.items()
                if self._computed_by_workflow(name) and not self._consumers.get(name)
            ),
            key=lambda f: f.name,
        )

    @property
    def data_footprint(self) -> float:
        """Total bytes across all distinct files."""
        return sum(f.size for f in self.files.values())

    @property
    def total_flops(self) -> float:
        return sum(t.flops for t in self.tasks.values())

    def critical_path_flops(self) -> float:
        """Largest cumulative flops along any dependency chain."""
        best: dict[str, float] = {}
        for gen in self._generations:
            for name in gen:
                best[name] = self.tasks[name].flops + max(
                    (best[p] for p in self._parents[name]), default=0.0
                )
        return max(best.values(), default=0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Workflow {self.name!r}: {len(self.tasks)} tasks, "
            f"{len(self.files)} files, {self.data_footprint:.3e} bytes>"
        )
