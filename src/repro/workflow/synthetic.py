"""Synthetic workflow generators: chains, fork-joins, random DAGs.

The paper studies two concrete applications; downstream users exploring
placement or scheduling heuristics need controllable structures too.
These generators produce the classic shapes with tunable compute/data
ratios, all seeded and deterministic.
"""

from __future__ import annotations

from typing import Optional

from repro.platform.presets import TABLE_I
from repro.workflow.model import File, Task, Workflow

#: Default seconds-to-flops conversion (one calibrated Cori core).
_SPEED = TABLE_I["cori"]["core_speed"]


def make_chain(
    length: int,
    task_seconds: float = 10.0,
    file_size: float = 100e6,
    cores: int = 1,
) -> Workflow:
    """A linear pipeline: t0 → t1 → ... → t{n-1}.

    The fully-sequential extreme: makespan is the sum of stages, and
    every intermediate file is a producer-consumer handoff (the best
    case for burst-buffer locality placement).
    """
    if length <= 0:
        raise ValueError("length must be positive")
    tasks = []
    previous: Optional[File] = File("chain/input", file_size)
    for i in range(length):
        output = File(f"chain/stage_{i}", file_size)
        tasks.append(
            Task(
                f"stage_{i}",
                flops=task_seconds * _SPEED,
                inputs=(previous,),
                outputs=(output,),
                cores=cores,
                group="stage",
            )
        )
        previous = output
    return Workflow(f"chain[{length}]", tasks)


def make_fork_join(
    width: int,
    task_seconds: float = 10.0,
    file_size: float = 100e6,
    cores: int = 1,
) -> Workflow:
    """Fork-join: source → {w parallel workers} → sink.

    The bag-of-tasks extreme with synchronization at both ends — the
    structure of one SWarp "level" and of most map-reduce rounds.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    source_out = [File(f"fj/part_{i}", file_size) for i in range(width)]
    worker_out = [File(f"fj/result_{i}", file_size) for i in range(width)]
    tasks = [
        Task(
            "source",
            flops=task_seconds * _SPEED,
            inputs=(File("fj/input", file_size),),
            outputs=tuple(source_out),
            cores=cores,
            group="source",
        )
    ]
    for i in range(width):
        tasks.append(
            Task(
                f"worker_{i}",
                flops=task_seconds * _SPEED,
                inputs=(source_out[i],),
                outputs=(worker_out[i],),
                cores=cores,
                group="worker",
            )
        )
    tasks.append(
        Task(
            "sink",
            flops=task_seconds * _SPEED,
            inputs=tuple(worker_out),
            outputs=(File("fj/output", file_size),),
            cores=cores,
            group="sink",
        )
    )
    return Workflow(f"fork-join[{width}]", tasks)


def make_random_dag(
    n_tasks: int,
    seed: int,
    edge_probability: float = 0.25,
    max_task_seconds: float = 30.0,
    max_file_size: float = 200e6,
    cores: int = 1,
) -> Workflow:
    """A random layered-free DAG, deterministic in ``seed``.

    Tasks are ordered 0..n-1; an edge i→j (i < j) exists with
    ``edge_probability``, realized as a dedicated file.  Every non-first
    task is guaranteed at least one parent so the graph is connected
    enough to be interesting; task durations and file sizes are drawn
    uniformly.
    """
    if n_tasks <= 0:
        raise ValueError("n_tasks must be positive")
    if not (0.0 <= edge_probability <= 1.0):
        raise ValueError("edge_probability must be in [0, 1]")
    import numpy as np  # only this generator draws; the others are stdlib

    rng = np.random.default_rng(seed)

    inputs: dict[int, list[File]] = {i: [] for i in range(n_tasks)}
    outputs: dict[int, list[File]] = {i: [] for i in range(n_tasks)}

    for j in range(1, n_tasks):
        parents = [
            i for i in range(j) if rng.random() < edge_probability
        ]
        if not parents:
            parents = [int(rng.integers(0, j))]
        for i in parents:
            f = File(
                f"rand/e_{i}_{j}",
                float(rng.uniform(1e6, max_file_size)),
            )
            outputs[i].append(f)
            inputs[j].append(f)

    tasks = []
    for i in range(n_tasks):
        ext = (
            (File(f"rand/in_{i}", float(rng.uniform(1e6, max_file_size))),)
            if not inputs[i]
            else ()
        )
        final = (
            (File(f"rand/out_{i}", float(rng.uniform(1e6, max_file_size))),)
            if not outputs[i]
            else ()
        )
        tasks.append(
            Task(
                f"task_{i}",
                flops=float(rng.uniform(0.1, max_task_seconds)) * _SPEED,
                inputs=tuple(inputs[i]) + ext,
                outputs=tuple(outputs[i]) + final,
                cores=cores,
                group="random",
            )
        )
    return Workflow(f"random[{n_tasks},seed={seed}]", tasks)
