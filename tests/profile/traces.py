"""Hand-built execution traces for the profiler tests.

:func:`chain_trace` builds a long dependency chain whose backward walk
takes every branch of the profiler at regular intervals: plain
dependency jumps, same-host queueing behind a releasing task, queueing
with no releaser (charged to recorded waits), and staging tasks that
are recognised only by their ``stage_in`` operation.  It costs nothing to
simulate, so it can be made as long as a scaling test needs.
"""

from __future__ import annotations

from repro.traces import ExecutionTrace, IOOperation, TaskRecord

N_HOSTS = 4


def _task(
    trace: ExecutionTrace,
    name: str,
    host: str,
    ready: float,
    start: float,
    read: float,
    compute: float,
    write: float,
) -> float:
    """Record one task with its I/O ops; return its end."""
    read_end = start + read
    compute_end = read_end + compute
    end = compute_end + write
    trace.add_record(
        TaskRecord(
            name=name, group="stage", host=host, cores=1, ready=ready,
            start=start, read_start=start, read_end=read_end,
            compute_end=compute_end, write_end=end, end=end,
        )
    )
    # Two reads finish together: the (end, file) tie rule picks "in.b".
    for file, service in (("in.a", "pfs"), ("in.b", "bb")):
        trace.log_io(
            IOOperation(name, f"{name}.{file}", service, "read", 1e6, start, read_end)
        )
    trace.log_io(
        IOOperation(name, f"{name}.out", "bb", "write", 1e6, compute_end, end)
    )
    return end


def chain_trace(n_stages: int) -> tuple[ExecutionTrace, list[dict]]:
    """A ``n_stages``-long chain plus the waits an observer would record.

    Stage ``i`` runs on host ``cn{i % 4}`` once stage ``i - 1`` ends:

    * ``i % 3 == 1``: a blocker task on the same host starts at the same
      instant, so the stage queues and the walk jumps to the releaser;
    * ``i % 7 == 2`` (otherwise): the stage queues with nothing ending on
      its host at its start, so the gap is split by two overlapping waits;
    * ``i % 5 == 0``: the stage also logs a ``stage_in`` operation and
      is charged as ``stage-in``.
    """
    trace = ExecutionTrace(f"chain-{n_stages}")
    waits: list[dict] = []
    ready = 0.0
    for i in range(n_stages):
        host = f"cn{i % N_HOSTS}"
        name = f"t{i:05d}"
        start = ready
        if i % 3 == 1:
            start = _task(trace, f"b{i:05d}", host, ready, ready, 0.5, 1.5, 0.0)
        elif i % 7 == 2:
            start = ready + 1.0
            waits.append({"task": name, "cause": "cores", "start": ready,
                          "end": ready + 0.5, "detail": host})
            waits.append({"task": name, "cause": "memory", "start": ready + 0.25,
                          "end": ready + 1.5, "detail": host})
        if i % 5 == 0:
            trace.log_io(
                IOOperation(name, f"{name}.stage", "bb", "stage_in", 1e6, start, start)
            )
        ready = _task(
            trace, name, host, ready, start,
            read=1.0 + (i % 3) * 0.25, compute=5.0 + (i % 4), write=0.5,
        )
    return trace, waits
