"""The scan-per-step critical-path profiler: the oracle for the tests.

This is :func:`repro.profile.build.build_profile` as it was before the
walk learned to index the trace once: every lookup (staging kind,
binding I/O op, binding predecessor, per-task waits) scans the whole
trace, so a profile costs O(records × trace size).  The production
profiler must return a :class:`~repro.profile.model.Profile` whose
``to_doc()`` is exactly equal to this one's; the differential suite in
``tests/profile/test_differential.py`` compares the two, and nothing in
``src/`` imports this copy.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.profile.model import Profile, ProfileError, Segment, TaskBreakdown
from repro.traces.events import ExecutionTrace, TaskRecord

#: Resource key for ready->start time not covered by any recorded wait.
UNATTRIBUTED = "wait:unattributed"


def _wait_fields(wait: Any) -> tuple[str, str, float, float, str]:
    """(task, cause, start, end, detail) from a WaitInterval or dict."""
    if isinstance(wait, dict):
        return (
            wait["task"],
            str(wait["cause"]),
            wait["start"],
            wait["end"],
            wait.get("detail", ""),
        )
    return (wait.task, str(wait.cause.value), wait.start, wait.end, wait.detail)


def _phase_intervals(
    record: TaskRecord, trace: ExecutionTrace
) -> list[tuple[float, float, str, str]]:
    """The task's active span as (start, end, resource, detail) pieces.

    Pieces are contiguous and ascending; zero-length phases are dropped.
    """
    staging = _staging_kind(record, trace)
    if staging is not None:
        if record.end > record.start:
            return [(record.start, record.end, staging, "")]
        return []

    pieces: list[tuple[float, float, str, str]] = []
    if record.read_end > record.read_start:
        resource, detail = _binding_io(record, trace, "read")
        pieces.append((record.read_start, record.read_end, resource, detail))
    if record.compute_end > record.read_end:
        pieces.append((record.read_end, record.compute_end, "compute", record.host))
    if record.write_end > record.compute_end:
        resource, detail = _binding_io(record, trace, "write")
        pieces.append((record.compute_end, record.write_end, resource, detail))
    # The record's start/end may extend past the phase stamps (e.g. a
    # task with no I/O and no compute); cover the remainder as compute.
    if pieces:
        first_start, last_end = pieces[0][0], pieces[-1][1]
    else:
        first_start = last_end = record.start
    if first_start > record.start:
        pieces.insert(0, (record.start, first_start, "compute", record.host))
    if record.end > last_end:
        pieces.append((last_end, record.end, "compute", record.host))
    return pieces


def _staging_kind(record: TaskRecord, trace: ExecutionTrace) -> Optional[str]:
    """``stage-in``/``stage-out`` for staging tasks, None otherwise."""
    if record.group == "stage_in":
        return "stage-in"
    if record.group == "stage_out":
        return "stage-out"
    for op in trace.io_operations:
        if op.task != record.name:
            continue
        if op.kind == "stage_in":
            return "stage-in"
        if op.kind == "stage_out":
            return "stage-out"
    return None


def _binding_io(
    record: TaskRecord, trace: ExecutionTrace, kind: str
) -> tuple[str, str]:
    """Attribute an I/O phase to the service of its last-finishing op."""
    binding = None
    for op in trace.io_operations:
        if op.task != record.name or op.kind != kind:
            continue
        if binding is None or (op.end, op.file) > (binding.end, binding.file):
            binding = op
    if binding is None:
        return kind, ""
    return f"{kind}:{binding.service}", binding.file


def _subdivide_wait_gap(
    task: str,
    ready: float,
    start: float,
    waits: list[tuple[str, str, float, float, str]],
) -> list[Segment]:
    """Partition [ready, start] into wait segments, walked backwards."""
    relevant = sorted(
        (
            (cause, max(w_start, ready), min(w_end, start), detail)
            for (w_task, cause, w_start, w_end, detail) in waits
            if w_task == task and cause != "dependency"
            and min(w_end, start) > max(w_start, ready)
        ),
        key=lambda w: (w[2], w[1]),
        reverse=True,
    )
    segments: list[Segment] = []
    cursor = start
    for cause, w_start, w_end, detail in relevant:
        w_end = min(w_end, cursor)
        w_start = min(w_start, w_end)
        if w_end < cursor:
            segments.append(Segment(w_end, cursor, UNATTRIBUTED, task=task))
        if w_end > w_start:
            segments.append(
                Segment(w_start, w_end, f"wait:{cause}", task=task, detail=detail)
            )
        cursor = w_start
        if cursor <= ready:
            break
    if cursor > ready:
        segments.append(Segment(ready, cursor, UNATTRIBUTED, task=task))
    return segments


def _ready_times(trace: ExecutionTrace) -> dict[str, float]:
    return {
        name: record.ready
        for name, record in trace.records.items()
        if record.ready is not None
    }


def _task_breakdowns(
    trace: ExecutionTrace,
    ready_times: dict[str, float],
    waits: list[tuple[str, str, float, float, str]],
) -> list[TaskBreakdown]:
    by_task: dict[str, dict[str, float]] = {}
    for w_task, cause, w_start, w_end, _ in waits:
        causes = by_task.setdefault(w_task, {})
        causes[cause] = causes.get(cause, 0.0) + (w_end - w_start)
    breakdowns = []
    for record in sorted(trace.records.values(), key=lambda r: (r.start, r.name)):
        phases: dict[str, float] = {}
        for p_start, p_end, resource, _ in _phase_intervals(record, trace):
            phases[resource] = phases.get(resource, 0.0) + (p_end - p_start)
        breakdowns.append(
            TaskBreakdown(
                task=record.name,
                group=record.group,
                host=record.host,
                ready=ready_times.get(record.name, record.start),
                start=record.start,
                end=record.end,
                phases=phases,
                waits=by_task.get(record.name, {}),
            )
        )
    return breakdowns


def build_profile(
    trace: ExecutionTrace,
    waits: Optional[Iterable[Any]] = None,
    observer: Optional[Any] = None,
) -> Profile:
    """Build a critical-path profile from an execution trace.

    ``waits`` refines ready->start gaps into per-cause resource waits;
    pass an observer's ``.waits`` list (or serialized dicts from a
    ``profile.json``).  ``observer`` is a convenience that reads
    ``observer.waits`` for you.  Both are optional: a plain trace file
    profiles fine, with resource waits reported as ``wait:unattributed``.
    """
    if waits is None and observer is not None:
        waits = observer.waits
    wait_rows = [_wait_fields(w) for w in (waits or [])]
    makespan = trace.makespan
    tol = 1e-9 * max(1.0, abs(makespan))
    ready_times = _ready_times(trace)

    records = list(trace.records.values())
    if not records or makespan <= 0:
        path = [Segment(0.0, makespan, "idle")] if makespan > 0 else []
        return Profile(trace.workflow_name, makespan, path)

    segments: list[Segment] = []
    current: Optional[TaskRecord] = max(records, key=lambda r: (r.end, r.name))
    cursor = makespan
    visited: set[str] = set()

    while cursor > tol:
        if current is None or current.name in visited:
            segments.append(Segment(0.0, cursor, "idle"))
            cursor = 0.0
            break
        visited.add(current.name)

        for p_start, p_end, resource, detail in reversed(
            _phase_intervals(current, trace)
        ):
            p_end = min(p_end, cursor)
            p_start = min(p_start, p_end)
            if p_end - p_start > 0:
                segments.append(
                    Segment(p_start, p_end, resource, task=current.name, detail=detail)
                )
                cursor = p_start

        cursor = min(cursor, current.start)
        if cursor <= tol:
            cursor = 0.0
            break
        ready = min(ready_times.get(current.name, current.start), cursor)

        if cursor - ready > tol:
            # The task queued for host resources: the binding activity
            # is the same-host task whose completion released them.
            releaser = _binding_predecessor(
                records, cursor, tol, visited, host=current.host
            )
            if releaser is not None:
                current = releaser
                continue
            # No identifiable occupant (trimmed trace, external load):
            # charge the queueing itself, per recorded cause.
            segments.extend(
                _subdivide_wait_gap(current.name, ready, cursor, wait_rows)
            )
            cursor = ready
            if cursor <= tol:
                cursor = 0.0
                break

        predecessor = _binding_predecessor(records, cursor, tol, visited)
        if predecessor is None:
            # The task was released at ``cursor`` by something that left
            # no record (e.g. a trimmed trace): the remaining prefix is
            # dependency wait on an unknown producer.
            segments.append(
                Segment(0.0, cursor, "wait:dependency", task=current.name)
            )
            cursor = 0.0
            break
        current = predecessor

    profile = Profile(
        trace.workflow_name,
        makespan,
        segments,
        tasks=_task_breakdowns(trace, ready_times, wait_rows),
        waits=[
            {
                "task": w_task,
                "cause": cause,
                "start": w_start,
                "end": w_end,
                "detail": detail,
            }
            for (w_task, cause, w_start, w_end, detail) in wait_rows
        ],
    )
    return profile


def _binding_predecessor(
    records: list[TaskRecord],
    cursor: float,
    tol: float,
    visited: set[str],
    host: Optional[str] = None,
) -> Optional[TaskRecord]:
    """The task whose completion at ``cursor`` released the walk's task.

    A task becomes ready (or gets its cores/memory) the instant another
    task completes, so the binding predecessor is a record ending
    exactly at ``cursor`` — restricted to ``host`` when resolving a
    resource release (cores and RAM are per-host).  Among ties, prefer
    one that actually ran (start < end) — a zero-duration record cannot
    explain any elapsed time — then the latest starter.
    """
    candidates = [
        r
        for r in records
        if r.name not in visited
        and abs(r.end - cursor) <= tol
        and (host is None or r.host == host)
    ]
    if not candidates:
        return None
    running = [r for r in candidates if r.start < r.end - tol]
    pool = running or candidates
    return max(pool, key=lambda r: (r.start, r.name))
