"""Critical-path extraction and makespan attribution.

The profiler walks the *realized* execution backwards from the makespan
to t = 0, at every step asking "what was the binding activity in this
interval?":

* inside a task's active span, the binding activity is the phase
  covering the interval — write, compute, read, or staging — with I/O
  phases attributed to the storage service of the *binding* (last to
  finish) file operation;
* when a task queued between its ready instant and its start, the
  binding activity is whatever was *occupying the contended resource*:
  the walk jumps to the same-host task whose completion released the
  cores/memory at the start instant, so queueing time is attributed to
  the occupant's own compute/I/O (a resource-aware critical path).
  When no releasing task can be identified the gap is charged as
  ``wait:<cause>`` segments — subdivided by the observer's recorded
  :class:`~repro.obs.waits.WaitInterval`\\ s when available,
  ``wait:unattributed`` otherwise;
* at the ready instant the walk jumps to the parent task that finished
  last (the dependency that released the task), and recurses.

Per-task queueing time is never lost: it always appears in the task's
:class:`~repro.profile.model.TaskBreakdown` wait decomposition, whether
or not the critical path routes around it.

Because every step appends a segment that ends exactly where the
previous one started, the resulting chain partitions ``[0, makespan]``
and the per-resource attribution sums to the makespan *by construction*
(re-verified by :class:`~repro.profile.model.Profile` within 1e-9).

Cost: one pass indexes the trace (:class:`_TraceIndex`), after which
each walk step is a dict lookup plus a bisect over the records sorted
by end time, so a profile costs O(n log n) in the trace size.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Optional

from repro.profile.model import Profile, ProfileError, Segment, TaskBreakdown
from repro.traces.events import ExecutionTrace, IOOperation, TaskRecord

#: (task, cause, start, end, detail) of one recorded wait.
WaitRow = tuple[str, str, float, float, str]

#: Resource key for ready->start time not covered by any recorded wait.
UNATTRIBUTED = "wait:unattributed"

#: Staging resource of each stage-op kind.
_STAGING = {"stage_in": "stage-in", "stage_out": "stage-out"}


def _wait_fields(wait: Any) -> WaitRow:
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


class _TraceIndex:
    """Every per-record lookup of the walk, built in one pass each.

    The maps keep the selection rules of a full scan: the first staging
    op of a task decides its kind, and an I/O op replaces the binding
    one only if its ``(end, file)`` is strictly greater.
    """

    def __init__(self, trace: ExecutionTrace, waits: list[WaitRow]) -> None:
        self.staging: dict[str, str] = {}
        self.binding: dict[tuple[str, str], IOOperation] = {}
        for op in trace.io_operations:
            if op.kind in _STAGING:
                self.staging.setdefault(op.task, _STAGING[op.kind])
                continue
            key = (op.task, op.kind)
            binding = self.binding.get(key)
            if binding is None or (op.end, op.file) > (binding.end, binding.file):
                self.binding[key] = op

        self.waits: dict[str, list[WaitRow]] = {}
        for row in waits:
            self.waits.setdefault(row[0], []).append(row)

        by_end = sorted(trace.records.values(), key=lambda r: r.end)
        self.by_end = by_end
        self.ends = [r.end for r in by_end]
        per_host: dict[str, list[TaskRecord]] = {}
        for record in by_end:
            per_host.setdefault(record.host, []).append(record)
        self.host_ends = {
            host: ([r.end for r in rs], rs) for host, rs in per_host.items()
        }

    def ending_near(
        self, cursor: float, tol: float, host: Optional[str]
    ) -> list[TaskRecord]:
        """Records whose end lies in a window around ``cursor``.

        The window is ``2 * tol`` wide on each side, a superset of the
        ``abs(end - cursor) <= tol`` test the caller applies exactly.
        """
        if host is None:
            ends, records = self.ends, self.by_end
        elif host in self.host_ends:
            ends, records = self.host_ends[host]
        else:
            return []
        lo = bisect_left(ends, cursor - 2 * tol)
        hi = bisect_right(ends, cursor + 2 * tol, lo)
        return records[lo:hi]


def _phase_intervals(
    record: TaskRecord, index: _TraceIndex
) -> list[tuple[float, float, str, str]]:
    """The task's active span as (start, end, resource, detail) pieces.

    Pieces are contiguous and ascending; zero-length phases are dropped.
    """
    staging = _staging_kind(record, index)
    if staging is not None:
        if record.end > record.start:
            return [(record.start, record.end, staging, "")]
        return []

    pieces: list[tuple[float, float, str, str]] = []
    if record.read_end > record.read_start:
        resource, detail = _binding_io(record, index, "read")
        pieces.append((record.read_start, record.read_end, resource, detail))
    if record.compute_end > record.read_end:
        pieces.append((record.read_end, record.compute_end, "compute", record.host))
    if record.write_end > record.compute_end:
        resource, detail = _binding_io(record, index, "write")
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


def _staging_kind(record: TaskRecord, index: _TraceIndex) -> Optional[str]:
    """``stage-in``/``stage-out`` for staging tasks, None otherwise."""
    if record.group == "stage_in":
        return "stage-in"
    if record.group == "stage_out":
        return "stage-out"
    return index.staging.get(record.name)


def _binding_io(
    record: TaskRecord, index: _TraceIndex, kind: str
) -> tuple[str, str]:
    """Attribute an I/O phase to the service of its last-finishing op."""
    binding = index.binding.get((record.name, kind))
    if binding is None:
        return kind, ""
    return f"{kind}:{binding.service}", binding.file


def _subdivide_wait_gap(
    task: str,
    ready: float,
    start: float,
    waits: list[WaitRow],
) -> list[Segment]:
    """Partition [ready, start] into wait segments, walked backwards.

    ``waits`` are the task's own wait rows.
    """
    relevant = sorted(
        (
            (cause, max(w_start, ready), min(w_end, start), detail)
            for (_, cause, w_start, w_end, detail) in waits
            if cause != "dependency"
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


def _ready(record: TaskRecord) -> float:
    """When the task became ready; its start when the record has no stamp."""
    return record.start if record.ready is None else record.ready


def _task_breakdowns(
    trace: ExecutionTrace,
    waits: list[WaitRow],
    index: _TraceIndex,
) -> list[TaskBreakdown]:
    by_task: dict[str, dict[str, float]] = {}
    for w_task, cause, w_start, w_end, _ in waits:
        causes = by_task.setdefault(w_task, {})
        causes[cause] = causes.get(cause, 0.0) + (w_end - w_start)
    breakdowns = []
    for record in sorted(trace.records.values(), key=lambda r: (r.start, r.name)):
        phases: dict[str, float] = {}
        for p_start, p_end, resource, _ in _phase_intervals(record, index):
            phases[resource] = phases.get(resource, 0.0) + (p_end - p_start)
        breakdowns.append(
            TaskBreakdown(
                task=record.name,
                group=record.group,
                host=record.host,
                ready=_ready(record),
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

    records = list(trace.records.values())
    if not records or makespan <= 0:
        path = [Segment(0.0, makespan, "idle")] if makespan > 0 else []
        return Profile(trace.workflow_name, makespan, path)

    index = _TraceIndex(trace, wait_rows)
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
            _phase_intervals(current, index)
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
        ready = min(_ready(current), cursor)

        if cursor - ready > tol:
            # The task queued for host resources: the binding activity
            # is the same-host task whose completion released them.
            releaser = _binding_predecessor(
                index, cursor, tol, visited, host=current.host
            )
            if releaser is not None:
                current = releaser
                continue
            # No identifiable occupant (trimmed trace, external load):
            # charge the queueing itself, per recorded cause.
            segments.extend(
                _subdivide_wait_gap(
                    current.name, ready, cursor, index.waits.get(current.name, [])
                )
            )
            cursor = ready
            if cursor <= tol:
                cursor = 0.0
                break

        predecessor = _binding_predecessor(index, cursor, tol, visited)
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
        tasks=_task_breakdowns(trace, wait_rows, index),
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
    index: _TraceIndex,
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
        for r in index.ending_near(cursor, tol, host)
        if r.name not in visited and abs(r.end - cursor) <= tol
    ]
    if not candidates:
        return None
    running = [r for r in candidates if r.start < r.end - tol]
    pool = running or candidates
    return max(pool, key=lambda r: (r.start, r.name))
