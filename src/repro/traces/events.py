"""Execution traces (the simulator's primary output).

The paper: "the simulator simulates the execution of the workflow and
outputs a time-stamped event trace.  The date of the last event, which
corresponds to the last task completion, gives the overall makespan."
Here each fact lives once, on the record that owns it: a task's stamps
(ready, start, phase ends, end) on its :class:`TaskRecord`, and each
file movement — a read, a write or a staging copy — on an
:class:`IOOperation`.  The makespan is the latest task end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional


@dataclass(frozen=True, slots=True)
class IOOperation:
    """One file-level I/O operation (a Darshan-style log line)."""

    task: str
    file: str
    service: str      # storage service name
    kind: str         # "read" | "write" | "stage_in" | "stage_out"
    size: float       # bytes
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def bandwidth(self) -> Optional[float]:
        """Achieved bandwidth, or None for instantaneous operations."""
        if self.duration <= 0:
            return None
        return self.size / self.duration

    def to_dict(self) -> dict[str, Any]:
        return {
            "task": self.task,
            "file": self.file,
            "service": self.service,
            "kind": self.kind,
            "size": self.size,
            "start": self.start,
            "end": self.end,
        }


@dataclass(slots=True)
class TaskRecord:
    """Aggregated timing of one executed task."""

    name: str
    group: str
    host: str
    cores: int
    #: When the task's dependencies were met; None when unknown (a
    #: hand-built record), read as ``start``.
    ready: Optional[float] = None
    start: float = 0.0
    read_start: float = 0.0
    read_end: float = 0.0
    compute_end: float = 0.0
    write_end: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def read_time(self) -> float:
        return self.read_end - self.read_start

    @property
    def compute_time(self) -> float:
        return self.compute_end - self.read_end

    @property
    def write_time(self) -> float:
        return self.write_end - self.compute_end

    @property
    def io_time(self) -> float:
        return self.read_time + self.write_time

    @property
    def io_fraction(self) -> float:
        """Observed λ_io of this execution (Eq. 1's input)."""
        return self.io_time / self.duration if self.duration > 0 else 0.0


class ExecutionTrace:
    """Per-task records and per-file I/O operations of one workflow
    execution."""

    def __init__(self, workflow_name: str = "") -> None:
        self.workflow_name = workflow_name
        self.records: dict[str, TaskRecord] = {}
        self.io_operations: list[IOOperation] = []

    def log_io(self, operation: IOOperation) -> None:
        self.io_operations.append(operation)

    def add_record(self, record: TaskRecord) -> None:
        self.records[record.name] = record

    # ------------------------------------------------------------------
    # I/O operation queries
    # ------------------------------------------------------------------
    def io_for_task(self, task: str) -> list[IOOperation]:
        return [op for op in self.io_operations if op.task == task]

    def io_for_service(self, service: str) -> list[IOOperation]:
        return [op for op in self.io_operations if op.service == service]

    def service_bytes(self) -> dict[str, float]:
        """Total bytes moved through each storage service."""
        out: dict[str, float] = {}
        for op in self.io_operations:
            out[op.service] = out.get(op.service, 0.0) + op.size
        return out

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """The latest task end (last task completion)."""
        return max((r.end for r in self.records.values()), default=0.0)

    def task_record(self, name: str) -> TaskRecord:
        try:
            return self.records[name]
        except KeyError:
            raise KeyError(f"no record for task {name!r}") from None

    def records_in_group(self, group: str) -> list[TaskRecord]:
        return sorted(
            (r for r in self.records.values() if r.group == group),
            key=lambda r: r.name,
        )

    def group_mean_duration(self, group: str) -> float:
        records = self.records_in_group(group)
        if not records:
            raise KeyError(f"no tasks in group {group!r}")
        return sum(r.duration for r in records) / len(records)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self, path: "str | Path | None" = None) -> str:
        doc = {
            "workflow": self.workflow_name,
            "makespan": self.makespan,
            "tasks": [
                {
                    "name": r.name,
                    "group": r.group,
                    "host": r.host,
                    "cores": r.cores,
                    "ready": r.ready,
                    "start": r.start,
                    "end": r.end,
                    "read_start": r.read_start,
                    "read_end": r.read_end,
                    "compute_end": r.compute_end,
                    "write_end": r.write_end,
                }
                for r in sorted(self.records.values(), key=lambda r: r.start)
            ],
            "io_operations": [op.to_dict() for op in self.io_operations],
        }
        text = json.dumps(doc)
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, source: "str | dict[str, Any]") -> "ExecutionTrace":
        """Re-load a trace exported with :meth:`to_json`.

        ``source`` is the JSON text (or the already-parsed document).
        Task records and I/O operations round-trip.  Older documents
        load too: task entries written before raw phase timestamps were
        exported are reconstructed from the derived durations (phases are
        contiguous from ``start``, which is how the engine records them),
        and of an ``"events"`` log only each task's first ``task_ready``
        is kept, as its record's ``ready``.  The other kinds (the
        records' stamps repeated, staging-copy marks) are dropped; no
        staging operation is made from them.
        """
        doc = json.loads(source) if isinstance(source, str) else source
        trace = cls(doc.get("workflow", ""))
        ready: dict[str, float] = {}
        for e in doc.get("events", ()):
            if e["kind"] == "task_ready":
                ready.setdefault(e.get("task", ""), e["time"])
        for t in doc.get("tasks", ()):
            start = t["start"]
            if "read_end" in t:
                read_start = t.get("read_start", start)
                read_end = t["read_end"]
                compute_end = t["compute_end"]
                write_end = t["write_end"]
            else:
                read_start = start
                read_end = read_start + t.get("read_time", 0.0)
                compute_end = read_end + t.get("compute_time", 0.0)
                write_end = compute_end + t.get("write_time", 0.0)
            trace.add_record(
                TaskRecord(
                    name=t["name"],
                    group=t.get("group", ""),
                    host=t.get("host", ""),
                    cores=t.get("cores", 1),
                    ready=t.get("ready", ready.get(t["name"])),
                    start=start,
                    read_start=read_start,
                    read_end=read_end,
                    compute_end=compute_end,
                    write_end=write_end,
                    end=t["end"],
                )
            )
        for op in doc.get("io_operations", ()):
            trace.log_io(
                IOOperation(
                    task=op["task"],
                    file=op["file"],
                    service=op["service"],
                    kind=op["kind"],
                    size=op["size"],
                    start=op["start"],
                    end=op["end"],
                )
            )
        return trace

    @classmethod
    def from_json_file(cls, path: "str | Path") -> "ExecutionTrace":
        """Re-load a trace from a file written by :meth:`to_json`."""
        return cls.from_json(Path(path).read_text())
