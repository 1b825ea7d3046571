"""Execution traces: per-task records, per-file I/O operations (staging
copies included), and derived statistics."""

from repro.traces.events import ExecutionTrace, IOOperation, TaskRecord
from repro.traces.gantt import render_gantt

__all__ = [
    "ExecutionTrace",
    "IOOperation",
    "TaskRecord",
    "render_gantt",
]
