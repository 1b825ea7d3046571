"""Execution traces: per-task records, per-file I/O operations (staging
copies included), and derived statistics."""

from repro.traces.events import ExecutionTrace, IOOperation, TaskRecord
from repro.traces.bandwidth import achieved_bandwidths, mean_achieved_bandwidth
from repro.traces.gantt import render_gantt

__all__ = [
    "ExecutionTrace",
    "IOOperation",
    "TaskRecord",
    "achieved_bandwidths",
    "mean_achieved_bandwidth",
    "render_gantt",
]
