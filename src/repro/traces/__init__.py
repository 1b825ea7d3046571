"""Execution traces: per-task records, I/O operations, ready and staging
events, and derived statistics."""

from repro.traces.events import ExecutionTrace, IOOperation, TaskRecord, TraceEvent
from repro.traces.bandwidth import achieved_bandwidths, mean_achieved_bandwidth
from repro.traces.gantt import render_gantt

__all__ = [
    "ExecutionTrace",
    "IOOperation",
    "TaskRecord",
    "TraceEvent",
    "achieved_bandwidths",
    "mean_achieved_bandwidth",
    "render_gantt",
]
