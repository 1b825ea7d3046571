"""Span-based task lifecycle tracing.

A :class:`Span` is one named interval on a track (a host lane in the
trace viewer).  The engine emits one enclosing span per task plus one
child span per lifecycle phase — ``stage-in``/``read``/``compute``/
``write``/``stage-out`` — derived from the phase timestamps the
:class:`~repro.traces.events.TaskRecord` already collects.  Because
child spans are time-contained in the task span on the same track,
Chrome-trace viewers (Perfetto, ``chrome://tracing``) nest them
automatically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.traces.events import TaskRecord

#: Task categories whose single I/O phase is a staging copy, not a read.
_STAGE_CATEGORIES = ("stage_in", "stage_out")


@dataclass(slots=True)
class Span:
    """One named interval of simulated time on a track.

    Not frozen: a run builds one per task phase while it goes, and a
    frozen dataclass costs more than twice as much to construct.
    """

    name: str
    category: str                 # task group or lifecycle phase
    track: str                    # host lane the span renders on
    start: float
    end: float
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def spans_from_record(record: TaskRecord, category: str) -> list[Span]:
    """Task + phase spans for one completed task.

    ``category`` is the task's lifecycle category (``compute``,
    ``stage_in``, ``stage_out``).  Zero-duration phases are omitted;
    the enclosing task span is always emitted (even when instantaneous,
    so every task shows up in the viewer).
    """
    spans = [
        Span(
            name=record.name,
            category=category,
            track=record.host,
            start=record.start,
            end=record.end,
            args={
                "group": record.group,
                "cores": record.cores,
                "io_fraction": record.io_fraction,
            },
        )
    ]
    if category in _STAGE_CATEGORIES:
        # Staging tasks have one sequential copy phase spanning the task.
        phases = [(category.replace("_", "-"), record.start, record.end)]
    else:
        phases = [
            ("read", record.read_start, record.read_end),
            ("compute", record.read_end, record.compute_end),
            ("write", record.compute_end, record.write_end),
        ]
    for phase, start, end in phases:
        if end <= start:
            continue
        spans.append(
            Span(
                name=f"{record.name}:{phase}",
                category=phase,
                track=record.host,
                start=start,
                end=end,
            )
        )
    return spans
