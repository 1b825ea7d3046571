"""Profile data model: the critical path and its makespan attribution.

A :class:`Profile` is the post-hoc answer to *why the makespan is what
it is*: an ordered chain of :class:`Segment`\\ s that partitions
``[0, makespan]`` exactly (the realized critical path), the per-resource
attribution derived from it, and a per-task :class:`TaskBreakdown` of
where every task's wall time went.

The **attribution invariant** is a library-level contract, not a test:
constructing a :class:`Profile` whose attribution does not sum to the
makespan within relative 1e-9 raises :class:`ProfileError`.  Consumers
(``repro.api.Result.profile()``, the ``repro-profile`` CLI, the sweep
exporters) can therefore rely on ``sum(attribution.values()) ==
makespan`` unconditionally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

#: Schema tag written into every ``profile.json``.
PROFILE_SCHEMA = "repro.profile/1"

#: Relative tolerance of the attribution == makespan invariant.
ATTRIBUTION_RTOL = 1e-9


class ProfileError(Exception):
    """A profile violated its structural invariants."""


@dataclass(frozen=True)
class Segment:
    """One interval of the critical path, charged to one resource.

    ``resource`` is a stable attribution key: ``compute``,
    ``read:<service>``, ``write:<service>``, ``stage-in``, ``stage-out``,
    ``wait:<cause>``, or ``idle`` (trace tail not covered by any task).
    """

    start: float
    end: float
    resource: str
    task: str = ""
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "start": self.start,
            "end": self.end,
            "resource": self.resource,
            "task": self.task,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "Segment":
        return cls(
            start=doc["start"],
            end=doc["end"],
            resource=doc["resource"],
            task=doc.get("task", ""),
            detail=doc.get("detail", ""),
        )


@dataclass
class TaskBreakdown:
    """Where one task's wall time went (independent of the critical path).

    ``phases`` holds active-phase seconds keyed by resource
    (``compute``, ``read:<service>``, ...); ``waits`` holds blocked
    seconds keyed by wait cause (``dependency``, ``cores``, ...).
    """

    task: str
    group: str = ""
    host: str = ""
    ready: float = 0.0
    start: float = 0.0
    end: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)
    waits: dict[str, float] = field(default_factory=dict)

    @property
    def span(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "task": self.task,
            "group": self.group,
            "host": self.host,
            "ready": self.ready,
            "start": self.start,
            "end": self.end,
            "phases": dict(sorted(self.phases.items())),
            "waits": dict(sorted(self.waits.items())),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "TaskBreakdown":
        return cls(
            task=doc["task"],
            group=doc.get("group", ""),
            host=doc.get("host", ""),
            ready=doc.get("ready", 0.0),
            start=doc.get("start", 0.0),
            end=doc.get("end", 0.0),
            phases=dict(doc.get("phases", {})),
            waits=dict(doc.get("waits", {})),
        )


def resource_class(resource: str) -> str:
    """Collapse an attribution key to a coarse resource *class*.

    Used by the diff/explain layer to phrase flips the way the paper
    does ("PFS-staging-bound" vs "compute-bound"): every PFS-touching
    I/O or staging key maps to ``pfs``, BB-touching keys to ``bb``,
    ``compute`` stays ``compute``, waits map to ``wait``.
    """
    if resource == "compute":
        return "compute"
    if resource.startswith("wait:"):
        return "wait"
    if resource in ("stage-in", "stage-out") or "pfs" in resource:
        return "pfs"
    if resource.startswith(("read:", "write:")):
        return "bb"
    return resource


class Profile:
    """A validated critical-path profile of one execution.

    Construct via :func:`repro.profile.build_profile` (from a trace) or
    :meth:`from_doc` (from a ``profile.json`` document); both enforce
    the attribution invariant.
    """

    def __init__(
        self,
        workflow: str,
        makespan: float,
        critical_path: list[Segment],
        tasks: Optional[list[TaskBreakdown]] = None,
        waits: Optional[list[dict[str, Any]]] = None,
    ) -> None:
        self.workflow = workflow
        self.makespan = makespan
        self.critical_path = sorted(critical_path, key=lambda s: s.start)
        self.tasks = tasks or []
        self.waits = waits or []
        self.attribution: dict[str, float] = {}
        for segment in self.critical_path:
            self.attribution[segment.resource] = (
                self.attribution.get(segment.resource, 0.0) + segment.duration
            )
        self._validate()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        tol = ATTRIBUTION_RTOL * max(1.0, abs(self.makespan))
        previous_end = 0.0
        for segment in self.critical_path:
            if segment.duration < -tol:
                raise ProfileError(
                    f"segment {segment.resource!r} has negative duration "
                    f"({segment.start} -> {segment.end})"
                )
            if abs(segment.start - previous_end) > tol:
                raise ProfileError(
                    f"critical path is not contiguous: segment "
                    f"{segment.resource!r} starts at {segment.start}, "
                    f"previous ended at {previous_end}"
                )
            previous_end = segment.end
        if abs(previous_end - self.makespan) > tol:
            raise ProfileError(
                f"critical path ends at {previous_end}, not at the "
                f"makespan {self.makespan}"
            )
        total = sum(self.attribution.values())
        if abs(total - self.makespan) > tol:
            raise ProfileError(
                f"attribution sums to {total}, makespan is {self.makespan} "
                f"(delta {total - self.makespan:.3e} exceeds rel {ATTRIBUTION_RTOL})"
            )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def shares(self) -> dict[str, float]:
        """Attribution as fractions of the makespan."""
        if self.makespan <= 0:
            return {k: 0.0 for k in self.attribution}
        return {k: v / self.makespan for k, v in self.attribution.items()}

    @property
    def dominant_resource(self) -> str:
        """The attribution key with the largest critical-path share."""
        if not self.attribution:
            return ""
        return max(self.attribution.items(), key=lambda kv: (kv[1], kv[0]))[0]

    @property
    def class_attribution(self) -> dict[str, float]:
        """Attribution collapsed by :func:`resource_class`."""
        out: dict[str, float] = {}
        for resource, seconds in self.attribution.items():
            cls = resource_class(resource)
            out[cls] = out.get(cls, 0.0) + seconds
        return out

    @property
    def dominant_class(self) -> str:
        """The coarse resource class dominating the critical path."""
        classes = self.class_attribution
        if not classes:
            return ""
        return max(classes.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def breakdown_for(self, task: str) -> TaskBreakdown:
        for breakdown in self.tasks:
            if breakdown.task == task:
                return breakdown
        raise KeyError(f"no breakdown for task {task!r}")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_doc(self) -> dict[str, Any]:
        return {
            "schema": PROFILE_SCHEMA,
            "workflow": self.workflow,
            "makespan": self.makespan,
            "attribution": dict(sorted(self.attribution.items())),
            "critical_path": [s.to_dict() for s in self.critical_path],
            "tasks": [t.to_dict() for t in sorted(self.tasks, key=lambda t: t.task)],
            "waits": list(self.waits),
        }

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "Profile":
        if doc.get("schema") != PROFILE_SCHEMA:
            raise ProfileError(
                f"unsupported profile schema {doc.get('schema')!r} "
                f"(expected {PROFILE_SCHEMA!r})"
            )
        profile = cls(
            workflow=doc.get("workflow", ""),
            makespan=doc["makespan"],
            critical_path=[Segment.from_dict(s) for s in doc.get("critical_path", ())],
            tasks=[TaskBreakdown.from_dict(t) for t in doc.get("tasks", ())],
            waits=list(doc.get("waits", ())),
        )
        recorded = doc.get("attribution")
        if recorded is not None:
            tol = ATTRIBUTION_RTOL * max(1.0, abs(profile.makespan))
            for resource, seconds in recorded.items():
                if abs(profile.attribution.get(resource, 0.0) - seconds) > tol:
                    raise ProfileError(
                        f"recorded attribution for {resource!r} ({seconds}) "
                        f"disagrees with the critical path "
                        f"({profile.attribution.get(resource, 0.0)})"
                    )
        return profile

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Profile {self.workflow!r}: makespan {self.makespan:.3f}s, "
            f"dominant {self.dominant_resource!r}>"
        )


def write_profile(profile: Profile, path: "str | Path") -> Path:
    """Write ``profile`` as a ``profile.json`` document."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(profile.to_doc()) + "\n")
    return path


def read_profile(path: "str | Path") -> Profile:
    """Load (and re-validate) a ``profile.json`` document."""
    return Profile.from_doc(json.loads(Path(path).read_text()))
