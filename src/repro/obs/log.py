"""The structured event log: ``repro.obs.log/1``.

Simulation subsystems never write ad-hoc text to stdout/stderr (lint
rule SIM040 rejects it); anything worth telling a human or a
tailing tool is a *structured event* published through the observer::

    obs.log_event("storage", "insufficient_storage",
                  service="bb-private", file="w1.fits", need=2.1e9)

An event record is a plain dict with a fixed envelope:

========== ===========================================================
field      meaning
========== ===========================================================
``ts``     wall-clock seconds (added by the live bus at flush time;
           ``None`` in deterministic post-run exports)
``sim_time`` simulation clock at emission
``component`` emitting subsystem (``des``, ``network``, ``storage``,
           ``compute``, ``wms``, ``sweep``)
``event``  short snake_case event name
``fields`` free-form JSON-plain payload
========== ===========================================================

Records are serialized as NDJSON: one JSON object per line, preceded by
a single header line carrying the schema tag, so a consumer can
validate the format before parsing gigabytes of events.  Post-run
exports (``events.ndjson`` in a telemetry directory) are wall-clock
free and therefore byte-identical across runs of the same
configuration; the live stream adds ``ts`` stamps.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator, Optional

#: Event-log format identifier; bump on breaking envelope changes.
LOG_SCHEMA = "repro.obs.log/1"

#: The components sanctioned to emit events (mirrors the subsystems
#: lint rule SIM040 covers, plus the observability layer itself).
COMPONENTS = ("des", "network", "storage", "compute", "wms", "sweep", "obs")


def make_event(
    sim_time: float,
    component: str,
    event: str,
    fields: Optional[dict[str, Any]] = None,
    ts: Optional[float] = None,
) -> dict[str, Any]:
    """Build one schema-conforming event record."""
    return {
        "ts": ts,
        "sim_time": sim_time,
        "component": component,
        "event": event,
        "fields": dict(fields) if fields else {},
    }


def header() -> dict[str, Any]:
    """The NDJSON stream's first line."""
    return {"schema": LOG_SCHEMA}


def write_events(
    events: "list[dict[str, Any]]", path: "str | Path"
) -> Path:
    """Write a complete event stream (header + records) as NDJSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    encode = json.JSONEncoder(sort_keys=True).encode
    lines = [encode(header())]
    lines.extend(map(encode, events))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_events(path: "str | Path") -> list[dict[str, Any]]:
    """Read an NDJSON event stream, checking the header schema tag."""
    records = list(iter_ndjson(path))
    if not records or records[0].get("schema") != LOG_SCHEMA:
        raise ValueError(
            f"{path}: not a {LOG_SCHEMA} stream "
            f"(header: {records[0] if records else 'missing'})"
        )
    return records[1:]


def iter_ndjson(path: "str | Path") -> Iterator[dict[str, Any]]:
    """Yield one parsed object per non-empty NDJSON line.

    Tolerates a truncated final line (a live producer may be mid-write);
    any other parse failure raises.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1 and not text.endswith("\n"):
                return  # mid-write tail from a live producer
            raise
