"""Telemetry exporters: Chrome trace-event JSON, CSV series, manifests.

Layout of one exported run directory (``export_run``)::

    <dir>/
      manifest.json          # provenance (repro.obs.manifest)
      trace.json             # Chrome trace-event JSON (open in Perfetto)
      events.ndjson          # structured event log (repro.obs.log/1),
                             # written only when events were emitted
      metrics/
        index.csv            # metric name -> series file
        counters.csv         # metric,value
        gauges.csv           # metric,value
        <metric>.csv         # time,value  (one per time series)

``trace.json`` loads directly into https://ui.perfetto.dev or
``chrome://tracing``: task/phase spans render as nested slices on one
lane per host, and every time series renders as a counter track.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Optional

from repro.obs.observer import Observer

#: Microseconds per simulated second (Chrome trace timestamps are µs).
_US = 1e6


def _sanitize(name: str) -> str:
    """A metric name as a safe filename component."""
    return "".join(c if (c.isalnum() or c in "._-") else "-" for c in name)


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace(
    observer: Observer, *, pid: int = 1, profile: Optional[Any] = None
) -> dict[str, Any]:
    """Build a Chrome trace-event document from an observer's data.

    Spans become complete (``"ph": "X"``) events — one lane (*tid*) per
    track/host — and every time series becomes a counter (``"ph": "C"``)
    track.  Events are sorted by timestamp, so consumers (including
    :mod:`repro.obs.validate`) can rely on monotonic ``ts``.

    ``profile`` (a :class:`repro.profile.Profile`) adds a dedicated
    "critical path" lane: one slice per critical-path segment, named by
    the attributed resource, so the makespan attribution is visible
    right next to the task spans in Perfetto.
    """
    events: list[dict[str, Any]] = []

    tids: dict[str, int] = {}
    for span in observer.spans:
        tid = tids.setdefault(span.track, len(tids) + 1)
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start * _US,
                "dur": span.duration * _US,
                "pid": pid,
                "tid": tid,
                "args": dict(span.args),
            }
        )
    if profile is not None:
        tid = tids.setdefault("critical path", len(tids) + 1)
        for segment in profile.critical_path:
            events.append(
                {
                    "name": segment.resource,
                    "cat": "critical-path",
                    "ph": "X",
                    "ts": segment.start * _US,
                    "dur": segment.duration * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": {"task": segment.task, "detail": segment.detail},
                }
            )
    for name, series in sorted(observer.registry.series.items()):
        for time, value in series.items():
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": time * _US,
                    "pid": pid,
                    "tid": 0,
                    "args": {"value": value},
                }
            )
    events.sort(key=lambda e: (e["ts"], e.get("tid", 0), e["name"]))

    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro simulation"},
        }
    ]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": track},
            }
        )
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "counters": {
                name: counter.value
                for name, counter in sorted(observer.registry.counters.items())
            },
        },
    }


def write_chrome_trace(
    observer: Observer, path: "str | Path", profile: Optional[Any] = None
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(observer, profile=profile)) + "\n")
    return path


# ----------------------------------------------------------------------
# CSV time series
# ----------------------------------------------------------------------
def write_metric_csvs(observer: Observer, directory: "str | Path") -> list[Path]:
    """One ``time,value`` CSV per series plus counter/gauge/index tables.

    Returns every path written.  CSVs are plain enough for pandas,
    gnuplot, or a spreadsheet — no reader library required.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    index_rows: list[tuple[str, str]] = []
    for name, series in sorted(observer.registry.series.items()):
        filename = f"{_sanitize(name)}.csv"
        lines = ["time,value"]
        lines.extend(f"{t!r},{v!r}" for t, v in series.items())
        path = directory / filename
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
        index_rows.append((name, filename))

    index = directory / "index.csv"
    index.write_text(
        "\n".join(["metric,file"] + [f"{n},{f}" for n, f in index_rows]) + "\n"
    )
    written.append(index)

    counters = directory / "counters.csv"
    counters.write_text(
        "\n".join(
            ["metric,value"]
            + [
                f"{name},{counter.value!r}"
                for name, counter in sorted(observer.registry.counters.items())
            ]
        )
        + "\n"
    )
    written.append(counters)

    gauges = directory / "gauges.csv"
    gauges.write_text(
        "\n".join(
            ["metric,value"]
            + [
                f"{name},{gauge.value!r}"
                for name, gauge in sorted(observer.registry.gauges.items())
            ]
        )
        + "\n"
    )
    written.append(gauges)
    return written


# ----------------------------------------------------------------------
# One-call run export
# ----------------------------------------------------------------------
def export_run(
    observer: Observer,
    directory: "str | Path",
    manifest: Optional[dict[str, Any]] = None,
    profile: Optional[Any] = None,
) -> Path:
    """Write a complete telemetry directory for one run.

    ``manifest`` is the document from
    :func:`repro.obs.manifest.build_manifest`; when omitted a minimal
    one (version + metric catalogue) is generated.  ``profile`` (a
    :class:`repro.profile.Profile`) additionally writes ``profile.json``
    and the folded-stacks ``profile.folded``, and merges the
    critical-path lane into ``trace.json``.
    """
    from repro.obs.manifest import build_manifest, write_manifest

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if manifest is None:
        manifest = build_manifest(observer=observer)
    write_manifest(manifest, directory / "manifest.json")
    write_chrome_trace(observer, directory / "trace.json", profile=profile)
    write_metric_csvs(observer, directory / "metrics")
    if observer.events:
        from repro.obs.log import write_events

        # Deterministic copy: records keep ts=None (wall time only ever
        # enters via the live bus's flush stamps).
        write_events(observer.events, directory / "events.ndjson")
    if profile is not None:
        from repro.profile import write_flamegraph, write_profile

        write_profile(profile, directory / "profile.json")
        write_flamegraph(profile, directory / "profile.folded")
    bus = observer.bus
    if bus is not None:
        bus.close()
    return directory
