"""Schema checks for exported telemetry (CI's observability smoke gate).

``python -m repro.obs <dir>`` validates a directory produced by
:func:`repro.obs.exporters.export_run`.  The three formats that have no
reader are checked here:

* ``manifest.json`` — schema tag, simulator version, config shape;
* ``trace.json`` — Chrome trace-event JSON with non-negative, monotonic
  timestamps, non-negative ``dur`` on complete (``X``) events, and
  balanced ``B``/``E`` pairs;
* ``metrics/`` — parseable CSVs with non-decreasing timestamps, and
  every storage occupancy series peaking at or below the service's
  recorded capacity.

The formats that have a reader are checked by asking it, so a file
that validates always loads: ``profile.json`` by
:meth:`repro.profile.Profile.from_doc`, ``events.ndjson``'s header by
:func:`repro.obs.log.read_events`, and ``live/`` by
:func:`repro.obs.live.read_live_dir`.

Each check returns a list of human-readable error strings (empty =
valid) so tests can assert on specific failures.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.obs.manifest import MANIFEST_SCHEMA, MANIFEST_SCHEMA_V2

#: Relative slack for float-accumulation noise in capacity comparisons.
_CAPACITY_TOLERANCE = 1e-9


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def validate_manifest(doc: Any) -> list[str]:
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["manifest: document is not a JSON object"]
    if doc.get("schema") not in (MANIFEST_SCHEMA, MANIFEST_SCHEMA_V2):
        errors.append(
            f"manifest: schema is {doc.get('schema')!r}, expected "
            f"{MANIFEST_SCHEMA!r} or {MANIFEST_SCHEMA_V2!r}"
        )
    if not isinstance(doc.get("simulator_version"), str):
        errors.append("manifest: missing simulator_version")
    config = doc.get("config")
    if config is not None:
        if not isinstance(config, dict):
            errors.append("manifest: config is not an object")
        else:
            for key in ("bb_mode", "input_fraction", "intermediate_fraction", "output_fraction"):
                if key not in config:
                    errors.append(f"manifest: config missing {key!r}")
    platform = doc.get("platform")
    if platform is not None:
        # A non-dict platform used to crash with AttributeError (and a
        # crash in a list comprehension upstream let some malformed
        # manifests validate clean) — check the shape first.
        if not isinstance(platform, dict):
            errors.append("manifest: platform is not an object")
        elif not isinstance(platform.get("digest"), str):
            errors.append("manifest: platform.digest missing or not a string")
    metrics = doc.get("metrics")
    if metrics is not None and (
        not isinstance(metrics, list)
        or not all(isinstance(name, str) for name in metrics)
    ):
        errors.append("manifest: metrics is not a list of metric names")
    for key in ("workflow", "result"):
        value = doc.get(key)
        if value is not None and not isinstance(value, dict):
            errors.append(f"manifest: {key} is not an object")
    return errors


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------
def validate_chrome_trace(doc: Any) -> list[str]:
    errors: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["trace: missing traceEvents array"]

    open_begins: dict[tuple[Any, Any, Any], int] = {}
    last_ts: Optional[float] = None
    for i, event in enumerate(doc["traceEvents"]):
        if not isinstance(event, dict):
            errors.append(f"trace: event #{i} is not an object")
            continue
        phase = event.get("ph")
        if phase == "M":  # metadata events carry no timestamp
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"trace: event #{i} ({event.get('name')!r}) has no ts")
            continue
        if ts < 0:
            errors.append(f"trace: event #{i} has negative ts {ts}")
        if last_ts is not None and ts < last_ts:
            errors.append(
                f"trace: event #{i} ts {ts} precedes previous ts {last_ts} "
                "(events must be time-sorted)"
            )
        last_ts = max(ts, last_ts) if last_ts is not None else ts
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                errors.append(
                    f"trace: X event #{i} ({event.get('name')!r}) has bad dur "
                    f"{duration!r}"
                )
        elif phase == "B":
            key = (event.get("pid"), event.get("tid"), event.get("name"))
            open_begins[key] = open_begins.get(key, 0) + 1
        elif phase == "E":
            key = (event.get("pid"), event.get("tid"), event.get("name"))
            count = open_begins.get(key, 0)
            if count <= 0:
                errors.append(
                    f"trace: E event #{i} ({event.get('name')!r}) has no open B"
                )
            else:
                open_begins[key] = count - 1
    for (pid, tid, name), count in sorted(
        open_begins.items(), key=lambda kv: repr(kv[0])
    ):
        if count:
            errors.append(
                f"trace: {count} unclosed B event(s) for {name!r} "
                f"(pid={pid}, tid={tid})"
            )
    return errors


# ----------------------------------------------------------------------
# Metric CSVs
# ----------------------------------------------------------------------
def _read_kv_csv(path: Path, errors: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    lines = path.read_text().splitlines()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        name, _, raw = line.rpartition(",")
        try:
            out[name] = float(raw)
        except ValueError:
            errors.append(f"{path.name}:{lineno}: bad value {raw!r}")
    return out


def _read_series_csv(path: Path, errors: list[str]) -> list[tuple[float, float]]:
    rows: list[tuple[float, float]] = []
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "time,value":
        errors.append(f"{path.name}: missing 'time,value' header")
        return rows
    previous: Optional[float] = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            raw_t, raw_v = line.split(",", 1)
            time, value = float(raw_t), float(raw_v)
        except ValueError:
            errors.append(f"{path.name}:{lineno}: unparseable row {line!r}")
            continue
        if time < 0:
            errors.append(f"{path.name}:{lineno}: negative timestamp {time}")
        if previous is not None and time < previous:
            errors.append(
                f"{path.name}:{lineno}: timestamp {time} precedes {previous}"
            )
        previous = time
        rows.append((time, value))
    return rows


def validate_metrics_dir(directory: "str | Path") -> list[str]:
    directory = Path(directory)
    errors: list[str] = []
    index_path = directory / "index.csv"
    if not index_path.is_file():
        return [f"metrics: missing {index_path.name}"]

    series: dict[str, list[tuple[float, float]]] = {}
    for lineno, line in enumerate(index_path.read_text().splitlines()[1:], start=2):
        if not line.strip():
            continue
        metric, _, filename = line.rpartition(",")
        path = directory / filename
        if not path.is_file():
            errors.append(f"metrics: index.csv:{lineno}: missing file {filename}")
            continue
        series[metric] = _read_series_csv(path, errors)

    gauges_path = directory / "gauges.csv"
    gauges = _read_kv_csv(gauges_path, errors) if gauges_path.is_file() else {}

    # Every occupancy series must respect its service's capacity.
    for metric, rows in sorted(series.items()):
        if not (metric.startswith("storage.") and metric.endswith(".occupancy_bytes")):
            continue
        service = metric[len("storage.") : -len(".occupancy_bytes")]
        capacity = gauges.get(f"storage.{service}.capacity_bytes")
        if capacity is None:
            errors.append(f"metrics: no capacity gauge for service {service!r}")
            continue
        peak = max((v for _, v in rows), default=0.0)
        if peak > capacity * (1 + _CAPACITY_TOLERANCE):
            errors.append(
                f"metrics: {metric} peak {peak} exceeds capacity {capacity}"
            )
        if any(v < 0 for _, v in rows):
            errors.append(f"metrics: {metric} has negative occupancy samples")
    return errors


# ----------------------------------------------------------------------
# Structured event log (repro.obs.log/1)
# ----------------------------------------------------------------------
def validate_events_ndjson(path: "str | Path") -> list[str]:
    """Validate an ``events.ndjson`` stream: its header, as
    :func:`repro.obs.log.read_events` checks it, then each record's
    envelope."""
    from repro.obs.log import COMPONENTS, read_events

    try:
        records = read_events(path)
    except (OSError, json.JSONDecodeError) as error:
        return [f"events: unreadable NDJSON ({error})"]
    except ValueError as error:  # the header, or a record that is not an object
        return [f"events: {error}"]
    errors: list[str] = []
    for i, record in enumerate(records, start=1):
        missing = {"sim_time", "component", "event", "fields"} - record.keys()
        if missing:
            errors.append(
                f"events: record #{i} missing {sorted(missing)}"
            )
            continue
        if record["component"] not in COMPONENTS:
            errors.append(
                f"events: record #{i} has unknown component "
                f"{record['component']!r} (expected one of {list(COMPONENTS)})"
            )
        if not isinstance(record["sim_time"], (int, float)):
            errors.append(f"events: record #{i} has non-numeric sim_time")
        elif record["sim_time"] < 0:
            errors.append(
                f"events: record #{i} has negative sim_time {record['sim_time']}"
            )
        if not isinstance(record["event"], str) or not record["event"]:
            errors.append(f"events: record #{i} has no event name")
        if not isinstance(record["fields"], dict):
            errors.append(f"events: record #{i} fields is not an object")
        ts = record.get("ts")
        if ts is not None and not isinstance(ts, (int, float)):
            errors.append(f"events: record #{i} has non-numeric ts {ts!r}")
    return errors


# ----------------------------------------------------------------------
# Live telemetry directory (repro.obs.live/1)
# ----------------------------------------------------------------------
def validate_live_dir(directory: "str | Path") -> list[str]:
    """The problems :func:`repro.obs.live.read_live_dir` finds in a live
    directory (snapshots, events, heartbeat); mid-flight ones are valid."""
    from repro.obs.live import read_live_dir

    return read_live_dir(directory).problems


# ----------------------------------------------------------------------
# Critical-path profile
# ----------------------------------------------------------------------
def validate_profile_doc(doc: Any) -> list[str]:
    """Validate a ``profile.json`` document (schema ``repro.profile/1``).

    :meth:`repro.profile.Profile.from_doc` is the check: a document
    passes exactly when it loads.
    """
    from repro.profile.model import Profile, ProfileError

    try:
        Profile.from_doc(doc)
    except ProfileError as error:
        return [f"profile: {error}"]
    return []


# ----------------------------------------------------------------------
# Whole-directory validation
# ----------------------------------------------------------------------
def validate_obs_dir(directory: "str | Path") -> list[str]:
    """Validate a full telemetry directory; returns all errors found.

    ``profile.json``, ``events.ndjson`` and ``live/`` are optional; when
    present they must be valid too.
    """
    directory = Path(directory)
    errors: list[str] = []
    for name, check, required in (
        ("manifest.json", validate_manifest, True),
        ("trace.json", validate_chrome_trace, True),
        ("profile.json", validate_profile_doc, False),
    ):
        path = directory / name
        if not path.is_file():
            if required:
                errors.append(f"missing {name}")
            continue
        try:
            errors.extend(check(json.loads(path.read_text())))
        except json.JSONDecodeError as error:
            errors.append(f"{path.stem}: invalid JSON ({error})")

    metrics_dir = directory / "metrics"
    if metrics_dir.is_dir():
        errors.extend(validate_metrics_dir(metrics_dir))
    else:
        errors.append("missing metrics/ directory")
    if (directory / "events.ndjson").is_file():
        errors.extend(validate_events_ndjson(directory / "events.ndjson"))
    if (directory / "live").is_dir():
        errors.extend(validate_live_dir(directory / "live"))
    return errors


#: The files and directories :func:`validate_obs_dir` checks; each
#: error names one by its stem, so the CLI can print the failing file.
_CHECKED = ("manifest.json", "trace.json", "metrics", "profile.json", "events.ndjson", "live")


def error_path(directory: "str | Path", error: str) -> Path:
    """The file an error string from :func:`validate_obs_dir` refers to."""
    # "missing trace.json" and "missing metrics/ directory" name it too.
    stem = error.removeprefix("missing ").split(":")[0].split(".")[0].split("/")[0]
    name = next((name for name in _CHECKED if name.split(".")[0] == stem), "")
    return Path(directory) / name


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: validate one or more telemetry directories.

    ``python -m repro.obs DIR...`` and ``repro-obs validate DIR...`` both
    run this.  Exits non-zero when *any* directory has *any* schema
    violation, and names the failing file in each diagnostic.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Validate exported simulation telemetry "
        "(manifest, Chrome trace, metric CSVs, profile, event log, live stream).",
    )
    parser.add_argument("directories", nargs="+", help="telemetry directories")
    args = parser.parse_args(argv)

    failed = False
    for directory in args.directories:
        errors = validate_obs_dir(directory)
        if errors:
            failed = True
            for error in errors:
                print(f"{error_path(directory, error)}: {error}", file=sys.stderr)
        else:
            print(f"{directory}: ok")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
