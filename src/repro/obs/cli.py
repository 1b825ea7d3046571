"""``repro-obs`` — validate, watch, and report on telemetry.

Three subcommands over the observability file formats:

* ``repro-obs validate <dir>...`` — schema-check exported telemetry
  directories (same checks as ``python -m repro.obs``);
* ``repro-obs watch <live-dir>`` — tail a live directory
  (``repro.obs.live/1``) and render progress.  A sweep's stream (its
  records carry a ``sweep_id``) shows completed/cached/failed counts,
  the in-flight points and how long each has run, p50/p99 point
  latency, and an ETA; a single run's stream shows its sim time and
  record counts.  ``--once`` renders a single frame and exits — it
  works on finished directories too;
* ``repro-obs report <live-dir> -o report.html`` — write a
  self-contained static HTML report (stat tiles, a point-duration
  histogram, and the point table) from the same stream.

The watcher is a harness tool: it reads the host clock to compute
heartbeat ages (pragma-suppressed SIM001), never the simulation clock.
"""

from __future__ import annotations

import argparse
import html
import json
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

from repro.obs.log import iter_ndjson
from repro.obs.validate import error_path, validate_obs_dir

#: Heartbeat age (s) past which a live run is flagged as possibly stalled.
STALL_AFTER_S = 30.0


# ----------------------------------------------------------------------
# Live-directory loading
# ----------------------------------------------------------------------
class WatchError(RuntimeError):
    """The directory does not contain a recognizable live stream."""


def load_live_dir(directory: "str | Path") -> dict[str, Any]:
    """Read a live directory into one state dict.

    Returns ``{"kind": "sweep" | "run", "heartbeat": ..., "events":
    [...]}``: a stream whose records carry a ``sweep_id`` is a sweep,
    any other is a single run.  Raises :class:`WatchError` when there
    is no heartbeat to key off.
    """
    directory = Path(directory)
    heartbeat_path = directory / "heartbeat.json"
    if not heartbeat_path.is_file():
        raise WatchError(
            f"{directory}: no heartbeat.json — not a live telemetry "
            "directory (pass a --live sweep dir or an obs live/ dir)"
        )
    stream = directory / "events.ndjson"
    events: list[dict[str, Any]] = []
    if stream.is_file():
        events = [r for r in iter_ndjson(stream) if "schema" not in r]
    return {
        "kind": "sweep" if any("sweep_id" in r for r in events) else "run",
        "directory": directory,
        "heartbeat": json.loads(heartbeat_path.read_text()),
        "events": events,
    }


def point_durations(events: "list[dict[str, Any]]") -> list[float]:
    """Wall-time samples of settled point attempts, in stream order."""
    return [
        float(e["duration"])
        for e in events
        if e.get("kind") in ("point_completed", "point_failed", "point_retry")
        and isinstance(e.get("duration"), (int, float))
    ]


def sweep_view(
    events: "list[dict[str, Any]]",
) -> tuple[str, dict[str, Any], dict[str, float]]:
    """(sweep id, latest progress, in-flight points) of a sweep stream.

    A point is in flight from its ``point_started`` record until any
    later record names it; the value is that record's ``ts``, the
    wall-clock start of the attempt.
    """
    sweep_id, progress = "?", {}
    in_flight: dict[str, float] = {}
    for record in events:
        sweep_id = record.get("sweep_id", sweep_id)
        progress = record.get("progress", progress)
        pid = record.get("point_id")
        if pid is None:
            continue
        if record.get("kind") == "point_started":
            in_flight[pid] = float(record["ts"])
        else:
            in_flight.pop(pid, None)
    return sweep_id, progress, dict(sorted(in_flight.items()))


def quantile(samples: "list[float]", q: float) -> Optional[float]:
    """Nearest-rank quantile of raw samples (``None`` when empty)."""
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def sweep_eta(
    progress: dict[str, Any], durations: "list[float]"
) -> Optional[float]:
    """Naive remaining-time estimate: remaining × mean ÷ parallelism."""
    total = progress.get("total") or 0
    done = sum(
        progress.get(k) or 0 for k in ("completed", "cached", "failed")
    )
    remaining = total - done
    if remaining <= 0 or not durations:
        return None
    mean = sum(durations) / len(durations)
    workers = max(1.0, float(progress.get("in_flight") or 0))
    return remaining * mean / workers


def _format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if value >= 120:
        return f"{value / 60:.1f}m"
    return f"{value:.1f}s"


# ----------------------------------------------------------------------
# watch
# ----------------------------------------------------------------------
def render_sweep(state: dict[str, Any], now: float) -> str:
    """One text frame of sweep progress."""
    heartbeat = state["heartbeat"]
    sweep_id, progress, in_flight = sweep_view(state["events"])
    closed = bool(heartbeat.get("closed"))
    age = now - float(heartbeat.get("ts", now))
    total = int(progress.get("total") or 0)
    completed = int(progress.get("completed") or 0)
    cached = int(progress.get("cached") or 0)
    failed = int(progress.get("failed") or 0)
    retried = int(progress.get("retried") or 0)
    done = completed + cached + failed

    if closed:
        status = "FAILED" if failed else "DONE"
    elif age > STALL_AFTER_S:
        status = f"STALLED? (heartbeat {age:.0f}s ago)"
    else:
        status = f"RUNNING (heartbeat {age:.1f}s ago)"

    width = 30
    filled = round(width * done / total) if total else width
    bar = "#" * filled + "." * (width - filled)

    lines = [
        f"sweep {sweep_id} — {status}",
        f"  [{bar}] {done}/{total} points — "
        f"{completed} completed, {cached} cached, {failed} failed, "
        f"{retried} retried",
    ]
    if in_flight:
        lines.append(f"  in flight ({len(in_flight)}):")
        for pid, started in in_flight.items():
            lines.append(f"    {pid} — running {now - started:.1f}s")
    durations = point_durations(state["events"])
    p50 = quantile(durations, 0.50)
    p99 = quantile(durations, 0.99)
    eta = None if closed else sweep_eta(progress, durations)
    lines.append(
        f"  point latency p50 {_format_seconds(p50)}  "
        f"p99 {_format_seconds(p99)}"
        + (f"   ETA ~{_format_seconds(eta)}" if eta is not None else "")
    )
    return "\n".join(lines)


def render_run(state: dict[str, Any], now: float) -> str:
    """One text frame of a single simulation's live bus."""
    heartbeat = state["heartbeat"]
    closed = bool(heartbeat.get("closed"))
    age = now - float(heartbeat.get("ts", now))
    if closed:
        status = "DONE"
    elif age > STALL_AFTER_S:
        status = f"STALLED? (heartbeat {age:.0f}s ago)"
    else:
        status = f"RUNNING (heartbeat {age:.1f}s ago)"
    lines = [
        f"run {state['directory']} — {status}",
        f"  sim time {heartbeat.get('sim_time') or 0.0:.1f}s — "
        f"{heartbeat.get('seq', 0)} flushes, "
        f"{len(state['events'])} bus records, "
        f"{heartbeat.get('dropped', 0)} dropped",
    ]
    kinds: dict[str, int] = {}
    for record in state["events"]:
        kind = record.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
    if kinds:
        summary = ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
        lines.append(f"  {summary}")
    return "\n".join(lines)


def render(state: dict[str, Any], now: float) -> str:
    if state["kind"] == "sweep":
        return render_sweep(state, now)
    return render_run(state, now)


def watch(directory: "str | Path", once: bool, interval: float) -> int:
    """Render the live directory until it closes (or once)."""
    while True:
        try:
            state = load_live_dir(directory)
        except WatchError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        now = time.time()  # lint: ignore[SIM001] — harness wall clock
        print(render(state, now))
        if once or state["heartbeat"].get("closed"):
            return 0
        time.sleep(interval)
        print()


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
_REPORT_CSS = """\
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--text-primary);
}
.viz-root {
  color-scheme: light;
  --page:           #f9f9f7;
  --surface-1:      #fcfcfb;
  --text-primary:   #0b0b0b;
  --text-secondary: #52514e;
  --text-muted:     #898781;
  --gridline:       #e1e0d9;
  --border:         rgba(11,11,11,0.10);
  --series-1:       #2a78d6;
  --status-good:    #0ca30c;
  --status-critical:#d03b3b;
  --status-warning: #fab219;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page:           #0d0d0d;
    --surface-1:      #1a1a19;
    --text-primary:   #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted:     #898781;
    --gridline:       #2c2c2a;
    --border:         rgba(255,255,255,0.10);
    --series-1:       #3987e5;
    --status-good:    #0ca30c;
    --status-critical:#d03b3b;
    --status-warning: #fab219;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --page:           #0d0d0d;
  --surface-1:      #1a1a19;
  --text-primary:   #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted:     #898781;
  --gridline:       #2c2c2a;
  --border:         rgba(255,255,255,0.10);
  --series-1:       #3987e5;
  --status-good:    #0ca30c;
  --status-critical:#d03b3b;
  --status-warning: #fab219;
}
h1 { font-size: 20px; margin: 0 0 4px; }
.subtitle { color: var(--text-secondary); margin: 0 0 20px; font-size: 13px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 24px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 110px;
}
.tile .label { font-size: 12px; color: var(--text-secondary); }
.tile .value { font-size: 24px; margin-top: 2px; }
.tile .value .unit { font-size: 13px; color: var(--text-secondary); }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin-bottom: 24px;
}
.card h2 { font-size: 14px; margin: 0 0 12px; }
.hist { display: flex; align-items: flex-end; gap: 2px; height: 120px; }
.hist .bin {
  flex: 1; background: var(--series-1);
  border-radius: 4px 4px 0 0; min-height: 1px; position: relative;
}
.hist .bin:hover { filter: brightness(1.15); }
.hist .bin .tip {
  display: none; position: absolute; bottom: 100%; left: 50%;
  transform: translateX(-50%); margin-bottom: 6px; white-space: nowrap;
  background: var(--surface-1); color: var(--text-primary);
  border: 1px solid var(--border); border-radius: 6px;
  padding: 4px 8px; font-size: 12px; z-index: 2;
}
.hist .bin:hover .tip { display: block; }
.hist-axis {
  display: flex; justify-content: space-between;
  color: var(--text-muted); font-size: 11px; margin-top: 4px;
}
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th {
  text-align: left; color: var(--text-secondary); font-weight: 600;
  border-bottom: 1px solid var(--gridline); padding: 6px 10px;
}
td { border-bottom: 1px solid var(--gridline); padding: 6px 10px; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.status { white-space: nowrap; }
.status.good { color: var(--status-good); }
.status.critical { color: var(--status-critical); }
.status.neutral { color: var(--text-secondary); }
"""


def _status_cell(status: str) -> str:
    if status == "completed":
        return '<span class="status good">✓ completed</span>'
    if status == "failed":
        return '<span class="status critical">✕ failed</span>'
    return f'<span class="status neutral">• {html.escape(status)}</span>'


def _histogram_bins(
    durations: "list[float]", n_bins: int = 20
) -> "list[tuple[float, float, int]]":
    """(lo, hi, count) fixed-width bins over the sample range."""
    if not durations:
        return []
    lo, hi = min(durations), max(durations)
    if hi <= lo:
        return [(lo, hi, len(durations))]
    width = (hi - lo) / n_bins
    counts = [0] * n_bins
    for d in durations:
        counts[min(n_bins - 1, int((d - lo) / width))] += 1
    return [
        (lo + i * width, lo + (i + 1) * width, c)
        for i, c in enumerate(counts)
    ]


def build_report_html(state: dict[str, Any]) -> str:
    """Self-contained static HTML for a sweep live directory."""
    heartbeat = state["heartbeat"]
    events = state["events"]
    sweep_id, progress, _ = sweep_view(events)
    durations = point_durations(events)
    p50 = quantile(durations, 0.50)
    p99 = quantile(durations, 0.99)
    closed = bool(heartbeat.get("closed"))
    failed = int(progress.get("failed") or 0)
    if not closed:
        status = "running"
    elif failed:
        status = "failed"
    else:
        status = "done"

    tiles = [
        ("Points", f"{int(progress.get('total') or 0)}", ""),
        ("Completed", f"{int(progress.get('completed') or 0)}", ""),
        ("Cached", f"{int(progress.get('cached') or 0)}", ""),
        ("Failed", f"{failed}", ""),
        ("Retried", f"{int(progress.get('retried') or 0)}", ""),
        ("p50 latency", _format_seconds(p50), ""),
        ("p99 latency", _format_seconds(p99), ""),
    ]
    tile_html = "".join(
        f'<div class="tile"><div class="label">{html.escape(label)}</div>'
        f'<div class="value">{html.escape(value)}'
        f'<span class="unit">{html.escape(unit)}</span></div></div>'
        for label, value, unit in tiles
    )

    bins = _histogram_bins(durations)
    peak = max((c for _, _, c in bins), default=1) or 1
    bin_html = "".join(
        f'<div class="bin" style="height:{max(1, round(100 * c / peak))}%">'
        f'<span class="tip">{c} point(s) · '
        f"{lo:.2f}–{hi:.2f}s</span></div>"
        for lo, hi, c in bins
    )
    if bins:
        hist_html = (
            f'<div class="hist">{bin_html}</div>'
            f'<div class="hist-axis"><span>{bins[0][0]:.2f}s</span>'
            f"<span>{bins[-1][1]:.2f}s</span></div>"
        )
    else:
        hist_html = '<p class="subtitle">no settled points yet</p>'

    # Last event per point wins: the table shows the final state.
    final: dict[str, dict[str, Any]] = {}
    for record in events:
        pid = record.get("point_id")
        if pid:
            final[pid] = record
    rows = []
    for pid in sorted(final):
        record = final[pid]
        kind = record.get("kind", "")
        status_name = {
            "point_completed": "completed",
            "point_cached": "cached",
            "point_failed": "failed",
            "point_started": "running",
            "point_retry": "retrying",
        }.get(kind, kind)
        duration = record.get("duration")
        duration_text = (
            f"{duration:.2f}"
            if isinstance(duration, (int, float))
            else "—"
        )
        error = html.escape(str(record.get("error", "") or ""))
        rows.append(
            f"<tr><td>{html.escape(pid)}</td>"
            f"<td>{_status_cell(status_name)}</td>"
            f'<td class="num">{duration_text}</td>'
            f"<td>{error}</td></tr>"
        )
    table_html = (
        "<table><thead><tr><th>point</th><th>status</th>"
        '<th style="text-align:right">wall time (s)</th><th>error</th>'
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
    )

    sweep_id = html.escape(str(sweep_id))
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>sweep {sweep_id} — repro-obs report</title>
<style>
{_REPORT_CSS}
</style>
</head>
<body class="viz-root">
<h1>Sweep {sweep_id}</h1>
<p class="subtitle">status: {status} · schema {html.escape(str(heartbeat.get("schema", "")))}</p>
<div class="tiles">{tile_html}</div>
<div class="card"><h2>Point wall-time distribution</h2>{hist_html}</div>
<div class="card"><h2>Points</h2>{table_html}</div>
</body>
</html>
"""


def report(directory: "str | Path", output: "str | Path") -> int:
    try:
        state = load_live_dir(directory)
    except WatchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if state["kind"] != "sweep":
        print(
            "error: report needs a sweep live directory "
            "(a stream of point records)",
            file=sys.stderr,
        )
        return 2
    output = Path(output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(build_report_html(state))
    print(f"wrote {output}")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Validate, watch, and report on repro telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser(
        "validate", help="schema-check exported telemetry directories"
    )
    p_validate.add_argument("directories", nargs="+")

    p_watch = sub.add_parser(
        "watch", help="tail a live directory and render progress"
    )
    p_watch.add_argument("directory")
    p_watch.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (works on finished dirs)",
    )
    p_watch.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period in seconds (default: 2)",
    )

    p_report = sub.add_parser(
        "report", help="write a static HTML report from a sweep live dir"
    )
    p_report.add_argument("directory")
    p_report.add_argument(
        "-o", "--output", default="report.html",
        help="output HTML path (default: report.html)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        failed = False
        for directory in args.directories:
            errors = validate_obs_dir(directory)
            if errors:
                failed = True
                for error in errors:
                    print(
                        f"{error_path(directory, error)}: {error}",
                        file=sys.stderr,
                    )
            else:
                print(f"{directory}: ok")
        return 1 if failed else 0
    if args.command == "watch":
        return watch(args.directory, args.once, args.interval)
    if args.command == "report":
        return report(args.directory, args.output)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
