"""The streaming telemetry bus: watch a run while it executes.

Post-run exports (:func:`repro.obs.exporters.export_run`) answer "what
happened"; the live bus answers "what is happening".  An attached
:class:`LiveBus` receives typed records, each naming its type under
``kind``, into a *bounded* ring buffer and, every ``flush_every``
pushes, drains the ring to ``<directory>/``.  Two sources attach one:

* an :class:`~repro.obs.observer.Observer` streams a simulation run's
  structured log events, span closes and wait opens/closes;
* a :class:`~repro.sweep.telemetry.SweepTelemetry` streams a sweep
  campaign's point lifecycle (``point_started``, ``point_completed``,
  ``point_cached``, ``point_failed``, ``sweep_done``), each record
  carrying the ``sweep_id`` and a ``progress`` block.

The bus reads only the source's ``registry`` and, when the source has
one, its simulated clock (``env.now``).  It writes:

``events.ndjson``
    the drained records, each stamped with a wall-clock ``ts`` at flush
    time (the only place wall time enters the telemetry stack — the
    simulation itself never sees it);
``snapshots.ndjson``
    one incremental metric snapshot per flush: the counters, gauges and
    series *that changed* since the previous snapshot, with a strictly
    increasing ``seq``;
``heartbeat.json``
    rewritten atomically on every flush so a tail knows the producer is
    alive (and, via ``closed``, when it finished).

Both NDJSON files open with a header line ``{"schema":
"repro.obs.live/1"}``.  The ring bounds memory: if a consumer of the
bus cannot keep up (flush interval too large for the ring), the oldest
records are dropped and counted in ``dropped`` — the live stream is a
lossy window, never a source of truth.  The deterministic record —
``Observer.events``, the registry, the trace — is unaffected by the bus
entirely: pushes copy, flushes only read.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer
    from repro.sweep.telemetry import SweepTelemetry

#: Live-stream format identifier; bump on breaking changes.
LIVE_SCHEMA = "repro.obs.live/1"


def _atomic_write_json(path: Path, doc: dict) -> None:
    """Rewrite ``path`` without a window where a tail sees a torn file."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True) + "\n")
    os.replace(tmp, path)


class LiveBus:
    """Bounded ring buffer flushing incremental NDJSON to a directory.

    Parameters
    ----------
    directory:
        Target directory (created on first flush), conventionally
        ``<obs-dir>/live/``.
    ring_size:
        Maximum records buffered between flushes; overflow drops the
        oldest record and increments the ``dropped`` total.
    flush_every:
        Flush after this many pushes.  Count-based (not time-based) so
        the *set of flushed records* is deterministic even though their
        ``ts`` stamps are not.
    clock:
        Wall-clock source for ``ts`` stamps; injectable for tests.
    """

    def __init__(
        self,
        directory: "str | Path",
        ring_size: int = 4096,
        flush_every: int = 256,
        clock: Callable[[], float] = time.time,  # lint: ignore[SIM001] — wall time never enters the simulation
    ) -> None:
        if ring_size < 1 or flush_every < 1:
            raise ValueError("ring_size and flush_every must be >= 1")
        self.directory = Path(directory)
        self.ring_size = ring_size
        self.flush_every = flush_every
        self._clock = clock
        self._ring: deque[dict[str, Any]] = deque(maxlen=ring_size)
        self._since_flush = 0
        self._dropped = 0
        self.seq = 0
        self.closed = False
        #: The observer or sweep streaming into this bus, held weakly:
        #: it holds the bus, and a strong back-reference would be a
        #: cycle that keeps a finished run alive until a full collection.
        self._source: "Optional[weakref.ref[Observer | SweepTelemetry]]" = None
        self._started = False
        # Last-flushed probe values, for incremental snapshots.
        self._last_counters: dict[str, float] = {}
        self._last_gauges: dict[str, float] = {}
        self._last_series: dict[str, tuple[int, float]] = {}

    # ------------------------------------------------------------------
    # Producer side (called from Observer hooks)
    # ------------------------------------------------------------------
    def attach(self, source: "Observer | SweepTelemetry") -> None:
        if self._source is not None and self._source() is not source:
            raise ValueError(
                "live bus already streams from another observer or sweep"
            )
        self._source = weakref.ref(source)

    def _attached(self) -> "Observer | SweepTelemetry | None":
        return self._source() if self._source is not None else None

    def push(self, record: dict[str, Any]) -> None:
        """Buffer one typed record; flushes when the interval is reached."""
        if self.closed:
            return
        # A full ring drops its oldest record; :attr:`dropped` counts
        # them from the push count, off this per-hook path.
        self._ring.append(record)
        self._since_flush += 1
        if self._since_flush >= self.flush_every:
            self.flush()

    @property
    def dropped(self) -> int:
        """Records lost to ring overflow so far."""
        # The ring was empty after the last flush, so every push since
        # then that it no longer holds was dropped.
        return self._dropped + self._since_flush - len(self._ring)

    # ------------------------------------------------------------------
    # Flush / close
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Drain the ring and write one incremental snapshot."""
        if self.closed:
            return
        ts = self._clock()
        self._ensure_files()
        self._dropped = self.dropped
        self._since_flush = 0
        drained = list(self._ring)
        self._ring.clear()
        if drained:
            with (self.directory / "events.ndjson").open("a") as fh:
                for record in drained:
                    stamped = dict(record)
                    stamped["ts"] = ts
                    fh.write(json.dumps(stamped, sort_keys=True) + "\n")
        self.seq += 1
        snapshot = self._delta_snapshot(ts)
        with (self.directory / "snapshots.ndjson").open("a") as fh:
            fh.write(json.dumps(snapshot, sort_keys=True) + "\n")
        _atomic_write_json(self.directory / "heartbeat.json", {
            "schema": LIVE_SCHEMA,
            "ts": ts,
            "seq": self.seq,
            "sim_time": snapshot["sim_time"],
            "dropped": self.dropped,
            "closed": self.closed,
        })

    def close(self) -> None:
        """Final flush, then mark the stream finished in the heartbeat."""
        if self.closed:
            return
        self.flush()
        self.closed = True
        heartbeat = self.directory / "heartbeat.json"
        if heartbeat.exists():
            doc = json.loads(heartbeat.read_text())
            doc["closed"] = True
            _atomic_write_json(heartbeat, doc)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_files(self) -> None:
        if self._started:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        header = json.dumps({"schema": LIVE_SCHEMA}, sort_keys=True) + "\n"
        (self.directory / "events.ndjson").write_text(header)
        (self.directory / "snapshots.ndjson").write_text(header)
        self._started = True

    def _sim_time(self) -> Optional[float]:
        env = getattr(self._attached(), "env", None)
        return None if env is None else env.now

    def _delta_snapshot(self, ts: float) -> dict[str, Any]:
        """Changed probes since the last flush, plus stream bookkeeping."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        series: dict[str, float] = {}
        source = self._attached()
        if source is not None:
            registry = source.registry
            for name, probe in registry.counters.items():
                if self._last_counters.get(name) != probe.value:
                    counters[name] = self._last_counters[name] = probe.value
            for name, probe in registry.gauges.items():
                if self._last_gauges.get(name) != probe.value:
                    gauges[name] = self._last_gauges[name] = probe.value
            for name, probe in registry.series.items():
                if not probe.values:
                    continue
                state = (len(probe.values), probe.values[-1])
                if self._last_series.get(name) != state:
                    self._last_series[name] = state
                    series[name] = probe.values[-1]
        return {
            "seq": self.seq,
            "ts": ts,
            "sim_time": self._sim_time(),
            "counters": counters,
            "gauges": gauges,
            "series": series,
            "dropped": self.dropped,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<LiveBus {self.directory} seq={self.seq} "
            f"buffered={len(self._ring)} dropped={self.dropped}>"
        )
