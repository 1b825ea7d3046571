"""Sweep-campaign telemetry, published through :mod:`repro.obs` probes.

The sweep runner is a *harness*, not a simulation — there is no DES
environment to attach an :class:`~repro.obs.observer.Observer` to — so
it publishes directly into a :class:`~repro.obs.probes.MetricRegistry`:

* ``sweep.points_total`` (gauge) — points in the spec;
* ``sweep.points_completed`` (counter) — points actually executed;
* ``sweep.points_cached`` (counter) — points answered from the cache;
* ``sweep.points_failed`` (counter) — points that raised;
* ``sweep.points_in_flight`` (gauge) — points currently executing in
  a worker (or in-process, on the serial path);
* ``sweep.point_seconds`` (histogram) — per-point wall times,
  bucketed for the export; :meth:`point_latency` takes its quantiles
  from the raw durations, as ``repro-obs watch``/``report`` do;
* ``sweep.wall_time_s`` (gauge) — harness wall time for the campaign.

A :class:`~repro.obs.live.LiveBus` attached with :meth:`attach_bus`
streams the campaign the way an observer's bus streams a run: each
:meth:`record` pushes one point-lifecycle record carrying the sweep id
and a :meth:`progress` block, and the bus snapshots the registry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.probes import MetricRegistry, quantile

if TYPE_CHECKING:  # pragma: no cover - loaded only for a live directory
    from repro.obs.live import LiveBus

#: Telemetry export format identifier.
STATS_SCHEMA = "repro.sweep.stats/1"


class SweepTelemetry:
    """Counters and gauges for one sweep campaign."""

    def __init__(self, sweep_id: str) -> None:
        self.sweep_id = sweep_id
        self.registry = MetricRegistry()
        self.completed = self.registry.counter("sweep.points_completed")
        self.cached = self.registry.counter("sweep.points_cached")
        self.failed = self.registry.counter("sweep.points_failed")
        self.total = self.registry.gauge("sweep.points_total")
        self.in_flight = self.registry.gauge("sweep.points_in_flight")
        self.point_seconds = self.registry.histogram("sweep.point_seconds")
        self.point_durations: list[float] = []
        self.wall_time = self.registry.gauge("sweep.wall_time_s")
        self._bus: Optional["LiveBus"] = None

    def attach_bus(self, bus: "LiveBus") -> "LiveBus":
        """Stream point records into ``bus`` from now on.

        A closed bus is replaced, so one telemetry object can follow
        several campaigns, each into its own live directory.
        """
        if self._bus is not None and self._bus is not bus and not self._bus.closed:
            raise ValueError("sweep already streams to another live bus")
        bus.attach(self)
        self._bus = bus
        return bus

    def progress(self) -> dict[str, float]:
        """Campaign counts: completed/cached/failed/in_flight/total."""
        return {
            "completed": self.completed.value,
            "cached": self.cached.value,
            "failed": self.failed.value,
            "in_flight": self.in_flight.value,
            "total": self.total.value,
        }

    def record(self, kind: str, point_id: Optional[str] = None,
               **fields: Any) -> None:
        """Push one point-lifecycle record to the attached bus, if any."""
        if self._bus is None:
            return
        doc = {"kind": kind, "sweep_id": self.sweep_id,
               "progress": self.progress()}
        if point_id is not None:
            doc["point_id"] = point_id
        doc.update(fields)
        self._bus.push(doc)

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of points answered from the cache (0 when empty)."""
        total = self.total.value
        return self.cached.value / total if total else 0.0

    def observe_point(self, duration: float) -> None:
        """Book one settled point's wall time (seconds)."""
        self.point_durations.append(duration)
        self.point_seconds.observe(duration)

    def point_latency(self, q: float) -> Optional[float]:
        """Nearest-rank quantile of per-point wall times (seconds)."""
        return quantile(self.point_durations, q)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of the campaign's counters and gauges."""
        snap = self.registry.snapshot()
        return {
            "schema": STATS_SCHEMA,
            "sweep_id": self.sweep_id,
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "histograms": snap["histograms"],
            "point_latency": {
                "p50": self.point_latency(0.50),
                "p99": self.point_latency(0.99),
            },
            "cache_hit_ratio": self.cache_hit_ratio,
        }

    def write(self, path: "str | Path") -> Path:
        """Write the snapshot as JSON (creating parent directories)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n")
        return path
