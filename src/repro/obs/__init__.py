"""Observability: resource telemetry, task spans, and trace exporters.

A zero-cost-when-disabled instrumentation layer threaded through the
DES kernel, compute service, storage services, flow network, and
workflow engine.  Components publish into an :class:`Observer` through
lightweight hook points guarded by a single ``env.obs is not None``
check; with no observer attached the simulator behaves (and times)
exactly as before.

Quick start::

    from repro import des
    from repro.obs import Observer, export_run

    obs = Observer()                    # or Observer(metrics=["storage"])
    env = des.Environment()
    obs.attach(env)
    ...                                 # build and run on env
    export_run(obs, "telemetry/")       # manifest + Perfetto trace + CSVs

Live telemetry (watch a run while it executes)::

    from repro.obs import LiveBus, Observer

    obs = Observer(bus=LiveBus("telemetry/live"), monitors=True)
    ...                                 # tail with `repro-obs watch`

See ``docs/OBSERVABILITY.md`` for the probe API, the metric catalogue,
exporter formats, the live bus, invariant monitors, and the Perfetto
how-to.
"""

from repro.obs.exporters import (
    chrome_trace,
    export_run,
    write_chrome_trace,
    write_metric_csvs,
)
from repro.obs.invariants import (
    BBOccupancyMonitor,
    EventMonotonicityMonitor,
    InvariantMonitor,
    InvariantViolation,
    LeaseBalanceMonitor,
    LinkCapacityMonitor,
    standard_monitors,
)
from repro.obs.live import LIVE_SCHEMA, LiveBus
from repro.obs.log import (
    COMPONENTS,
    LOG_SCHEMA,
    iter_ndjson,
    make_event,
    read_events,
    write_events,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_V2,
    build_manifest,
    config_from_manifest,
    platform_digest,
    write_manifest,
)
from repro.obs.observer import METRIC_GROUPS, Observer
from repro.obs.probes import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    TimeSeries,
)
from repro.obs.spans import Span, spans_from_record
from repro.obs.validate import (
    validate_chrome_trace,
    validate_events_ndjson,
    validate_live_dir,
    validate_manifest,
    validate_metrics_dir,
    validate_obs_dir,
    validate_profile_doc,
)
from repro.obs.waits import WaitCause, WaitInterval

__all__ = [
    "COMPONENTS",
    "LIVE_SCHEMA",
    "LOG_SCHEMA",
    "MANIFEST_SCHEMA",
    "MANIFEST_SCHEMA_V2",
    "METRIC_GROUPS",
    "BBOccupancyMonitor",
    "Counter",
    "EventMonotonicityMonitor",
    "Gauge",
    "Histogram",
    "InvariantMonitor",
    "InvariantViolation",
    "LeaseBalanceMonitor",
    "LinkCapacityMonitor",
    "LiveBus",
    "MetricRegistry",
    "Observer",
    "Span",
    "TimeSeries",
    "WaitCause",
    "WaitInterval",
    "build_manifest",
    "chrome_trace",
    "config_from_manifest",
    "export_run",
    "iter_ndjson",
    "make_event",
    "platform_digest",
    "read_events",
    "spans_from_record",
    "standard_monitors",
    "validate_chrome_trace",
    "validate_events_ndjson",
    "validate_live_dir",
    "validate_manifest",
    "validate_metrics_dir",
    "validate_obs_dir",
    "validate_profile_doc",
    "write_chrome_trace",
    "write_events",
    "write_manifest",
    "write_metric_csvs",
]
