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

from repro import _lazy_getattr

#: Public names, by the submodule that defines them.  They resolve
#: lazily (PEP 562): the simulator imports ``repro.obs.waits`` on every
#: run, and that must not load the exporters, validators, live bus and
#: manifest builder, which only an observed run or its export needs.
_EXPORTS = {
    "exporters": (
        "chrome_trace",
        "export_run",
        "write_chrome_trace",
        "write_metric_csvs",
    ),
    "invariants": (
        "BBOccupancyMonitor",
        "EventMonotonicityMonitor",
        "InvariantMonitor",
        "InvariantViolation",
        "LeaseBalanceMonitor",
        "LinkCapacityMonitor",
        "standard_monitors",
    ),
    "live": ("LIVE_SCHEMA", "LiveBus"),
    "log": (
        "COMPONENTS",
        "LOG_SCHEMA",
        "iter_ndjson",
        "make_event",
        "read_events",
        "write_events",
    ),
    "manifest": (
        "MANIFEST_SCHEMA",
        "MANIFEST_SCHEMA_V2",
        "build_manifest",
        "config_from_manifest",
        "platform_digest",
        "write_manifest",
    ),
    "observer": ("METRIC_GROUPS", "Observer"),
    "probes": ("Counter", "Gauge", "Histogram", "MetricRegistry", "TimeSeries"),
    "spans": ("Span", "spans_from_record"),
    "validate": (
        "validate_chrome_trace",
        "validate_events_ndjson",
        "validate_live_dir",
        "validate_manifest",
        "validate_metrics_dir",
        "validate_obs_dir",
        "validate_profile_doc",
    ),
    "waits": ("WaitCause", "WaitInterval"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__getattr__ = _lazy_getattr(
    globals(),
    {
        name: f"repro.obs.{module}"
        for module, names in _EXPORTS.items()
        for name in names
    },
)
