"""Deterministic parallel sweep engine.

Every figure the repository reproduces is a parameter sweep — stage
fraction × pipelines × platform.  A :class:`SweepSpec` names the points
and the point function; :func:`run_sweep` runs them in-process or over
a process pool, always returning results in point-id order with
JSON-canonical values, so serial and parallel runs are bit-identical;
a :class:`SweepCache` makes a re-run with unchanged configuration a
pure cache read; a :class:`SweepTelemetry` counts the campaign and can
stream it live.

See ``docs/SWEEP.md`` for the spec format, cache layout and
invalidation rules, and worker semantics.
"""

from repro.sweep.cache import CACHE_SCHEMA, DEFAULT_CACHE_DIR, SweepCache
from repro.sweep.runner import (
    PointOutcome,
    SweepError,
    SweepOptions,
    SweepOutcome,
    run_sweep,
)
from repro.sweep.spec import SweepSpec, point_id, resolve_func, sanitize_point_id
from repro.sweep.telemetry import SweepTelemetry

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "PointOutcome",
    "SweepCache",
    "SweepError",
    "SweepOptions",
    "SweepOutcome",
    "SweepSpec",
    "SweepTelemetry",
    "point_id",
    "resolve_func",
    "run_sweep",
    "sanitize_point_id",
]
