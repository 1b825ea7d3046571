"""Deterministic parallel sweep engine.

Every figure the repository reproduces is a parameter sweep — stage
fraction × pipelines × platform — and the 1000Genomes case study makes
each point expensive.  This package runs those sweeps as first-class
campaigns:

* :class:`SweepSpec` — a named, versioned set of points (cartesian grid
  or explicit list) with stable, order-independent point ids, executed
  by a module-level point function referenced as ``"pkg.mod:callable"``;
* :func:`run_sweep` — runs each point attempt in its own
  ``multiprocessing.Process`` (at most ``workers`` at once) with
  *deterministic result ordering* (always by point id, never by
  completion order), per-point timeout/retry with bounded backoff, and
  per-point telemetry counters threaded through :mod:`repro.obs` probes
  (streamed through a :class:`~repro.obs.live.LiveBus` when given a
  live directory);
* :class:`SweepCache` — a content-addressed on-disk cache under
  ``results/.cache/`` keyed by the :mod:`repro.obs.manifest` provenance
  document (simulator version acts as the code salt), so a re-run with
  an unchanged configuration is a pure cache read.

Serial execution (``workers=1``) and parallel execution produce
bit-identical outputs: every point value is canonicalized through JSON
before it is returned or stored, and results are assembled in point-id
order.

See ``docs/SWEEP.md`` for the spec format, cache layout and
invalidation rules, and worker/retry/timeout semantics.
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
