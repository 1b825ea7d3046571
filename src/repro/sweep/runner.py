"""The sweep runner: deterministic fan-out with caching.

Design rules (the contract ``docs/SWEEP.md`` documents):

* **Determinism** — results are always assembled in point-id order,
  never completion order, and every point value is canonicalized
  through a JSON round trip before it is stored or returned.  A
  4-worker run is therefore byte-identical to a 1-worker run.
* **Caching** — with a :class:`~repro.sweep.cache.SweepCache` attached,
  each point is looked up by its content address before anything is
  executed; a re-run with unchanged configuration is a pure cache read.
* **Workers** — a parallel sweep maps its points over a pool of
  ``workers`` spawned processes.  A worker keeps its memos across the
  points it runs, as the serial path does in its one process.  This
  module is the one place in the codebase allowed to spawn processes
  (SIM050).
* **Failures** — points are deterministic, so each runs once.  A point
  that raises is a per-point failure that marks the sweep failed; a
  worker that dies (OOM kill, signal) fails the whole sweep.

The runner is a harness, not a simulation: it may legitimately read the
host clock (pragma-suppressed SIM001) because the quantities it times —
campaign and per-point wall time — are wall-clock quantities.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.sweep.cache import SweepCache, key_of, point_key_doc
from repro.sweep.spec import SweepSpec, resolve_func, sanitize_point_id
from repro.sweep.telemetry import SweepTelemetry


class SweepError(RuntimeError):
    """A sweep failed: telemetry collision, failed points or a dead worker."""


@dataclass(frozen=True)
class SweepOptions:
    """How to run a sweep (CLI flags in object form).

    ``cache_dir=None`` (the default) disables caching, which keeps
    library/test runs hermetic; the CLIs default it to
    ``results/.cache`` instead.
    """

    workers: int = 1
    cache_dir: Optional[Path] = None
    obs_dir: Optional[Path] = None
    live_dir: Optional[Path] = None
    telemetry: Optional[SweepTelemetry] = None

    def run(self, spec: SweepSpec, *, strict: bool = True) -> "SweepOutcome":
        """Run ``spec`` with these options (the figure modules' path)."""
        return run_sweep(
            spec,
            workers=self.workers,
            cache=None if self.cache_dir is None else SweepCache(self.cache_dir),
            obs_dir=self.obs_dir,
            live_dir=self.live_dir,
            telemetry=self.telemetry,
            strict=strict,
        )


@dataclass
class PointOutcome:
    """What happened to one sweep point."""

    point_id: str
    params: Mapping[str, Any]
    value: Any
    status: str  # "completed" | "cached" | "failed"
    error: Optional[str] = None
    cache_key: Optional[str] = None


@dataclass
class SweepOutcome:
    """All point outcomes of one campaign, ordered by point id."""

    sweep_id: str
    points: list[PointOutcome] = field(default_factory=list)
    telemetry: Optional[SweepTelemetry] = None

    def values(self) -> dict[str, Any]:
        """Point id → value, in deterministic (point-id) order."""
        return {p.point_id: p.value for p in self.points}

    def count(self, status: str) -> int:
        return sum(1 for p in self.points if p.status == status)

    @property
    def failed(self) -> list[PointOutcome]:
        return [p for p in self.points if p.status == "failed"]


def _canonical(value: Any) -> Any:
    """Canonicalize a point value through a JSON round trip.

    Guarantees cached and freshly-computed values are indistinguishable
    (tuples become lists exactly once, floats keep shortest-repr), which
    is what makes serial and parallel runs byte-identical.
    """
    try:
        return json.loads(json.dumps(value, allow_nan=False))
    except (TypeError, ValueError) as error:
        raise SweepError(
            f"point value is not JSON-representable: {error}"
        ) from None


def _execute_point(
    func_ref: str, params: dict[str, Any], obs_dir: Optional[str]
) -> tuple[str, Any]:
    """Run one point: ``("ok", canonical value)`` or ``("error", text)``.

    The serial path calls this in-process and the parallel path in a
    pool worker (it is importable, hence picklable), so a point that
    raises or returns a non-JSON value is the same per-point failure
    whatever ``workers`` is.
    """
    try:
        func = resolve_func(func_ref)
        kwargs = {} if obs_dir is None else {"obs_dir": Path(obs_dir)}
        return "ok", _canonical(func(dict(params), **kwargs))
    except Exception as exc:  # noqa: BLE001 - reported per point
        return "error", f"{type(exc).__name__}: {exc}"


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 1,
    cache: Optional[SweepCache] = None,
    obs_dir: "str | Path | None" = None,
    live_dir: "str | Path | None" = None,
    telemetry: Optional[SweepTelemetry] = None,
    strict: bool = True,
) -> SweepOutcome:
    """Run every point of ``spec``; return outcomes ordered by point id.

    Parameters
    ----------
    workers:
        ``1`` runs points in-process, sequentially, in point-id order
        (the serial path); ``>1`` maps points over a pool of that many
        worker processes.  Output is bit-identical either way.
    cache:
        Optional :class:`SweepCache`; hits skip execution entirely.
    obs_dir:
        Base directory for per-point telemetry; each point gets its own
        ``<obs-dir>/<point-id>/`` (collision → :class:`SweepError`).
    live_dir:
        Directory for the live progress stream: a
        :class:`~repro.obs.live.LiveBus` that flushes every point record
        (``events.ndjson``, ``snapshots.ndjson``, ``heartbeat.json``),
        the feed that ``repro-obs watch`` tails.  ``None`` disables it
        and leaves :mod:`repro.obs.live` unloaded.
    strict:
        Raise :class:`SweepError` if any point failed (default);
        ``False`` leaves failures in the outcome.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    telemetry = telemetry or SweepTelemetry(spec.sweep_id)
    started = time.monotonic()  # lint: ignore[SIM001] — harness wall time
    ordered = spec.points_by_id()
    telemetry.total.set(float(len(ordered)))

    # Each point gets <obs-dir>/<sanitized-point-id>/; an existing one
    # is a hard error rather than a silently clobbered earlier run.
    point_dirs: dict[str, Path] = {}
    if obs_dir is not None:
        for pid in ordered:
            directory = point_dirs[pid] = Path(obs_dir) / sanitize_point_id(pid)
            if directory.exists():
                raise SweepError(
                    f"telemetry collision: {directory} already exists; "
                    "every sweep run needs a fresh --obs-dir (or per-run subdir)"
                )
            directory.mkdir(parents=True)
    bus = None
    if live_dir is not None:
        from repro.obs.live import LiveBus

        bus = telemetry.attach_bus(LiveBus(live_dir, flush_every=1))

    outcomes: dict[str, PointOutcome] = {}
    to_run: dict[str, dict[str, Any]] = {}
    keys: dict[str, str] = {}
    # Each point's provenance document, built once for its cache key,
    # its cache entry and its point manifest.
    key_docs = (
        {pid: point_key_doc(spec, dict(params)) for pid, params in ordered.items()}
        if cache is not None or point_dirs
        else {}
    )

    for pid, params in ordered.items():
        params = dict(params)
        if cache is not None:
            key = keys[pid] = key_of(key_docs[pid])
            hit = cache.lookup(key)
            if not SweepCache.is_miss(hit):
                outcomes[pid] = PointOutcome(pid, params, hit, "cached", cache_key=key)
                telemetry.cached.inc()
                telemetry.record("point_cached", pid)
                continue
        to_run[pid] = params

    obs_args = (
        {pid: str(d) for pid, d in point_dirs.items()} if spec.pass_obs_dir else {}
    )
    points = _Points(spec, to_run, obs_args, outcomes, telemetry)
    try:
        if to_run:
            if workers == 1:
                _run_serial(points)
            else:
                _run_parallel(points, workers)
        for pid, outcome in outcomes.items():
            if outcome.status == "completed" and cache is not None:
                outcome.cache_key = keys[pid]
                cache.store(keys[pid], outcome.value, key_docs[pid])
    finally:
        telemetry.wall_time.set(time.monotonic() - started)  # lint: ignore[SIM001]
        if bus is not None:  # closed even when a dead worker fails the sweep
            telemetry.record("sweep_done")
            bus.close()

    result = SweepOutcome(
        sweep_id=spec.sweep_id,
        points=[outcomes[pid] for pid in ordered],
        telemetry=telemetry,
    )

    for pid, directory in point_dirs.items():
        outcome = outcomes[pid]
        doc = {
            "manifest": key_docs[pid],
            "point_id": pid,
            "status": outcome.status,
            "error": outcome.error,
            "cache_key": outcome.cache_key,
        }
        (directory / "point.manifest.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )

    if strict and result.failed:
        details = "; ".join(
            f"{p.point_id}: {p.error}" for p in result.failed[:5]
        )
        raise SweepError(
            f"sweep {spec.sweep_id!r}: {len(result.failed)} point(s) failed — {details}"
        )
    return result


@dataclass
class _Points:
    """Point bookkeeping shared by the serial and parallel paths.

    Both paths start and settle every point here, so a point's
    telemetry and live records are the same whatever ``workers`` is.
    """

    spec: SweepSpec
    to_run: dict[str, dict[str, Any]]
    obs_args: dict[str, str]  # point id → its obs dir, when the spec takes one
    outcomes: dict[str, PointOutcome]
    telemetry: SweepTelemetry

    def args(self, pid: str) -> tuple[str, dict[str, Any], Optional[str]]:
        """:func:`_execute_point`'s arguments for point ``pid``."""
        return self.spec.func, self.to_run[pid], self.obs_args.get(pid)

    def start(self, pid: str) -> None:
        t = self.telemetry
        t.in_flight.set(t.in_flight.value + 1)
        t.record("point_started", pid)

    def settle(self, pid: str, result: tuple[str, Any], duration: float) -> None:
        """Book one finished point; ``result`` is :func:`_execute_point`'s."""
        tag, payload = result
        t = self.telemetry
        t.in_flight.set(t.in_flight.value - 1)
        t.observe_point(duration)
        if tag == "ok":
            t.completed.inc()
            t.record("point_completed", pid, duration=duration)
            value, error = payload, None
        else:
            t.failed.inc()
            t.record("point_failed", pid, duration=duration, error=payload)
            value, error = None, payload
        self.outcomes[pid] = PointOutcome(
            point_id=pid, params=self.to_run[pid], value=value,
            status="completed" if tag == "ok" else "failed", error=error,
        )


def _run_serial(points: _Points) -> None:
    """In-process execution, sequential, in point-id order."""
    try:
        for pid in points.to_run:
            points.start(pid)
            begin = time.monotonic()  # lint: ignore[SIM001] — harness wall time
            result = _execute_point(*points.args(pid))
            points.settle(pid, result, time.monotonic() - begin)  # lint: ignore[SIM001]
    finally:
        # An interrupt (KeyboardInterrupt) leaves no point in flight.
        points.telemetry.in_flight.set(0.0)


def _run_parallel(points: _Points, workers: int) -> None:
    """Process-pool execution: at most ``workers`` points in flight.

    Points are submitted in point-id order; each wake settles the
    points that finished, in point-id order, and refills the free
    slots.  A worker that dies breaks the pool, so the sweep fails,
    naming the points that were in flight.
    """
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    queued = iter(points.to_run)
    running: dict[Any, tuple[str, float]] = {}  # future → (point id, start)
    # Spawned, not forked: forking a caller that runs threads can
    # deadlock the child, and a spawned worker inherits nothing but the
    # point's arguments.
    pool = ProcessPoolExecutor(
        max_workers=min(workers, len(points.to_run)),
        mp_context=multiprocessing.get_context("spawn"),
    )

    def submit() -> None:
        for pid in itertools.islice(queued, workers - len(running)):
            future = pool.submit(_execute_point, *points.args(pid))
            running[future] = (pid, time.monotonic())  # lint: ignore[SIM001]
            points.start(pid)

    try:
        submit()
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            now = time.monotonic()  # lint: ignore[SIM001] — harness wall time
            for future in sorted(done, key=lambda f: running[f][0]):
                result = future.result()  # a dead worker: BrokenProcessPool
                pid, begin = running.pop(future)
                points.settle(pid, result, now - begin)
            submit()
    except BrokenProcessPool:
        wait(running)  # the broken pool fails every point still in flight
        lost = sorted(
            pid for f, (pid, _) in running.items()
            if isinstance(f.exception(), BrokenProcessPool)
        )
        raise SweepError(
            f"sweep {points.spec.sweep_id!r}: a worker process died while "
            f"running point(s) {', '.join(lost)}"
        ) from None
    finally:
        pool.shutdown(cancel_futures=True)
        points.telemetry.in_flight.set(0.0)
