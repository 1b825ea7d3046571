"""The sweep runner: deterministic fan-out with caching and retries.

Design rules (the contract ``docs/SWEEP.md`` documents):

* **Determinism** — results are always assembled in point-id order,
  never completion order, and every point value is canonicalized
  through a JSON round trip before it is stored or returned.  A
  4-worker run is therefore byte-identical to a 1-worker run.
* **Caching** — with a :class:`~repro.sweep.cache.SweepCache` attached,
  each point is looked up by its content address before anything is
  executed; a re-run with unchanged configuration is a pure cache read.
* **Isolation** — each parallel point attempt runs in its own worker
  *process* (the simulator is CPU-bound and per-process state such as
  calibration memoization must not leak between points).  This module
  is the one place in the codebase allowed to spawn them (SIM050).
* **Bounded retries and timeouts** — a point that raises or exceeds
  its timeout is resubmitted up to ``retries`` times with bounded
  exponential backoff; a point that exhausts its retries marks the
  sweep as failed.  The timeout clock starts when the point's worker
  process starts executing (never while it waits for a worker slot),
  and a timed-out worker is terminated — it cannot keep running
  concurrently with its own retry or wedge the sweep's shutdown.

The runner is a harness, not a simulation: it may legitimately read the
host clock (pragma-suppressed SIM001) because the quantities it times —
campaign wall time, per-point timeouts — are wall-clock quantities.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.sweep.cache import SweepCache, point_key, point_key_doc
from repro.sweep.spec import SweepSpec, resolve_func, sanitize_point_id
from repro.sweep.telemetry import SweepTelemetry

#: How long one coordinator poll waits for worker completions (s).
_POLL_INTERVAL = 0.1

#: Exponential-backoff schedule bounds for retries (s).
_BACKOFF_BASE = 0.1
_BACKOFF_CAP = 5.0

#: How long a terminated (SIGTERM) worker gets to exit before SIGKILL (s).
_TERM_GRACE = 2.0


class SweepError(RuntimeError):
    """A sweep failed: telemetry collision or points out of retries."""


@dataclass(frozen=True)
class SweepOptions:
    """How to run a sweep (CLI flags in object form).

    ``cache_dir=None`` (the default) disables caching, which keeps
    library/test runs hermetic; the CLIs default it to
    ``results/.cache`` instead.
    """

    workers: int = 1
    retries: int = 0
    timeout: Optional[float] = None
    cache_dir: Optional[Path] = None
    obs_dir: Optional[Path] = None
    live_dir: Optional[Path] = None
    telemetry: Optional[SweepTelemetry] = None

    def make_cache(self) -> Optional[SweepCache]:
        if self.cache_dir is None:
            return None
        return SweepCache(self.cache_dir)

    def run(self, spec: SweepSpec, *, strict: bool = True) -> "SweepOutcome":
        """Run ``spec`` with these options (the figure modules' path)."""
        return run_sweep(
            spec,
            workers=self.workers,
            retries=self.retries,
            timeout=self.timeout,
            cache=self.make_cache(),
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
    attempts: int = 1
    error: Optional[str] = None
    cache_key: Optional[str] = None


@dataclass
class SweepOutcome:
    """All point outcomes of one campaign, ordered by point id."""

    sweep_id: str
    points: list[PointOutcome] = field(default_factory=list)
    telemetry: Optional[SweepTelemetry] = None
    wall_time_s: float = 0.0

    def values(self) -> dict[str, Any]:
        """Point id → value, in deterministic (point-id) order."""
        return {p.point_id: p.value for p in self.points}

    def value(self, pid: str) -> Any:
        for p in self.points:
            if p.point_id == pid:
                return p.value
        raise KeyError(f"no point {pid!r} in sweep {self.sweep_id!r}")

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
) -> Any:
    """Run one point (worker-process entry; importable, hence picklable)."""
    func = resolve_func(func_ref)
    if obs_dir is not None:
        return func(dict(params), obs_dir=Path(obs_dir))
    return func(dict(params))


def _backoff_delay(attempt: int) -> float:
    """Deterministic bounded exponential backoff before retry ``attempt``."""
    return min(_BACKOFF_BASE * (2 ** max(0, attempt - 1)), _BACKOFF_CAP)


class _ObsLayout:
    """Per-point telemetry directories under one ``--obs-dir``.

    Each point gets ``<obs-dir>/<sanitized-point-id>/``; an existing
    directory is a hard error (fail fast instead of silently clobbering
    a concurrent or previous run's traces).
    """

    def __init__(self, base: Path) -> None:
        self.base = Path(base)

    def claim(self, pid: str) -> Path:
        directory = self.base / sanitize_point_id(pid)
        if directory.exists():
            raise SweepError(
                f"telemetry collision: {directory} already exists; "
                "every sweep run needs a fresh --obs-dir (or per-run subdir)"
            )
        directory.mkdir(parents=True)
        return directory

    def write_manifest(self, directory: Path, doc: dict[str, Any]) -> None:
        path = directory / "point.manifest.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 1,
    retries: int = 0,
    timeout: Optional[float] = None,
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
        (the serial path); ``>1`` fans points out over that many worker
        processes.  Output is bit-identical either way.
    retries:
        How many times a failing/timing-out point is resubmitted.
    timeout:
        Per-point wall-clock budget in seconds, measured from the
        moment the point's worker process starts (time spent waiting
        for a worker slot never counts).  A worker that exceeds it is
        terminated before the point is retried/failed.  Enforced
        between processes, so it requires ``workers > 1``; the
        in-process serial path cannot preempt a running point.
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
        Raise :class:`SweepError` if any point is still failed after
        retries (default); ``False`` leaves failures in the outcome.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")

    telemetry = telemetry or SweepTelemetry(spec.sweep_id)
    started = time.monotonic()  # lint: ignore[SIM001] — harness wall time
    ordered = spec.points_by_id()
    telemetry.total.set(float(len(ordered)))

    layout = _ObsLayout(Path(obs_dir)) if obs_dir is not None else None
    point_dirs: dict[str, Path] = {}
    if layout is not None:
        for pid in ordered:
            point_dirs[pid] = layout.claim(pid)
    bus = None
    if live_dir is not None:
        from repro.obs.live import LiveBus

        bus = telemetry.attach_bus(LiveBus(live_dir, flush_every=1))

    outcomes: dict[str, PointOutcome] = {}
    to_run: dict[str, dict[str, Any]] = {}
    keys: dict[str, str] = {}

    for pid, params in ordered.items():
        params = dict(params)
        if cache is not None:
            key = keys[pid] = point_key(spec, params)
            hit = cache.lookup(key)
            if not SweepCache.is_miss(hit):
                outcomes[pid] = PointOutcome(
                    point_id=pid,
                    params=params,
                    value=hit,
                    status="cached",
                    attempts=0,
                    cache_key=key,
                )
                telemetry.cached.inc()
                telemetry.record("point_cached", pid)
                continue
        to_run[pid] = params

    if to_run:
        attempts = _Attempts(to_run, outcomes, retries, telemetry)
        if workers == 1:
            _run_serial(spec, attempts, point_dirs)
        else:
            _run_parallel(spec, attempts, workers, timeout, point_dirs)
        for pid, outcome in outcomes.items():
            if outcome.status == "completed" and cache is not None:
                key = keys.get(pid) or point_key(spec, dict(ordered[pid]))
                outcome.cache_key = key
                cache.store(key, outcome.value, point_key_doc(spec, dict(ordered[pid])))

    result = SweepOutcome(
        sweep_id=spec.sweep_id,
        points=[outcomes[pid] for pid in ordered],
        telemetry=telemetry,
    )
    result.wall_time_s = time.monotonic() - started  # lint: ignore[SIM001]
    telemetry.wall_time.set(result.wall_time_s)
    if bus is not None:
        telemetry.record("sweep_done")
        bus.close()

    if layout is not None:
        for pid, outcome in outcomes.items():
            layout.write_manifest(
                point_dirs[pid],
                {
                    "manifest": point_key_doc(spec, dict(ordered[pid])),
                    "point_id": pid,
                    "status": outcome.status,
                    "attempts": outcome.attempts,
                    "error": outcome.error,
                    "cache_key": outcome.cache_key,
                },
            )

    if strict and result.failed:
        details = "; ".join(
            f"{p.point_id}: {p.error}" for p in result.failed[:5]
        )
        raise SweepError(
            f"sweep {spec.sweep_id!r}: {len(result.failed)} point(s) failed "
            f"after {retries} retries — {details}"
        )
    return result


def _obs_arg(spec: SweepSpec, point_dirs: dict[str, Path], pid: str) -> Optional[str]:
    if spec.pass_obs_dir and pid in point_dirs:
        return str(point_dirs[pid])
    return None


class _Attempts:
    """Attempt bookkeeping shared by the serial and parallel paths.

    Both paths start and settle every attempt here, so a point's
    telemetry and live records are the same whatever ``workers`` is.
    """

    def __init__(
        self,
        to_run: dict[str, dict[str, Any]],
        outcomes: dict[str, PointOutcome],
        retries: int,
        telemetry: SweepTelemetry,
    ) -> None:
        self.to_run = to_run
        self.outcomes = outcomes
        self.retries = retries
        self.telemetry = telemetry
        self.count = {pid: 0 for pid in to_run}

    def start(self, pid: str) -> None:
        self.count[pid] += 1
        t = self.telemetry
        t.in_flight.set(t.in_flight.value + 1)
        t.record("point_started", pid, attempt=self.count[pid])

    def settle(self, pid: str, tag: str, payload: Any, duration: float) -> bool:
        """Book one finished attempt; ``True`` when the point is retried.

        ``tag`` is ``"ok"`` (``payload`` is the canonical value) or
        ``"error"`` (``payload`` is the error text).
        """
        t = self.telemetry
        t.in_flight.set(t.in_flight.value - 1)
        t.point_seconds.observe(duration)
        attempt = self.count[pid]
        if tag == "ok":
            t.completed.inc()
            t.record("point_completed", pid, duration=duration)
            self.outcomes[pid] = PointOutcome(
                point_id=pid, params=self.to_run[pid], value=payload,
                status="completed", attempts=attempt,
            )
            return False
        if attempt <= self.retries:
            t.retried.inc()
            t.record("point_retry", pid, attempt=attempt,
                     duration=duration, error=payload)
            return True
        t.failed.inc()
        t.record("point_failed", pid, duration=duration, error=payload)
        self.outcomes[pid] = PointOutcome(
            point_id=pid, params=self.to_run[pid], value=None,
            status="failed", attempts=attempt, error=payload,
        )
        return False


def _run_serial(
    spec: SweepSpec, attempts: _Attempts, point_dirs: dict[str, Path]
) -> None:
    """In-process execution, sequential, in point-id order."""
    try:
        for pid, params in attempts.to_run.items():
            while True:
                attempts.start(pid)
                begin = time.monotonic()  # lint: ignore[SIM001] — harness wall time
                try:
                    tag, payload = "ok", _canonical(
                        _execute_point(spec.func, params, _obs_arg(spec, point_dirs, pid))
                    )
                except Exception as exc:  # noqa: BLE001 - reported per point
                    tag, payload = "error", f"{type(exc).__name__}: {exc}"
                duration = time.monotonic() - begin  # lint: ignore[SIM001]
                if not attempts.settle(pid, tag, payload, duration):
                    break
                time.sleep(_backoff_delay(attempts.count[pid]))
    finally:
        # An interrupt (KeyboardInterrupt) leaves no attempt in flight.
        attempts.telemetry.in_flight.set(0.0)


def _point_worker(
    conn, func_ref: str, params: dict[str, Any], obs_dir: Optional[str]
) -> None:
    """Worker-process entry: run one point, send one ``(tag, payload)``.

    The value is canonicalized *in the worker*, so a non-JSON point
    value comes back as an ordinary per-point error and goes through
    the same retry/strict/lenient bookkeeping as any other exception
    (matching the serial path) instead of aborting the whole sweep.
    """
    try:
        value = _canonical(_execute_point(func_ref, params, obs_dir))
    except BaseException as exc:  # noqa: BLE001 - reported per point
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    else:
        conn.send(("ok", value))
    finally:
        conn.close()


@dataclass
class _RunningPoint:
    """One in-flight point attempt: its process, pipe, and deadline."""

    pid: str
    proc: multiprocessing.Process
    conn: "multiprocessing.connection.Connection"
    deadline: Optional[float]  # None = no timeout
    started: float = 0.0       # monotonic start, for the wall-time histogram


def _reap(proc: multiprocessing.Process) -> Optional[int]:
    """Make sure ``proc`` is gone: join, escalating SIGTERM → SIGKILL.

    Returns the process exit code (negative = killed by that signal).
    """
    proc.join(_TERM_GRACE)
    if proc.is_alive():
        proc.terminate()
        proc.join(_TERM_GRACE)
    if proc.is_alive():
        proc.kill()
        proc.join()
    code = proc.exitcode
    proc.close()
    return code


def _run_parallel(
    spec: SweepSpec,
    attempts: _Attempts,
    workers: int,
    timeout: Optional[float],
    point_dirs: dict[str, Path],
) -> None:
    """Worker-process execution with per-point timeout and retries.

    Each point attempt gets its own worker process and at most
    ``workers`` run at once; the rest wait in a queue.  The timeout
    deadline is set when an attempt's process *starts* — a queued point
    can never expire before it has run — and an expired worker is
    terminated, so a wedged point costs exactly ``timeout`` (plus
    retries), never blocks shutdown, and cannot keep writing telemetry
    concurrently with its own retry.
    """
    mp = multiprocessing.get_context()
    resubmit_at: dict[str, float] = {}
    # Launch in point-id order (determinism of *launch* order is not
    # required for correctness — results are reordered — but it makes
    # worker logs reproducible).
    queued = deque(attempts.to_run)
    running: list[_RunningPoint] = []

    def launch(pid: str) -> None:
        recv_conn, send_conn = mp.Pipe(duplex=False)
        proc = mp.Process(
            target=_point_worker,
            args=(
                send_conn,
                spec.func,
                attempts.to_run[pid],
                _obs_arg(spec, point_dirs, pid),
            ),
        )
        proc.start()
        send_conn.close()  # worker holds the only send end now
        now = time.monotonic()  # lint: ignore[SIM001] — harness timeout
        deadline = now + timeout if timeout is not None else None
        running.append(_RunningPoint(pid, proc, recv_conn, deadline, now))
        attempts.start(pid)

    def settle(pid: str, tag: str, payload: Any, now: float,
               duration: float) -> None:
        if attempts.settle(pid, tag, payload, duration):
            resubmit_at[pid] = now + _backoff_delay(attempts.count[pid])

    try:
        while queued or running or resubmit_at:
            now = time.monotonic()  # lint: ignore[SIM001] — harness clock
            for pid in [p for p, t in resubmit_at.items() if t <= now]:
                del resubmit_at[pid]
                queued.append(pid)
            while queued and len(running) < workers:
                launch(queued.popleft())
            if not running:
                time.sleep(_POLL_INTERVAL)
                continue

            # Sleep until a worker reports/exits or the poll interval
            # elapses (wakes us for deadlines and due retries).
            waitables = [r.conn for r in running] + [
                r.proc.sentinel for r in running
            ]
            multiprocessing.connection.wait(waitables, timeout=_POLL_INTERVAL)
            now = time.monotonic()  # lint: ignore[SIM001] — harness clock

            still_running: list[_RunningPoint] = []
            for r in running:
                # Liveness is read *before* the pipe: a worker's result
                # send happens-before its exit, so when ``alive`` reads
                # False any delivered result is already buffered and
                # ``poll()`` sees it (a bare EOF means the worker really
                # died without reporting — segfault, os._exit, OOM kill).
                alive = r.proc.is_alive()
                if r.conn.poll():
                    try:
                        tag, payload = r.conn.recv()
                    except (EOFError, OSError):
                        tag = None  # pipe closed with no result: a crash
                    r.conn.close()
                    code = _reap(r.proc)
                    if tag is None:
                        tag, payload = (
                            "error",
                            f"WorkerCrash: worker exited with code {code} "
                            "before producing a result",
                        )
                    settle(r.pid, tag, payload, now, now - r.started)
                elif not alive:
                    r.conn.close()
                    code = _reap(r.proc)
                    settle(
                        r.pid,
                        "error",
                        f"WorkerCrash: worker exited with code {code} "
                        "before producing a result",
                        now,
                        now - r.started,
                    )
                elif r.deadline is not None and r.deadline <= now:
                    r.proc.terminate()
                    r.conn.close()
                    _reap(r.proc)
                    settle(
                        r.pid,
                        "error",
                        f"TimeoutError: point exceeded {timeout}s budget",
                        now,
                        now - r.started,
                    )
                else:
                    still_running.append(r)
            running = still_running
    finally:
        # Unexpected exit (KeyboardInterrupt, telemetry bug): leave no
        # orphaned workers behind.
        for r in running:
            r.proc.terminate()
            r.conn.close()
            _reap(r.proc)
        attempts.telemetry.in_flight.set(0.0)
