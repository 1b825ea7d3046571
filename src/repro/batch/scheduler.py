"""FCFS batch scheduler with EASY backfilling."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Generator

from repro.des import Environment, Event, Interrupt
from repro.wms.policies import EasyBackfillPolicy, QueuedRequest, RunningGrant

#: The job-level queueing discipline: EASY backfilling with each job's
#: walltime as its estimate.
_EASY = EasyBackfillPolicy()


class JobState(str, enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    TIMEOUT = "timeout"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class JobRequest:
    """A batch job submission."""

    name: str
    n_nodes: int
    walltime: float  # seconds; the job is killed when it expires

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.n_nodes <= 0:
            raise ValueError(f"job {self.name!r}: n_nodes must be positive")
        if self.walltime <= 0:
            raise ValueError(f"job {self.name!r}: walltime must be positive")


@dataclass(frozen=True)
class JobAllocation:
    """Nodes granted to a started job."""

    job: JobRequest
    nodes: tuple[str, ...]
    start_time: float
    submit_time: float

    @property
    def deadline(self) -> float:
        return self.start_time + self.job.walltime


@dataclass(frozen=True)
class JobResult:
    """Outcome of a finished job."""

    job: JobRequest
    nodes: tuple[str, ...]
    start_time: float
    end_time: float
    state: JobState
    submit_time: float

    @property
    def wait_time(self) -> float:
        """Time spent queued, from submission to start."""
        return self.start_time - self.submit_time

    @property
    def runtime(self) -> float:
        return self.end_time - self.start_time


#: A job body: a generator started when the job begins, receiving its
#: allocation.  It is interrupted if the walltime expires first.
JobBody = Callable[[JobAllocation], Generator]


class BatchScheduler:
    """FCFS + EASY backfilling over a fixed pool of nodes.

    FCFS: the queue head starts as soon as enough nodes are free.  EASY
    backfilling: while the head waits, a later job may jump ahead iff it
    can finish (by its walltime) before the head's *reservation* — the
    earliest time enough nodes will be free for the head assuming all
    running jobs use their full walltime — or it only uses nodes the
    head's reservation leaves spare.  The decision is
    :class:`~repro.wms.policies.EasyBackfillPolicy`'s, over nodes.
    """

    def __init__(self, env: Environment, nodes: list[str]) -> None:
        if not nodes:
            raise ValueError("need at least one node")
        self.env = env
        self.all_nodes = list(nodes)
        self._free: list[str] = list(nodes)
        #: (job, body, done event, submit time), in submission order.
        self._queue: list[tuple[JobRequest, JobBody, Event, float]] = []
        self._running: dict[str, JobAllocation] = {}
        self.results: list[JobResult] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, job: JobRequest, body: JobBody) -> Event:
        """Queue a job; the returned event fires with its JobResult."""
        if job.n_nodes > len(self.all_nodes):
            raise ValueError(
                f"job {job.name!r} requests {job.n_nodes} nodes but the "
                f"machine has {len(self.all_nodes)}"
            )
        done = self.env.event()
        self._queue.append((job, body, done, self.env.now))
        self._schedule()
        return done

    @property
    def free_nodes(self) -> int:
        return len(self._free)

    @property
    def queued_jobs(self) -> list[str]:
        return [job.name for job, _, _, _ in self._queue]

    @property
    def running_jobs(self) -> list[str]:
        return sorted(self._running)

    # ------------------------------------------------------------------
    # Scheduling core
    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        queue = [
            QueuedRequest(job.n_nodes, done, job.name, job.walltime)
            for job, _, done, _ in self._queue
        ]
        running = [
            RunningGrant(len(alloc.nodes), alloc.deadline)
            for alloc in self._running.values()
        ]
        picks = _EASY.select(queue, len(self._free), self.env.now, running)
        for index in picks:
            self._start(*self._queue[index])
        for index in reversed(picks):
            del self._queue[index]

    def _start(
        self, job: JobRequest, body: JobBody, done: Event, submit_time: float
    ) -> None:
        nodes = tuple(self._free[: job.n_nodes])
        del self._free[: job.n_nodes]
        allocation = JobAllocation(
            job=job, nodes=nodes, start_time=self.env.now,
            submit_time=submit_time,
        )
        self._running[job.name] = allocation
        self.env.process(self._run(allocation, body, done))

    def _run(self, allocation: JobAllocation, body: JobBody, done: Event):
        job = allocation.job
        body_process = self.env.process(body(allocation))
        state = JobState.COMPLETED

        def killer():
            try:
                yield self.env.timeout(job.walltime)
            except Interrupt:
                return  # body finished first; stand down
            if body_process.is_alive:
                body_process.interrupt("walltime exceeded")

        watchdog = self.env.process(killer())
        try:
            yield body_process
        except Interrupt:
            state = JobState.TIMEOUT
        except Exception:
            # The body's own failure propagates after cleanup.
            self._finish(allocation, done, JobState.COMPLETED, failed=True)
            raise
        if watchdog.is_alive:
            watchdog.interrupt("job done")
        if state == JobState.COMPLETED and self.env.now > allocation.deadline:
            state = JobState.TIMEOUT
        self._finish(allocation, done, state)

    def _finish(
        self,
        allocation: JobAllocation,
        done: Event,
        state: JobState,
        failed: bool = False,
    ) -> None:
        job = allocation.job
        del self._running[job.name]
        self._free.extend(allocation.nodes)
        result = JobResult(
            job=job,
            nodes=allocation.nodes,
            start_time=allocation.start_time,
            end_time=self.env.now,
            state=state,
            submit_time=allocation.submit_time,
        )
        self.results.append(result)
        if not failed:
            done.succeed(result)
        self._schedule()
