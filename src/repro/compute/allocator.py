"""Multi-core allocation: grant p cores atomically, policy-queued.

The DES :class:`~repro.des.resources.Resource` grants one slot at a
time; task execution needs *p cores at once*.  The allocator keeps a
queue of (count, event) requests and grants according to a named
:class:`~repro.wms.policies.QueuePolicy` — strict FIFO by default (no
backfilling, matching the paper's single-node Slurm/LSF allocations),
with EASY/conservative backfilling and plan-based scheduling available
through the queue-policy registry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.des import Environment, Event
from repro.obs.waits import WaitCause


class AllocationError(Exception):
    """Raised for impossible requests (more cores than the host has)."""


@dataclass
class CoreAllocation:
    """A granted block of cores; release it when the task finishes."""

    allocator: "CoreAllocator"
    cores: int
    released: bool = False
    #: Key into the allocator's running-grant table (backfill policies
    #: project release times from it); ``None`` for hand-built objects.
    grant_id: Optional[int] = None

    def release(self) -> None:
        if not self.released:
            self.released = True
            self.allocator._release(self.cores, grant_id=self.grant_id)

    def __enter__(self) -> "CoreAllocation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class CoreAllocator:
    """Policy-queued gang allocator over a host's cores.

    ``label`` names the host in telemetry (busy-core and queue-depth
    series); it has no scheduling effect.  ``policy`` is a queue-policy
    registry name, a :class:`~repro.wms.policies.QueuePolicy`, or
    ``None`` for the default (``fifo`` — the historical behaviour,
    byte-identical).
    """

    def __init__(
        self,
        env: Environment,
        total_cores: int,
        label: str = "",
        policy: "str | object | None" = None,
    ) -> None:
        if total_cores <= 0:
            raise ValueError("total_cores must be positive")
        # Lazy: importing repro.wms.policies at module level would pull
        # repro.wms.__init__ -> engine -> compute.service back into this
        # partially-initialized module.
        from repro.wms.policies import resolve_policy

        self.env = env
        self.total_cores = total_cores
        self.label = label
        self.policy = resolve_policy(policy)
        self._free = total_cores
        self._queue: "deque" = deque()
        #: grant_id -> RunningGrant, for backfill release projections.
        self._running: dict[int, object] = {}
        self._next_grant_id = 0

    @property
    def free_cores(self) -> int:
        return self._free

    @property
    def used_cores(self) -> int:
        return self.total_cores - self._free

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(
        self, cores: int, task: str = "", estimate: Optional[float] = None
    ) -> Event:
        """Request ``cores`` cores.

        The returned event fires with a :class:`CoreAllocation` once the
        cores are granted.  Requests exceeding the host size fail fast.
        ``task`` names the requester in wait-cause telemetry (a request
        that cannot be granted immediately opens a ``CORES`` wait
        interval for it); it has no scheduling effect.  ``estimate`` is
        the requester's walltime estimate in seconds — backfill policies
        use it to protect earlier requests' projected grant times; the
        default ``fifo`` policy ignores it.
        """
        from repro.wms.policies import UNKNOWN, QueuedRequest

        if cores <= 0:
            raise ValueError("cores must be positive")
        if cores > self.total_cores:
            raise AllocationError(
                f"requested {cores} cores but the host has {self.total_cores}"
            )
        event = self.env.event()
        self._queue.append(
            QueuedRequest(
                amount=cores,
                event=event,
                tag=task,
                estimate=UNKNOWN if estimate is None else float(estimate),
            )
        )
        self._grant()
        self._notify()
        if not event.triggered:
            # The decision site for core waits: the request just queued
            # behind the policy instead of being granted in this instant.
            obs = self.env.obs
            if obs is not None:
                obs.on_task_blocked(task, WaitCause.CORES, detail=self.label)
        return event

    def claim(
        self, cores: int, task: str = "", estimate: Optional[float] = None
    ) -> Optional[CoreAllocation]:
        """Grant ``cores`` immediately, or not at all.

        The plan coordinator's primitive: succeeds only when the cores
        are free *and* no request is queued (claims must never overtake
        the policy's queue).  Emits the same grant telemetry as the
        queued path.  Returns ``None`` when the claim cannot be granted
        in this instant.
        """
        if cores <= 0:
            raise ValueError("cores must be positive")
        if self._queue or cores > self._free:
            return None
        allocation = self._granted(cores, task, estimate)
        self._notify()
        return allocation

    def _release(self, cores: int, grant_id: Optional[int] = None) -> None:
        self._free += cores
        if self._free > self.total_cores:
            # A real raise, not an assert: this invariant (double
            # release / foreign allocation) must survive ``python -O``.
            raise AllocationError(
                f"release of {cores} cores leaves {self._free} free on a "
                f"{self.total_cores}-core host (double release?)"
            )
        if grant_id is not None:
            self._running.pop(grant_id, None)
        self._grant()
        self._notify()

    def _grant(self) -> None:
        """Grant whatever the queue policy selects in this instant."""
        if not self._queue:
            return
        picks = self.policy.select(
            self._queue, self._free, self.env.now, list(self._running.values())
        )
        if not picks:
            return
        chosen = [self._queue[i] for i in picks]
        for index in sorted(picks, reverse=True):
            del self._queue[index]
        for request in chosen:
            allocation = self._granted(
                request.amount, request.tag, request.estimate
            )
            obs = self.env.obs
            if obs is not None:
                # Closes the CORES interval opened when the request
                # queued; a same-instant grant never opened one, and the
                # observer ignores unmatched unblocks.
                obs.on_task_unblocked(request.tag, WaitCause.CORES)
            request.event.succeed(allocation)

    def _granted(
        self, cores: int, task: str, estimate: "Optional[float]"
    ) -> CoreAllocation:
        """Book a grant: decrement, record the running grant."""
        from repro.wms.policies import UNKNOWN, RunningGrant

        self._free -= cores
        grant_id = self._next_grant_id
        self._next_grant_id += 1
        estimate = UNKNOWN if estimate is None else float(estimate)
        deadline = (
            self.env.now + estimate if estimate != UNKNOWN else UNKNOWN
        )
        self._running[grant_id] = RunningGrant(cores, deadline)
        return CoreAllocation(self, cores, grant_id=grant_id)

    def _notify(self) -> None:
        """Publish busy-core and queue-depth samples after a change."""
        obs = self.env.obs
        if obs is not None:
            obs.on_core_allocation(
                self.label, self.used_cores, self.total_cores, len(self._queue)
            )
