"""Burst-buffer allocation provisioning (DataWarp-style).

On Cori, a job requests a BB *allocation size*; DataWarp rounds it up
to its allocation granularity and spreads the allocation over as many
BB nodes as granules — "as there are far more compute nodes than I/O
and BB nodes, a given BB allocation is usually spread over multiple BB
nodes" (paper Section III-D).  This module models that sizing step:
from a requested capacity to the set of BB nodes backing it, which is
exactly the striping width a :class:`SharedBurstBuffer` then uses.

BB nodes are discovered through each host's declared
:class:`~repro.platform.HostRole` (``shared_bb``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.des import Environment, Event
from repro.obs.waits import WaitCause
from repro.platform.presets import BB_DISK
from repro.platform.runtime import Platform
from repro.platform.spec import HostRole
from repro.platform.units import GiB
from repro.storage.base import InsufficientStorage
from repro.storage.burst_buffer import BBMode, SharedBurstBuffer

#: Cray DataWarp's default allocation granularity on Cori-era systems.
DEFAULT_GRANULARITY = 20 * GiB


def discover_bb_hosts(platform: Platform) -> list[str]:
    """The platform's shared-BB nodes (``role=shared_bb``), by name."""
    return sorted(
        h.name for h in platform.spec.hosts if h.role is HostRole.SHARED_BB
    )


@dataclass(frozen=True)
class BBAllocation:
    """A provisioned burst-buffer allocation."""

    requested: float          # bytes asked for
    granted: float            # bytes granted (rounded up to granules)
    granularity: float
    bb_hosts: tuple[str, ...]  # the nodes backing the allocation

    @property
    def granules(self) -> int:
        return round(self.granted / self.granularity)

    @property
    def stripe_width(self) -> int:
        """Number of distinct BB nodes the allocation spans."""
        return len(self.bb_hosts)


def provision_allocation(
    platform: Platform,
    size: float,
    granularity: float = DEFAULT_GRANULARITY,
    bb_hosts: Optional[Sequence[str]] = None,
    disk: str = BB_DISK,
) -> BBAllocation:
    """Provision a BB allocation of at least ``size`` bytes.

    Granules are distributed round-robin over the available BB nodes
    (so a small allocation touches few nodes and a large one stripes
    wide — DataWarp's behaviour), subject to per-node capacity.

    Raises :class:`InsufficientStorage` when the platform's BB nodes
    cannot hold the granted size.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    if granularity <= 0:
        raise ValueError("granularity must be positive")

    if bb_hosts is None:
        bb_hosts = discover_bb_hosts(platform)
    if not bb_hosts:
        raise ValueError("platform has no BB nodes to provision from")

    granules = math.ceil(size / granularity)
    granted = granules * granularity

    # Per-node granule capacity.
    per_node_capacity = {
        h: int(platform.host(h).disk(disk).capacity // granularity)
        for h in bb_hosts
    }
    if granules > sum(per_node_capacity.values()):
        raise InsufficientStorage(
            f"allocation of {granted:.3e} B ({granules} granules) exceeds "
            f"the BB pool capacity"
        )

    # Round-robin granules over nodes, respecting per-node limits.
    assigned: dict[str, int] = {h: 0 for h in bb_hosts}
    remaining = granules
    while remaining > 0:
        progressed = False
        for h in bb_hosts:
            if remaining == 0:
                break
            if assigned[h] < per_node_capacity[h]:
                assigned[h] += 1
                remaining -= 1
                progressed = True
        if not progressed:  # pragma: no cover - guarded by the sum check
            raise InsufficientStorage("BB pool exhausted during assignment")

    used_hosts = tuple(h for h in bb_hosts if assigned[h] > 0)
    return BBAllocation(
        requested=float(size),
        granted=float(granted),
        granularity=float(granularity),
        bb_hosts=used_hosts,
    )


@dataclass
class BBLease:
    """A granted (and releasable) provisioned allocation.

    The payload of the event returned by :meth:`BBProvisioner.request`.
    Release it when the job's stage-out completes so queued requests can
    be granted.
    """

    provisioner: "BBProvisioner"
    allocation: BBAllocation
    per_host_granules: dict[str, int]
    released: bool = False
    #: Key into the provisioner's running-grant table (backfill policies
    #: project release times from it); ``None`` for hand-built objects.
    grant_id: Optional[int] = None

    def release(self) -> None:
        if not self.released:
            self.released = True
            self.provisioner._release(self)

    def __enter__(self) -> "BBLease":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class BBProvisioner:
    """DES-aware DataWarp allocation queue over a finite granule pool.

    :func:`provision_allocation` sizes a single allocation against an
    *empty* pool; real DataWarp jobs queue when the pool is exhausted
    and are granted as earlier allocations are torn down.  This class
    models that lifecycle: :meth:`request` returns a DES event that
    fires with a :class:`BBLease` once enough granules are free, in the
    order the configured queue policy dictates — strict FIFO by default
    (no backfilling, matching the core allocator's conservative
    queueing), with backfill and plan policies available through the
    :mod:`repro.wms.policies` registry.

    A request that cannot be granted immediately is a *decision site*
    for the profiler: it opens a ``BB_CAPACITY`` wait interval for the
    requesting job (``env.obs`` hooks; zero-cost when disabled).
    """

    def __init__(
        self,
        platform: Platform,
        granularity: float = DEFAULT_GRANULARITY,
        bb_hosts: Optional[Sequence[str]] = None,
        disk: str = BB_DISK,
        policy: "str | object | None" = None,
    ) -> None:
        # Lazy: repro.wms.policies at module level would cycle through
        # repro.wms.__init__ -> engine -> storage imports.
        from repro.wms.policies import resolve_policy

        if granularity <= 0:
            raise ValueError("granularity must be positive")
        self.platform = platform
        self.env: Environment = platform.env
        self.granularity = float(granularity)
        if bb_hosts is None:
            bb_hosts = discover_bb_hosts(platform)
        if not bb_hosts:
            raise ValueError("platform has no BB nodes to provision from")
        self.bb_hosts = list(bb_hosts)
        self.policy = resolve_policy(policy)
        self._free: dict[str, int] = {
            h: int(platform.host(h).disk(disk).capacity // granularity)
            for h in self.bb_hosts
        }
        self.total_granules = sum(self._free.values())
        self._queue: "deque" = deque()
        #: grant_id -> RunningGrant, for backfill release projections.
        self._running: dict[int, object] = {}
        self._next_grant_id = 0

    @property
    def free_granules(self) -> int:
        return sum(self._free.values())

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(
        self, size: float, job: str = "", estimate: Optional[float] = None
    ) -> Event:
        """Request an allocation of at least ``size`` bytes.

        The returned event fires with a :class:`BBLease`.  Requests
        larger than the whole pool can never be satisfied and raise
        :class:`InsufficientStorage` immediately.  ``job`` names the
        requester in wait-cause telemetry only; ``estimate`` is a
        walltime hint for the backfill policies (ignored by ``fifo``).
        """
        from repro.wms.policies import UNKNOWN, QueuedRequest

        if size <= 0:
            raise ValueError("size must be positive")
        granules = math.ceil(size / self.granularity)
        if granules > self.total_granules:
            raise InsufficientStorage(
                f"allocation of {granules} granules exceeds the BB pool "
                f"({self.total_granules} granules)"
            )
        event = self.env.event()
        self._queue.append(
            QueuedRequest(
                amount=granules,
                event=event,
                tag=job,
                estimate=UNKNOWN if estimate is None else float(estimate),
            )
        )
        self._grant()
        if not event.triggered:
            # Decision site: the pool could not satisfy the request in
            # this instant, so the job queues behind running allocations.
            obs = self.env.obs
            if obs is not None:
                obs.on_task_blocked(job, WaitCause.BB_CAPACITY, detail="bb-pool")
                obs.on_bb_lease(
                    "queued", granules, self.free_granules,
                    self.total_granules, job,
                )
        return event

    def claim(
        self, size: float, job: str = "", estimate: Optional[float] = None
    ) -> Optional[BBLease]:
        """Grant an allocation immediately, or not at all.

        The plan coordinator's primitive: succeeds only when enough
        granules are free *and* no request is queued (claims must never
        overtake the policy's queue).  Emits the same ``granted`` lease
        telemetry as the queued path, keeping the lease-balance monitor
        ledger exact.  Returns ``None`` when the claim cannot be
        granted in this instant.
        """
        if size <= 0:
            raise ValueError("size must be positive")
        granules = math.ceil(size / self.granularity)
        if self._queue or granules > self.free_granules:
            return None
        lease = self._carve(granules, job, estimate)
        obs = self.env.obs
        if obs is not None:
            obs.on_bb_lease(
                "granted", granules, self.free_granules,
                self.total_granules, job,
            )
        return lease

    def _release(self, lease: BBLease) -> None:
        for host, granules in lease.per_host_granules.items():
            self._free[host] += granules
        if self.free_granules > self.total_granules:
            # A real raise, not an assert: this ledger invariant (double
            # release) must survive ``python -O``.
            raise InsufficientStorage(
                f"release leaves {self.free_granules} granules free in a "
                f"{self.total_granules}-granule pool (double release?)"
            )
        if lease.grant_id is not None:
            self._running.pop(lease.grant_id, None)
        obs = self.env.obs
        if obs is not None:
            obs.on_bb_lease(
                "released", lease.allocation.granules, self.free_granules,
                self.total_granules, "",
            )
        self._grant()

    def _grant(self) -> None:
        """Grant whatever the queue policy selects in this instant."""
        if not self._queue:
            return
        picks = self.policy.select(
            self._queue, self.free_granules, self.env.now,
            list(self._running.values()),
        )
        if not picks:
            return
        chosen = [self._queue[i] for i in picks]
        for index in sorted(picks, reverse=True):
            del self._queue[index]
        for request in chosen:
            obs = self.env.obs
            if obs is not None:
                obs.on_task_unblocked(request.tag, WaitCause.BB_CAPACITY)
            request.event.succeed(
                self._carve(request.amount, request.tag, request.estimate)
            )
            if obs is not None:
                obs.on_bb_lease(
                    "granted", request.amount, self.free_granules,
                    self.total_granules, request.tag,
                )

    def _carve(
        self, granules: int, job: str, estimate: "Optional[float]" = None
    ) -> BBLease:
        """Assign ``granules`` round-robin over nodes with free space."""
        from repro.wms.policies import UNKNOWN, RunningGrant

        assigned: dict[str, int] = {h: 0 for h in self.bb_hosts}
        remaining = granules
        while remaining > 0:
            progressed = False
            for h in self.bb_hosts:
                if remaining == 0:
                    break
                if self._free[h] - assigned[h] > 0:
                    assigned[h] += 1
                    remaining -= 1
                    progressed = True
            if not progressed:  # pragma: no cover - guarded by _grant
                raise InsufficientStorage("BB pool exhausted during assignment")
        per_host = {h: n for h, n in assigned.items() if n > 0}
        for h, n in per_host.items():
            self._free[h] -= n
        granted = granules * self.granularity
        allocation = BBAllocation(
            requested=granted,
            granted=granted,
            granularity=self.granularity,
            bb_hosts=tuple(h for h in self.bb_hosts if h in per_host),
        )
        estimate = (
            UNKNOWN if estimate is None or estimate == UNKNOWN
            else float(estimate)
        )
        grant_id = self._next_grant_id
        self._next_grant_id += 1
        deadline = self.env.now + estimate if estimate != UNKNOWN else UNKNOWN
        self._running[grant_id] = RunningGrant(granules, deadline)
        return BBLease(self, allocation, per_host, grant_id=grant_id)


def burst_buffer_for_allocation(
    platform: Platform,
    allocation: BBAllocation,
    mode: BBMode = BBMode.STRIPED,
    owner_host: Optional[str] = None,
    **kwargs,
) -> SharedBurstBuffer:
    """Build the storage service backed by a provisioned allocation.

    The service's capacity is clamped to the *granted* size (DataWarp
    enforces the allocation, not the device capacity), and striping
    spans exactly the allocation's nodes.  The clamp is applied at
    construction, so capacity gauges and the occupancy monitor see the
    allocation's capacity from the very first sample.
    """
    return SharedBurstBuffer(
        platform,
        list(allocation.bb_hosts),
        mode,
        owner_host=owner_host,
        capacity=allocation.granted,
        **kwargs,
    )
