"""The queue-policy table: named queueing disciplines for allocators.

PR 5's :class:`~repro.storage.provisioning.BBProvisioner` and the
:class:`~repro.compute.allocator.CoreAllocator` both hard-coded strict
FIFO over their request queues, so every contended scenario inherited
one queueing discipline.  This module gives the discipline a name —
mirroring the :mod:`repro.network.allocators` table — so configs,
sweeps, and CLIs can carry it (``Config.queue_policy``,
``repro-simulate --queue-policy``).

Policies (a constant table; a caller with another discipline passes
the :class:`QueuePolicy` instance itself):

``fifo``
    Strict FIFO, the default: grant the longest queue prefix that fits.
    Byte-identical to the historical hard-coded behaviour.
``easy-backfill``
    EASY backfilling (Lifka): the head's grant time is protected by a
    reservation (shadow time + extra units computed from the running
    grants' projected release times); a queued request may jump ahead
    iff it fits now and either finishes before the shadow time or only
    consumes the extra units.  Requests without walltime estimates can
    only backfill into the extra units.
``conservative-backfill``
    Every queued request keeps its projected strict-FIFO start time; a
    request may jump ahead iff granting it now delays *no* other queued
    request past that projection.  With exact estimates this never
    delays anyone relative to FIFO (property-tested).
``plan``
    Plan-based scheduling (Kopanski & Rzadca, arXiv:2109.00082): over a
    single pool this projects a full schedule like conservative
    backfill; its distinguishing behaviour — co-reserving cores *and*
    burst-buffer granules as one joint reservation, holding both or
    neither — lives in :class:`PlanCoordinator`, which the contended
    scenarios route requests through when this policy is selected.

A policy's :meth:`QueuePolicy.select` is a *pure* function of the queue
snapshot: it must not touch the environment or emit telemetry (lint
rule SIM071).  Wait reporting stays at the allocator decision sites,
which speak the closed :class:`~repro.obs.waits.WaitCause` vocabulary
(SIM070).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from repro.des import Environment, Event
from repro.obs.waits import WaitCause

#: Walltime estimate meaning "unknown" (no projected release time).
UNKNOWN = float("inf")


@dataclass
class QueuedRequest:
    """One queued allocation request, as policies see it.

    ``amount`` is in the allocator's own units (cores or granules);
    ``estimate`` is the requester's walltime estimate in seconds
    (:data:`UNKNOWN` when it did not provide one).  ``tag`` names the
    requester in telemetry only.
    """

    amount: int
    event: Event
    tag: str = ""
    estimate: float = UNKNOWN


@dataclass(frozen=True)
class RunningGrant:
    """A granted, not-yet-released block, as policies see it.

    ``deadline`` is the projected release time (grant time + estimate);
    :data:`UNKNOWN` when the requester gave no estimate.
    """

    amount: int
    deadline: float = UNKNOWN


class QueuePolicy(abc.ABC):
    """A queueing discipline over an allocator's pending requests.

    Policies are stateless; all scheduling state arrives through the
    arguments.  ``select`` must be pure — same snapshot, same answer —
    which is what makes every policy deterministic and lets the
    allocators own all telemetry (SIM071 enforces this).
    """

    #: Registry name; set by subclasses.
    name: str = ""

    @abc.abstractmethod
    def select(
        self,
        queue: Sequence[QueuedRequest],
        free: int,
        now: float,
        running: Sequence[RunningGrant],
    ) -> list[int]:
        """Indices of the queued requests to grant in this instant.

        Indices are ascending; the sum of the selected amounts must not
        exceed ``free``.  The selection must be maximal for the policy
        (the allocator grants it in one pass — grants only consume
        units, so nothing new becomes grantable until a release).
        """


class FifoPolicy(QueuePolicy):
    """Strict FIFO: grant the longest prefix that fits, stop at the
    first request that does not — the historical behaviour."""

    name = "fifo"

    def select(self, queue, free, now, running):
        picks: list[int] = []
        for index, request in enumerate(queue):
            if request.amount > free:
                break
            picks.append(index)
            free -= request.amount
        return picks


def _release_profile(
    free: int, running: Sequence[RunningGrant]
) -> list[tuple[float, int]]:
    """Cumulative (time, units available) steps from the running set.

    Starts from ``free`` units now; each step is one release time, and
    grants released at the same time form one step, so the units
    available at that instant count every one of them.  Grants with
    :data:`UNKNOWN` deadlines never release.
    """
    steps: list[tuple[float, int]] = []
    available = free
    for grant in sorted(running, key=lambda g: g.deadline):
        if grant.deadline == UNKNOWN:
            break
        available += grant.amount
        if steps and steps[-1][0] == grant.deadline:
            steps.pop()
        steps.append((grant.deadline, available))
    return steps


class EasyBackfillPolicy(QueuePolicy):
    """EASY backfilling: protect the head's reservation, fill the gaps.

    The head's *shadow time* is the earliest projected instant it can
    start (walking the running grants' release times); the *extra
    units* are those free at the shadow time beyond the head's need.  A
    later request backfills iff it fits now and either (a) its estimate
    says it finishes before the shadow time, or (b) it consumes only
    extra units.  When a release time needed for the projection is
    unknown, the shadow is unknown and only branch (b) applies.
    """

    name = "easy-backfill"

    def select(self, queue, free, now, running):
        picks: list[int] = []
        for index, request in enumerate(queue):
            if request.amount > free:
                break
            picks.append(index)
            free -= request.amount
        if len(picks) == len(queue):
            return picks

        # The prefix granted just now releases like any running grant
        # (``now + UNKNOWN`` is UNKNOWN).
        granted = [
            RunningGrant(queue[i].amount, now + queue[i].estimate)
            for i in picks
        ]
        head = queue[len(picks)]
        shadow, extra = self._head_reservation(
            head, free, now, [*running, *granted]
        )
        for index in range(len(picks) + 1, len(queue)):
            request = queue[index]
            if request.amount > free:
                continue
            finishes_before_shadow = (
                shadow != UNKNOWN
                and request.estimate != UNKNOWN
                and now + request.estimate <= shadow
            )
            within_extra = request.amount <= extra
            if finishes_before_shadow or within_extra:
                picks.append(index)
                free -= request.amount
                if not finishes_before_shadow:
                    extra -= request.amount
        return picks

    @staticmethod
    def _head_reservation(
        head: QueuedRequest,
        free: int,
        now: float,
        running: Sequence[RunningGrant],
    ) -> tuple[float, int]:
        """(shadow time, extra units) protecting the head's start."""
        for deadline, available in _release_profile(free, running):
            if available >= head.amount:
                return deadline, available - head.amount
        # Not enough known releases to ever start the head: its shadow
        # is unknown, so nothing may rely on finishing "before" it nor
        # on units being spare at it.
        return UNKNOWN, 0


class ConservativeBackfillPolicy(QueuePolicy):
    """Conservative backfilling: no queued request is ever delayed.

    Each queued request holds a reservation at its projected FIFO start
    (computed against the running grants' release times and the
    reservations of the requests ahead of it).  A request is granted
    now iff it fits and granting it leaves every other queued request's
    projection no later than before.
    """

    name = "conservative-backfill"

    def select(self, queue, free, now, running):
        picks: list[int] = []
        grants = list(running)
        remaining = list(range(len(queue)))
        free_now = free
        changed = True
        while changed:
            changed = False
            baseline = self._projected_starts(
                [queue[i] for i in remaining], free_now, now, grants
            )
            for position, index in enumerate(remaining):
                request = queue[index]
                if request.amount > free_now:
                    continue
                trial_rest = [
                    queue[i] for p, i in enumerate(remaining) if p != position
                ]
                trial_grants = grants + [
                    RunningGrant(
                        request.amount,
                        now + request.estimate
                        if request.estimate != UNKNOWN
                        else UNKNOWN,
                    )
                ]
                trial = self._projected_starts(
                    trial_rest, free_now - request.amount, now, trial_grants
                )
                rest_baseline = [
                    s for p, s in enumerate(baseline) if p != position
                ]
                if all(t <= b for t, b in zip(trial, rest_baseline)):
                    picks.append(index)
                    free_now -= request.amount
                    grants = trial_grants
                    remaining.pop(position)
                    changed = True
                    break
        return sorted(picks)

    @staticmethod
    def _projected_starts(
        queue: Sequence[QueuedRequest],
        free: int,
        now: float,
        running: Sequence[RunningGrant],
    ) -> list[float]:
        """Projected FIFO start time of every request in ``queue``.

        Simulates the availability timeline: requests start in order at
        the earliest instant enough units are free, then occupy their
        amount for their estimate (forever when unknown).
        """
        releases = list(running)
        available = free
        clock = now
        starts: list[float] = []
        for request in queue:
            while available < request.amount:
                pending = [g for g in releases if g.deadline > clock]
                future = [g for g in pending if g.deadline != UNKNOWN]
                if not future:
                    clock = UNKNOWN
                    break
                step = min(g.deadline for g in future)
                released = sum(
                    g.amount for g in future if g.deadline == step
                )
                releases = [
                    g for g in releases
                    if not (g.deadline == step and g.deadline != UNKNOWN)
                ]
                available += released
                clock = step
            starts.append(clock)
            if clock == UNKNOWN:
                # Everything behind an unstartable request is unknown
                # too (FIFO order): fill and stop simulating.
                starts.extend(UNKNOWN for _ in range(len(queue) - len(starts)))
                break
            available -= request.amount
            deadline = (
                clock + request.estimate
                if request.estimate != UNKNOWN
                else UNKNOWN
            )
            releases.append(RunningGrant(request.amount, deadline))
        return starts


class PlanPolicy(ConservativeBackfillPolicy):
    """Plan-based scheduling over a single pool.

    Projects the full schedule and grants exactly what the plan starts
    now — which over one resource coincides with conservative
    backfilling.  The joint cores+granules co-reservation that
    distinguishes plan-based scheduling is :class:`PlanCoordinator`.
    """

    name = "plan"


# ----------------------------------------------------------------------
# Named policies (mirrors repro.network.allocators)
# ----------------------------------------------------------------------
#: The default policy name (the historical hard-coded behaviour).
DEFAULT_POLICY = "fifo"

#: The named policies (read-only).
_POLICIES: Mapping[str, QueuePolicy] = MappingProxyType(
    {
        "fifo": FifoPolicy(),
        "easy-backfill": EasyBackfillPolicy(),
        "conservative-backfill": ConservativeBackfillPolicy(),
        "plan": PlanPolicy(),
    }
)


def policy_names() -> list[str]:
    """All policy names."""
    return sorted(_POLICIES)


def resolve_policy(spec: "str | QueuePolicy | None") -> QueuePolicy:
    """Resolve a name, policy object, or ``None`` to a policy.

    ``None`` resolves to the default (``fifo``); :class:`QueuePolicy`
    instances pass through unchanged.
    """
    if spec is None:
        spec = DEFAULT_POLICY
    if isinstance(spec, QueuePolicy):
        return spec
    try:
        return _POLICIES[spec]
    except KeyError:
        raise ValueError(
            f"unknown queue policy {spec!r} (choose from "
            f"{', '.join(sorted(_POLICIES))})"
        ) from None



# ----------------------------------------------------------------------
# Joint cores + burst-buffer co-reservation (the "plan" policy proper)
# ----------------------------------------------------------------------
@dataclass
class JointReservation:
    """A granted cores+granules pair; release it when the job ends.

    The payload of the event returned by :meth:`PlanCoordinator.request`
    — both halves were claimed in the same simulated instant (the
    both-or-neither contract), and :meth:`release` returns both and
    replans the queue.
    """

    coordinator: "PlanCoordinator"
    allocation: object  # CoreAllocation
    lease: object       # BBLease
    released: bool = False
    #: The coordinator's running-table entry backing this reservation.
    _entry: Optional[tuple] = None

    def release(self) -> None:
        if not self.released:
            self.released = True
            self.coordinator._release(self)

    def __enter__(self) -> "JointReservation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


@dataclass
class _PlanRequest:
    host: str
    cores: int
    granules: int
    size: float
    job: str
    estimate: float
    event: Event
    blocked: bool = False


class PlanCoordinator:
    """Plan-based joint scheduler over core allocators + a BB pool.

    The Kopanski/Rzadca insight: when jobs acquire their burst-buffer
    allocation and their cores *separately*, a job can hold one while
    queueing for the other (hold-and-wait), wasting whichever resource
    it already owns.  The coordinator instead plans a joint schedule —
    for each pending request, the earliest instant at which *both* its
    cores and its granules are available, honouring the reservations of
    every request ahead of it — and grants exactly the requests whose
    planned start is now, claiming both halves atomically.

    All requests for the managed resources must flow through the
    coordinator (the allocators' own queues stay empty); estimates are
    walltime hints — unknown estimates degrade the plan to
    grant-in-order-when-both-fit, never break it.
    """

    def __init__(self, compute, provisioner) -> None:
        self.compute = compute
        self.provisioner = provisioner
        self.env: Environment = provisioner.env
        self._pending: list[_PlanRequest] = []
        #: Running joint reservations: (host, cores, granules, deadline).
        self._running: list[tuple[str, int, int, float]] = []

    def request(
        self,
        host: str,
        cores: int,
        size: float,
        job: str = "",
        estimate: Optional[float] = None,
    ) -> Event:
        """Request ``cores`` on ``host`` plus a BB allocation of
        ``size`` bytes as one joint reservation.

        The returned event fires with a :class:`JointReservation` once
        the plan starts the job — both halves granted in the same
        instant, or neither.
        """
        granules = math.ceil(size / self.provisioner.granularity)
        pending = _PlanRequest(
            host=host,
            cores=cores,
            granules=granules,
            size=size,
            job=job,
            estimate=UNKNOWN if estimate is None else float(estimate),
            event=self.env.event(),
        )
        self._pending.append(pending)
        self._replan()
        if not pending.event.triggered and not pending.blocked:
            # Decision site: the joint plan could not start the job in
            # this instant.  Report the binding half (or both) through
            # the closed wait vocabulary.
            pending.blocked = True
            obs = self.env.obs
            if obs is not None:
                allocator = self.compute.allocator(host)
                if cores > allocator.free_cores:
                    obs.on_task_blocked(job, WaitCause.CORES, detail=host)
                if granules > self.provisioner.free_granules:
                    obs.on_task_blocked(
                        job, WaitCause.BB_CAPACITY, detail="bb-pool"
                    )
        return pending.event

    def _release(self, reservation: JointReservation) -> None:
        reservation.lease.release()
        reservation.allocation.release()
        if reservation._entry in self._running:
            self._running.remove(reservation._entry)
        self._replan()

    # ------------------------------------------------------------------
    def _replan(self) -> None:
        """Grant every pending request whose planned start is now."""
        now = self.env.now
        startable = self._plan_startable(now)
        for pending in startable:
            self._pending.remove(pending)
            obs = self.env.obs
            if obs is not None and pending.blocked:
                obs.on_task_unblocked(pending.job, WaitCause.CORES)
                obs.on_task_unblocked(pending.job, WaitCause.BB_CAPACITY)
            allocation = self.compute.allocator(pending.host).claim(
                pending.cores, task=pending.job
            )
            lease = self.provisioner.claim(pending.size, job=pending.job)
            if allocation is None or lease is None:  # pragma: no cover
                raise RuntimeError(
                    "plan coordinator claimed against a stale availability "
                    "snapshot (are requests bypassing the coordinator?)"
                )
            deadline = (
                now + pending.estimate
                if pending.estimate != UNKNOWN
                else UNKNOWN
            )
            entry = (pending.host, pending.cores, pending.granules, deadline)
            self._running.append(entry)
            pending.event.succeed(
                JointReservation(self, allocation, lease, _entry=entry)
            )

    def _plan_startable(self, now: float) -> list[_PlanRequest]:
        """The pending requests the joint plan starts at ``now``.

        Projects each pending request's start in arrival order against
        per-host core availability and granule availability, both
        stepped by the running reservations' deadlines and by the
        reservations planned for earlier pending requests.
        """
        hosts = {pending.host for pending in self._pending}
        free_cores = {
            host: self.compute.allocator(host).free_cores for host in hosts
        }
        free_granules = self.provisioner.free_granules
        # (deadline, host, cores, granules) release steps, known only.
        releases = [
            (deadline, host, cores, granules)
            for host, cores, granules, deadline in self._running
            if deadline != UNKNOWN
        ]
        startable: list[_PlanRequest] = []
        cores_at = dict(free_cores)
        granules_at = free_granules
        # Project in arrival order; each projection consumes capacity
        # from the timeline so later requests honour earlier plans.
        timeline: list[tuple[float, str, int, int]] = sorted(releases)
        for pending in self._pending:
            start = self._earliest_joint_start(
                pending, now, cores_at, granules_at, timeline
            )
            if start == now:
                startable.append(pending)
                cores_at[pending.host] -= pending.cores
                granules_at -= pending.granules
            if start != UNKNOWN:
                deadline = (
                    start + pending.estimate
                    if pending.estimate != UNKNOWN
                    else UNKNOWN
                )
                if start != now:
                    # Reserve the planned window: capacity disappears at
                    # `start` and (if known) returns at `deadline`.
                    timeline.append(
                        (start, pending.host, -pending.cores, -pending.granules)
                    )
                if deadline != UNKNOWN:
                    timeline.append(
                        (deadline, pending.host, pending.cores, pending.granules)
                    )
        return startable

    @staticmethod
    def _earliest_joint_start(
        pending: _PlanRequest,
        now: float,
        cores_at: dict[str, int],
        granules_at: int,
        timeline: list[tuple[float, str, int, int]],
    ) -> float:
        """Earliest t >= now with both resources simultaneously free."""
        times = sorted({now} | {t for t, *_ in timeline if t > now})
        for t in times:
            cores = cores_at[pending.host] + sum(
                c for when, host, c, _ in timeline
                if when <= t and when > now and host == pending.host
            )
            granules = granules_at + sum(
                g for when, _, _, g in timeline if when <= t and when > now
            )
            if cores >= pending.cores and granules >= pending.granules:
                return t
        return UNKNOWN
