"""Online invariant monitors: fail at the timestep, not at the makespan.

A silent modeling bug — an allocator handing out more bandwidth than a
link has, a burst buffer accepting more bytes than its pool, the event
queue travelling backwards in time — corrupts every downstream figure
while the run itself completes "successfully".  Monitors registered on
an :class:`~repro.obs.observer.Observer` check these invariants *online*
(inside the hook that carries the relevant state) and raise
:class:`InvariantViolation` with the recent event chain the moment one
breaks, so the offending decision is still on the stack.

Monitors are observers of observers: they never touch simulated state,
so a monitored run that completes is bit-identical to an unmonitored
one.  With no monitors registered the per-hook cost is one truthiness
test on an empty tuple.

Standard monitors (:func:`standard_monitors`):

* :class:`BBOccupancyMonitor` — every storage service's occupancy stays
  at or below its capacity (relative tolerance 1e-9);
* :class:`LinkCapacityMonitor` — after every rate solve, the flow-rate
  sum over each link stays within its effective capacity (rel 1e-9);
* :class:`EventMonotonicityMonitor` — the DES clock never decreases
  across processed events;
* :class:`LeaseBalanceMonitor` — the BB provisioner's granule ledger
  balances: free + outstanding == pool, with free in [0, pool].
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer

#: Relative slack for float-accumulation noise in capacity comparisons.
_REL_TOL = 1e-9


class InvariantViolation(RuntimeError):
    """A model invariant broke mid-run.

    Carries the violated ``invariant`` name, a human-readable
    ``detail``, and the observer's recent event ``chain`` (most recent
    last) so the report shows *how* the simulation got here, not just
    that it did.
    """

    def __init__(
        self, invariant: str, detail: str, chain: "list[dict[str, Any]]"
    ) -> None:
        self.invariant = invariant
        self.detail = detail
        self.chain = list(chain)
        tail = "\n".join(
            f"  [{r.get('sim_time')}] {r.get('component')}.{r.get('event')} "
            f"{r.get('fields')}"
            for r in self.chain[-8:]
        )
        super().__init__(
            f"invariant {invariant!r} violated: {detail}"
            + (f"\nrecent event chain (most recent last):\n{tail}" if tail else "")
        )


class InvariantMonitor:
    """Base class: named checks over observer hook payloads.

    Subclasses override the ``on_*`` methods they care about.  Every
    successful check must go through :meth:`passed` so the per-monitor
    check counters exist even for runs with zero violations — "no
    violations reported" and "nothing was checked" must be
    distinguishable in CI.
    """

    name = "invariant"

    def bind(self, observer: "Observer") -> None:
        # Weak, because the observer holds its monitors: a strong
        # back-reference would be a cycle that keeps a finished run
        # alive until CPython's next full collection.
        self._observer = weakref.ref(observer)
        self._checks = observer.registry.counter(f"invariants.{self.name}.checks")

    def passed(self) -> None:
        self._checks.inc()

    def fail(self, detail: str, **fields: Any) -> None:
        observer = self._observer()
        observer.log_event("obs", "invariant_violation",
                           invariant=self.name, detail=detail, **fields)
        observer.registry.counter("invariants.violations").inc()
        raise InvariantViolation(self.name, detail, observer.recent_events)

    # Hook surface (all optional) ---------------------------------------
    def on_storage_occupancy(
        self, service: str, used: float, capacity: float
    ) -> None: ...

    def on_rates_assigned(self, flows) -> None: ...

    def on_event_processed(self, when: Optional[float]) -> None: ...

    def on_bb_lease(
        self, action: str, granules: int, free: int, total: int, job: str
    ) -> None: ...


class BBOccupancyMonitor(InvariantMonitor):
    """Storage occupancy must never exceed capacity."""

    name = "bb_occupancy"

    def on_storage_occupancy(
        self, service: str, used: float, capacity: float
    ) -> None:
        if used > capacity * (1 + _REL_TOL):
            self.fail(
                f"service {service!r} holds {used:.6e} B, capacity is "
                f"{capacity:.6e} B",
                service=service, used=used, capacity=capacity,
            )
        self.passed()


class LinkCapacityMonitor(InvariantMonitor):
    """Per-link flow-rate sums must respect effective link capacity.

    Checked against the same effective capacity the allocators see:
    ``link.effective_bandwidth(n_users)`` with the user count taken over
    the active flows traversing the link.
    """

    name = "link_capacity"

    def on_rates_assigned(self, flows) -> None:
        loads: dict[str, float] = {}
        users: dict[str, int] = {}
        links: dict[str, Any] = {}
        for flow in flows:
            for link in flow.links:
                loads[link.name] = loads.get(link.name, 0.0) + flow.rate
                users[link.name] = users.get(link.name, 0) + 1
                links[link.name] = link
        for name in sorted(loads):
            capacity = links[name].effective_bandwidth(users[name])
            if loads[name] > capacity * (1 + _REL_TOL):
                # The flows in flight on the link say which transfers
                # (and so which tasks and files) led up to the failure.
                labels = sorted(
                    flow.label
                    for flow in flows
                    if any(link.name == name for link in flow.links)
                )
                self.fail(
                    f"link {name!r} carries {loads[name]:.6e} B/s over "
                    f"effective capacity {capacity:.6e} B/s "
                    f"({users[name]} flows: {', '.join(labels)})",
                    link=name, load=loads[name], capacity=capacity,
                    flows=users[name], flow_labels=labels,
                )
        self.passed()


class EventMonotonicityMonitor(InvariantMonitor):
    """The DES clock must be non-decreasing across processed events."""

    name = "event_monotonicity"

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def on_event_processed(self, when: Optional[float]) -> None:
        if when is None:
            return  # legacy call site without a timestamp
        if self._last is not None and when < self._last:
            self.fail(
                f"event processed at t={when} after t={self._last}",
                when=when, previous=self._last,
            )
        self._last = when
        self.passed()


class LeaseBalanceMonitor(InvariantMonitor):
    """The BB provisioner's granule ledger must balance.

    Maintains its own outstanding-granule count from lease events and
    cross-checks the provisioner's reported free count: a double
    release, a grant that was never carved, or a free count outside
    ``[0, pool]`` all surface here.
    """

    name = "lease_balance"

    def __init__(self) -> None:
        self._outstanding = 0

    def on_bb_lease(
        self, action: str, granules: int, free: int, total: int, job: str
    ) -> None:
        if action == "granted":
            self._outstanding += granules
        elif action == "released":
            self._outstanding -= granules
        else:
            return  # "queued" carries no ledger change
        if self._outstanding < 0:
            self.fail(
                f"released more granules than were granted "
                f"(outstanding={self._outstanding} after {action} of "
                f"{granules} for job {job!r})",
                action=action, granules=granules, job=job,
            )
        if not 0 <= free <= total:
            self.fail(
                f"free granule count {free} outside pool [0, {total}]",
                free=free, total=total, job=job,
            )
        if self._outstanding + free != total:
            self.fail(
                f"ledger imbalance: outstanding {self._outstanding} + free "
                f"{free} != pool {total}",
                outstanding=self._outstanding, free=free, total=total,
            )
        self.passed()


def standard_monitors() -> "list[InvariantMonitor]":
    """One fresh instance of every standard monitor."""
    return [
        BBOccupancyMonitor(),
        LinkCapacityMonitor(),
        EventMonotonicityMonitor(),
        LeaseBalanceMonitor(),
    ]
