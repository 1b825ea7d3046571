"""The flow network: event-driven fluid simulation of concurrent transfers.

A :class:`FlowNetwork` is attached to a DES environment.  Callers start
transfers with :meth:`FlowNetwork.transfer`, which returns a DES event
that fires when the last byte arrives.  Between changes every flow moves
linearly at its assigned rate, so the model is exact for the
piecewise-constant rate process it describes.

There is one event loop, used for every allocator.  Its work is
proportional to what changes, not to how many flows are in flight:

* **Batched solves.**  Admits and drains only mark links dirty.  One
  solve runs once every event of the current instant has been processed
  (an :meth:`~repro.des.Environment.at_instant_end` hook, which costs no
  DES event), so N same-instant admits cost one solve, not N.
* **Dirty components only.**  :class:`~repro.network.components.ComponentSolver`
  re-solves just the connected components the batch touched, at the
  granularity of identical-constraint classes; every other flow keeps
  its rate bit-for-bit.
* **Lazy progress.**  A flow stores its remaining bytes as of ``anchor``,
  the time its rate last changed.  An event touches only the flows whose
  rate changed or that finish.
* **Completion heaps.**  Each flow with a positive rate has an entry
  keyed by its finish time (the next wake-up is the smallest) and one
  keyed slightly before the time its residue first passes the finish
  threshold (the candidates at any instant).  Candidates are then checked
  exactly against :meth:`FlowNetwork._finish_threshold`, the same rule the
  per-event sweep this loop replaced applied to every flow, and flows
  that drain at the same instant finish in admission order.  Stale
  entries are skipped by a per-flow version number, and both heaps are
  compacted once they hold more than twice the live flows.

With the default ``max-min`` allocator the per-component rates are the
progressive-filling rates of that component exactly; against the former
whole-network solve they differ only in float rounding (ulps), because
filling several components at once splits the same increments into more
steps.
"""
# lint: hot-path - rate updates and completion checks run per network event

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional

from repro.des import Environment, Event, EventPriority
from repro.network.allocators import resolve_allocator
from repro.network.components import ComponentSolver
from repro.network.link import Link

_EPS = 1e-9
_INF = float("inf")

#: Completion-heap entries beyond ``2 * live flows + _HEAP_SLACK`` trigger
#: a compaction, which bounds the heaps by the live flow count.
_HEAP_SLACK = 64


@dataclass(slots=True)
class Flow:
    """One in-flight transfer."""

    fid: int
    size: float                      # total bytes
    links: tuple[Link, ...]          # capacity-bearing resources traversed
    remaining: float                 # bytes still to move, as of ``anchor``
    rate: float = 0.0                # current allocated rate (bytes/s)
    max_rate: float = _INF           # private cap (e.g. POSIX stream limit)
    started_at: float = 0.0
    completed_at: Optional[float] = None
    done_event: Optional[Event] = None
    label: str = ""
    #: Simulated time at which ``remaining`` was last brought up to date.
    anchor: float = 0.0
    #: Admission serial: same-instant completions finish in this order.
    seq: int = 0
    #: Bumped on every rate change; completion-heap entries carrying an
    #: older version are stale.
    version: int = 0

    @property
    def elapsed(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def achieved_bandwidth(self) -> Optional[float]:
        """Mean end-to-end bandwidth, available once the flow completed.

        ``None`` while in flight, and also for zero-byte flows: a
        metadata-only transfer has no meaningful bandwidth, and
        ``0 / latency == 0.0`` would otherwise drag every bandwidth
        average toward zero.
        """
        elapsed = self.elapsed
        if elapsed is None or elapsed <= 0 or self.size <= 0:
            return None
        return self.size / elapsed

    def remaining_at(self, now: float) -> float:
        """Bytes still to move at time ``now`` (at the current rate)."""
        return max(0.0, self.remaining - self.rate * (now - self.anchor))


class FlowNetwork:
    """Manages concurrent flows over a shared set of links.

    ``allocator`` selects the bandwidth-sharing discipline: a registry
    name (``"max-min"``, ``"equal-split"``, or an alias — see
    :mod:`repro.network.allocators`) or any callable satisfying the
    :class:`~repro.network.allocators.RateAllocator` protocol.  The
    default is max-min fairness (SimGrid's fluid model).
    """

    def __init__(
        self,
        env: Environment,
        allocator="max-min",
    ) -> None:
        self.env = env
        self._flows: dict[int, Flow] = {}
        self._fid = itertools.count(1)
        self._seq = 0
        self._links: dict[str, Link] = {}
        self._solver = ComponentSolver(
            self._link_capacity, resolve_allocator(allocator)
        )
        #: ``(finish_time, fid, version)``: the next wake-up is the top.
        self._due: list[tuple[float, int, int]] = []
        #: ``(earliest_threshold_crossing, fid, version)``: completion
        #: candidates at any instant are the entries at or before it.
        self._crossing: list[tuple[float, int, int]] = []
        self._flush_pending = False
        # The armed wake-up: its time and generation (older wakes that
        # still fire are stale and ignored).
        self._wake_at: Optional[float] = None
        self._generation = 0
        #: Completed-flow log (bounded use: bandwidth accounting in traces).
        self.completed: list[Flow] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def transfer(
        self,
        size: float,
        links: "list[Link] | tuple[Link, ...]",
        latency: float = 0.0,
        max_rate: float = _INF,
        label: str = "",
    ) -> Event:
        """Start a transfer of ``size`` bytes across ``links``.

        Returns an event that succeeds (with the :class:`Flow`) when the
        transfer finishes.  ``latency`` is an additional one-shot delay
        before bytes start moving (route latency + any service overhead
        such as metadata round-trips).  Zero-byte transfers complete after
        just the latency.
        """
        if size < 0:
            raise ValueError(f"negative transfer size: {size}")
        if max_rate <= 0:
            raise ValueError(f"max_rate must be positive, got {max_rate}")

        done = self.env.event()
        flow = Flow(
            fid=next(self._fid),
            size=float(size),
            links=tuple(links),
            remaining=float(size),
            max_rate=max_rate,
            started_at=self.env.now,
            done_event=done,
            label=label,
        )
        if not flow.links and max_rate == _INF:
            # Loopback with no cap: completes after latency alone.
            self.env.process(self._complete_after(flow, latency))
            return done

        total_latency = latency + sum(link.latency for link in flow.links)
        if total_latency > 0:
            self.env.process(self._admit_after(flow, total_latency))
        else:
            self._admit(flow)
        return done

    @property
    def active_flows(self) -> list[Flow]:
        """The flows in flight, with rates settled and progress current."""
        self._settle()
        now = self.env.now
        flows = list(self._flows.values())
        for flow in flows:
            flow.remaining = flow.remaining_at(now)
            flow.anchor = now
        return flows

    def utilization(self, link: Link) -> float:
        """Current aggregate rate over ``link`` divided by its capacity."""
        self._settle()
        load = sum(f.rate for f in self._flows.values() if link in f.links)
        return load / link.bandwidth

    # ------------------------------------------------------------------
    # Admission and completion
    # ------------------------------------------------------------------
    def _complete_after(self, flow: Flow, delay: float):
        yield self.env.timeout(delay)
        self._finish(flow)

    def _admit_after(self, flow: Flow, delay: float):
        yield self.env.timeout(delay)
        self._admit(flow)

    def _admit(self, flow: Flow) -> None:
        now = self.env.now
        flow.started_at = min(flow.started_at, now)
        if flow.remaining <= 0:
            # Zero-byte payload: finish immediately (the done event still
            # fires through the queue, at the current timestamp).
            self._finish(flow)
            return
        # Flows drained by now must leave before rates are recomputed —
        # a lingering near-empty flow would claim a full max-min share
        # and depress everyone else's rate until its completion wake.
        crossing = self._crossing
        if crossing and crossing[0][0] <= now:
            self._finish_drained()
        self._seq += 1
        flow.seq = self._seq
        flow.anchor = now
        self._flows[flow.fid] = flow
        obs = self.env.obs
        if obs is not None:
            obs.on_flow_admitted(len(self._flows))
        names = []
        for link in flow.links:
            self._links.setdefault(link.name, link)
            names.append(link.name)
        self._solver.admit(flow.fid, names, flow.max_rate)
        self._request_flush()

    def _finish_threshold(self, flow: Flow) -> float:
        """Bytes below which a flow counts as complete.

        Two components: an absolute/relative byte epsilon, and the bytes
        a flow moves during one unit of *time resolution* at the current
        clock value — float residue smaller than that can never be
        drained because ``now + eta == now``, which would wake-loop
        forever.
        """
        time_quantum = max(1e-12, abs(self.env.now) * 1e-12)
        return max(_EPS * flow.size + _EPS, flow.rate * time_quantum)

    def _finish_drained(self) -> None:
        """Finish every flow whose residue is below its threshold now.

        Only the crossing-heap entries due by now are candidates; each is
        checked exactly.
        """
        heap = self._crossing
        now = self.env.now
        flows = self._flows
        drained: list[Flow] = []
        missed: list[tuple[float, int, int]] = []
        while heap and heap[0][0] <= now:
            entry = heappop(heap)
            flow = flows.get(entry[1])
            if flow is None or flow.version != entry[2]:
                continue
            if flow.remaining_at(now) <= self._finish_threshold(flow):
                drained.append(flow)
            else:
                missed.append(entry)
        for entry in missed:
            heappush(heap, entry)
        drained.sort(key=_admission_order)
        for flow in drained:
            del flows[flow.fid]
            self._solver.drain(flow.fid)
            self._finish(flow)

    def _finish(self, flow: Flow) -> None:
        flow.remaining = 0.0
        flow.rate = 0.0
        flow.completed_at = self.env.now
        self.completed.append(flow)
        obs = self.env.obs
        if obs is not None:
            # The flow is already out of (or never entered) _flows, so
            # the count reflects concurrency after this completion.
            obs.on_flow_finished(flow, len(self._flows))
            obs.log_event(
                "network", "flow_completed",
                label=flow.label, size=flow.size,
                elapsed=flow.elapsed, active=len(self._flows),
            )
        assert flow.done_event is not None
        flow.done_event.succeed(flow)

    # ------------------------------------------------------------------
    # Rate solves and wake-ups
    # ------------------------------------------------------------------
    def _link_capacity(self, name: str, n_users: int) -> float:
        return self._links[name].effective_bandwidth(n_users)

    def _request_flush(self) -> None:
        """Arm one end-of-instant solve covering every admit/drain of the
        current instant."""
        if not self._flush_pending:
            self._flush_pending = True
            self.env.at_instant_end(self._flush)

    def _flush(self) -> None:
        self._flush_pending = False
        self._settle()
        self._reschedule()

    def _settle(self) -> None:
        """Solve the dirty components and apply the changed rates."""
        solver = self._solver
        if not solver.dirty:
            return
        obs = self.env.obs
        if obs is not None:
            stats = solver.stats
            before = (stats.solver_calls, stats.links_touched, stats.flows_solved)
        changed = solver.solve()
        now = self.env.now
        flows = self._flows
        for fid, rate in changed.items():
            flow = flows[fid]
            flow.remaining = flow.remaining_at(now)
            flow.anchor = now
            flow.rate = rate
            if rate > 0.0:
                self._push_completion(flow, now)
            else:
                flow.version += 1
        if len(self._due) > 2 * len(flows) + _HEAP_SLACK:
            self._compact()
        if obs is not None:
            calls, links, solved = before
            obs.on_rate_solve(
                stats.flows_solved - solved,
                stats.links_touched - links,
                solver_calls=stats.solver_calls - calls,
            )
            obs.on_rates_assigned(list(flows.values()))

    def _push_completion(self, flow: Flow, now: float) -> None:
        """Version ``flow``'s fresh anchor and rate into both heaps."""
        flow.version += 1
        duration = flow.remaining / flow.rate
        finish = now + duration
        heappush(self._due, (finish, flow.fid, flow.version))
        # The residue passes the threshold up to ``lead`` before
        # ``finish``; the margin covers rounding in both estimates.
        lead = max(
            (_EPS * flow.size + _EPS) / flow.rate,
            max(1e-12, abs(finish) * 1e-12),
        )
        margin = 1e-14 * (abs(finish) + duration)
        heappush(
            self._crossing, (finish - lead - margin, flow.fid, flow.version)
        )

    def _compact(self) -> None:
        """Drop stale entries from both completion heaps."""
        self._due = self._live_entries(self._due)
        self._crossing = self._live_entries(self._crossing)

    def _live_entries(self, heap: list) -> list:
        flows = self._flows
        live = [
            entry for entry in heap
            if (flow := flows.get(entry[1])) is not None
            and flow.version == entry[2]
        ]
        heapify(live)
        return live

    def _next_finish(self) -> Optional[float]:
        """Earliest finish time of a live flow, dropping stale entries."""
        heap = self._due
        flows = self._flows
        while heap:
            finish, fid, version = heap[0]
            flow = flows.get(fid)
            if flow is None or flow.version != version:
                heappop(heap)
                continue
            return finish
        return None

    def _reschedule(self) -> None:
        """Arm the wake-up for the next completion, unless it is armed."""
        finish = self._next_finish()
        if finish is None or finish == self._wake_at:
            return
        self._wake_at = finish
        self._generation += 1
        generation = self._generation
        wake = Event(self.env)
        wake._ok = True
        wake._value = None
        wake.callbacks.append(lambda _e: self._on_wake(generation))
        self.env.schedule(
            wake,
            priority=EventPriority.HIGH,
            delay=max(0.0, finish - self.env.now),
        )

    def _on_wake(self, generation: int) -> None:
        if generation != self._generation:
            return  # stale wake-up; a later reschedule superseded it
        self._wake_at = None
        self._finish_drained()
        # A flow whose finish time has come but whose residue still
        # misses the threshold (float rounding of the finish estimate)
        # restarts from its current residue, as a fresh wake would.
        now = self.env.now
        while (finish := self._next_finish()) is not None and finish <= now:
            flow = self._flows[heappop(self._due)[1]]
            flow.remaining = flow.remaining_at(now)
            flow.anchor = now
            self._push_completion(flow, now)
        if self._flows:
            self._request_flush()


def _admission_order(flow: Flow) -> int:
    return flow.seq
