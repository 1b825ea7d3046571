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
* **Per-class service clocks.**  Flows of one class always share a
  rate, so the class keeps one clock: the bytes each member has received
  (see :class:`~repro.network.components.ComponentSolver`), advanced only
  when the class rate changes.  A flow stores the fixed clock reading at
  which it is done, so a rate change costs O(1) per class, not per flow.
* **Flows alone on their links.**  Under ``max-min``, a flow admitted
  onto links that no other flow uses skips the component search and the
  allocator call: the solver prices its class in one step, and a later
  flow onto one of its links makes the class join the graph (see
  :mod:`~repro.network.components`).
* **Completion heaps.**  Each class orders its members twice in service
  space: by target (whose head finishes first) and by target minus the
  byte term of the finish threshold (whose head passes that term first).
  A rate change invalidates neither.  Two global heaps hold one entry per
  class with a positive rate: its head's finish time (the next wake-up
  is the smallest) and, slightly before it, the earliest time any member
  can pass the finish threshold (the candidate classes at any instant).
  Within a candidate class the two heap prefixes that can pass are
  checked exactly against :func:`_finish_threshold`, the rule the
  per-event sweep this loop replaced applied to every flow, and flows
  that drain at the same instant finish in admission order.  Stale
  global entries are skipped by a per-class version number, and both
  heaps are compacted once they hold more than twice the live classes.

With the default ``max-min`` allocator the per-component rates are the
progressive-filling rates of that component exactly; against the former
whole-network solve they differ only in float rounding (ulps), because
filling several components at once splits the same increments into more
steps.

The network keeps no log of finished flows: :meth:`FlowNetwork._finish`
hands each one to an attached observer (``env.obs.on_flow_finished``),
and an unobserved run lets a flow go once its done event has fired.
"""
# lint: hot-path - rate updates and completion checks run per network event

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Iterator, Optional

from repro.des import Environment, Event, EventPriority, Timeout
from repro.network.allocators import resolve_allocator
from repro.network.components import ComponentSolver
from repro.network.link import Link

if TYPE_CHECKING:
    from repro.network.components import _Class

_EPS = 1e-9
_INF = float("inf")

#: Completion-heap entries beyond ``2 * live classes + _HEAP_SLACK``
#: trigger a compaction, which bounds the heaps by the live class count.
_HEAP_SLACK = 64

#: Relative slack on candidate bounds and byte-crossing keys: far above
#: the rounding of the service-clock arithmetic, far below any byte count
#: that matters.
_SLACK = 1e-12


@dataclass(slots=True)
class Flow:
    """One in-flight transfer."""

    fid: int
    size: float                      # total bytes
    links: tuple[Link, ...]          # capacity-bearing resources traversed
    remaining: float                 # bytes still to move, as last read
    rate: float = 0.0                # allocated rate (bytes/s), as last read
    max_rate: float = _INF           # private cap (e.g. POSIX stream limit)
    started_at: float = 0.0
    completed_at: Optional[float] = None
    done_event: Optional[Event] = None  # cleared once the flow finishes
    label: str = ""
    #: Admission serial: same-instant completions finish in this order.
    seq: int = 0
    #: Reading of its class's service clock at which the flow is done.
    target: float = 0.0

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
        links = self._links
        # A closure over the link table, not a bound method: the solver
        # must not point back at the network, or every finished run
        # would be a reference cycle only the cyclic collector frees.
        self._solver = ComponentSolver(
            lambda name, n_users: links[name].effective_bandwidth(n_users),
            resolve_allocator(allocator),
        )
        #: ``(finish_time, serial, version, class)``, one live entry per
        #: class with a positive rate: the next wake-up is the top.
        self._due: list[tuple] = []
        #: ``(earliest_threshold_crossing, serial, version, class)``: the
        #: classes with completion candidates at any instant are the
        #: entries at or before it.
        self._crossing: list[tuple] = []
        self._flush_pending = False
        # The armed wake-up: its time and generation (older wakes that
        # still fire are stale and ignored).
        self._wake_at: Optional[float] = None
        self._generation = 0

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
            started_at=self.env._now,
            done_event=done,
            label=label,
        )
        if not flow.links and max_rate == _INF:
            # Loopback with no cap: completes after latency alone.
            Timeout(self.env, latency, flow).callbacks.append(self._on_latency_end)
            return done

        total_latency = latency + sum([link.latency for link in flow.links])
        if total_latency > 0:
            Timeout(self.env, total_latency, flow).callbacks.append(self._on_admit)
        else:
            self._admit(flow)
        return done

    @property
    def active_flows(self) -> list[Flow]:
        """The flows in flight, with rates settled and each flow's
        ``rate`` and ``remaining`` filled in as of now."""
        self._settle()
        return self._current_flows()

    def utilization(self, link: Link) -> float:
        """Current aggregate rate over ``link`` divided by its capacity."""
        self._settle()
        rate = self._solver.rate
        load = sum(rate(f.fid) for f in self._flows.values() if link in f.links)
        return load / link.bandwidth

    def _current_flows(self) -> list[Flow]:
        """The flows in flight, their ``rate`` and ``remaining`` filled in
        from their classes (the only place these fields are written)."""
        now = self.env.now
        class_of = self._solver.class_of
        flows = list(self._flows.values())
        for flow in flows:
            cls = class_of(flow.fid)
            flow.rate = cls.rate
            flow.remaining = max(0.0, flow.target - cls.served_at(now))
        return flows

    # ------------------------------------------------------------------
    # Admission and completion
    # ------------------------------------------------------------------
    def _on_latency_end(self, timeout: Event) -> None:
        """A loopback flow's latency is over: it is done."""
        self._finish(timeout._value)

    def _on_admit(self, timeout: Event) -> None:
        """A flow's latency is over: its bytes start to move."""
        self._admit(timeout._value)

    def _admit(self, flow: Flow) -> None:
        env = self.env
        now = env._now
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
        seq = flow.seq = self._seq
        self._flows[flow.fid] = flow
        obs = env.obs
        if obs is not None:
            obs.on_flow_admitted()
        names = [link.name for link in flow.links]
        links = self._links
        for link in flow.links:
            if link.name not in links:
                links[link.name] = link
        cls = self._solver.admit(flow.fid, names, flow.max_rate)
        target = flow.target = cls.served_at(now) + flow.size
        heappush(cls.by_target, (target, seq, flow))
        # Target minus the byte term of the threshold, widened a hair so
        # that rounding cannot hide a member that passes it.
        by_bytes = (_EPS * flow.size + _EPS) * (1.0 + _SLACK)
        heappush(cls.by_crossing, (target - by_bytes, seq, flow))
        if cls.rate > 0.0 and (
            cls.by_target[0][2] is flow or cls.by_crossing[0][2] is flow
        ):
            # A new head moves the class's completion keys.
            self._rekey(cls)
        self._request_flush()

    def _finish_drained(self) -> None:
        """Finish every flow whose residue is below its threshold now.

        Only the classes whose crossing entry is due by now hold
        candidates; within each, only the member-heap prefixes that can
        pass are visited (a class of one checks its member alone), and
        each candidate is checked exactly.
        """
        heap = self._crossing
        now = self.env._now
        quantum = max(1e-12, abs(now) * 1e-12)
        drained: list[Flow] = []
        touched: list[_Class] = []
        missed: list[tuple] = []
        while heap and heap[0][0] <= now:
            entry = heappop(heap)
            cls = entry[3]
            if entry[2] != cls.version:
                continue
            found = _drained_members(cls, now, quantum)
            if found:
                drained += found
                touched.append(cls)
            else:
                missed.append(entry)
        for entry in missed:
            heappush(heap, entry)
        if not drained:
            return
        if len(drained) > 1:
            drained.sort(key=_admission_order)
        flows = self._flows
        for flow in drained:
            del flows[flow.fid]
            self._solver.drain(flow.fid)
            self._finish(flow)
        for cls in touched:
            self._rekey(cls)

    def _finish(self, flow: Flow) -> None:
        flow.remaining = 0.0
        flow.rate = 0.0
        env = self.env
        flow.completed_at = env._now
        obs = env.obs
        if obs is not None:
            obs.on_flow_finished(flow)
        # The event carries the flow as its value, so the flow lets go of
        # the event: a finished flow and its event form no cycle.
        done, flow.done_event = flow.done_event, None
        assert done is not None
        done.succeed(flow)

    # ------------------------------------------------------------------
    # Rate solves and wake-ups
    # ------------------------------------------------------------------
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
        """Solve the dirty components and re-key the classes whose rate
        changed (the solver advances their clocks)."""
        solver = self._solver
        if not solver.dirty:
            return
        obs = self.env.obs
        if obs is not None:
            stats = solver.stats
            before = (stats.solver_calls, stats.links_touched, stats.flows_solved)
        for cls in solver.solve(self.env._now):
            self._rekey(cls)
        bound = 2 * solver.n_classes + _HEAP_SLACK
        if len(self._due) > bound or len(self._crossing) > bound:
            self._due = _live_entries(self._due)
            self._crossing = _live_entries(self._crossing)
        if obs is not None:
            calls, links, solved = before
            obs.on_rate_solve(
                stats.flows_solved - solved,
                stats.links_touched - links,
                solver_calls=stats.solver_calls - calls,
            )
            if obs.monitors_rates:
                obs.on_rates_assigned(self._current_flows())

    def _rekey(self, cls: _Class) -> None:
        """Replace ``cls``'s completion-heap entries with ones derived
        from its member heads, its clock and its rate."""
        cls.version += 1
        by_target = cls.by_target
        while by_target and by_target[0][2].completed_at is not None:
            heappop(by_target)
        by_crossing = cls.by_crossing
        while by_crossing and by_crossing[0][2].completed_at is not None:
            heappop(by_crossing)
        rate = cls.rate
        if not by_target or rate <= 0.0:
            return
        served = cls.served
        anchor = cls.anchor
        first = by_target[0][0]
        first_by_bytes = by_crossing[0][0]
        finish = anchor + (first - served) / rate
        # The earliest member to pass the threshold: by its time term the
        # one finishing first, by its byte term the head of by_crossing.
        # The margin covers rounding in both estimates.
        crossing = min(
            finish - max(1e-12, abs(finish) * 1e-12),
            anchor + (first_by_bytes - served) / rate,
        )
        scale = abs(served) + abs(first) + abs(first_by_bytes)
        margin = 1e-14 * (abs(finish) + scale / rate)
        heappush(self._due, (finish, cls.serial, cls.version, cls))
        heappush(self._crossing, (crossing - margin, cls.serial, cls.version, cls))

    def _next_finish(self) -> Optional[float]:
        """Earliest finish time of a live class, dropping stale entries."""
        heap = self._due
        while heap:
            entry = heap[0]
            if entry[2] != entry[3].version:
                heappop(heap)
                continue
            return entry[0]
        return None

    def _reschedule(self) -> None:
        """Arm the wake-up for the next completion, unless it is armed."""
        finish = self._next_finish()
        if finish is None or finish == self._wake_at:
            return
        self._wake_at = finish
        self._generation += 1
        env = self.env
        # The wake-up's value is its generation.
        wake = Event(env)
        wake._ok = True
        wake._value = self._generation
        wake.callbacks.append(self._on_wake)
        env.schedule(
            wake, priority=EventPriority.HIGH, delay=max(0.0, finish - env._now)
        )

    def _on_wake(self, wake: Event) -> None:
        if wake._value != self._generation:
            return  # stale wake-up; a later reschedule superseded it
        self._wake_at = None
        self._finish_drained()
        # A class whose head's finish time has come but whose residue
        # still misses the threshold (float rounding of the finish
        # estimate) restarts its clock from now, as a fresh wake would.
        now = self.env._now
        while (finish := self._next_finish()) is not None and finish <= now:
            cls = heappop(self._due)[3]
            cls.advance(now)
            self._rekey(cls)
        if self._flows:
            self._request_flush()


def _finish_threshold(size: float, rate: float, quantum: float) -> float:
    """Bytes below which a flow counts as complete.

    Two components: an absolute/relative byte epsilon, and the bytes a
    flow moves during one unit of *time resolution* ``quantum`` at the
    current clock value — float residue smaller than that can never be
    drained because ``now + eta == now``, which would wake-loop forever.
    """
    return max(_EPS * size + _EPS, rate * quantum)


def _drained_members(cls: _Class, now: float, quantum: float) -> list[Flow]:
    """Members of ``cls`` within their finish threshold at ``now``.

    A member passes by its time term only if its target is within
    ``rate * quantum`` of the clock, and by its byte term only if its
    ``by_crossing`` key is at most the clock: the two heap prefixes below
    those bounds (plus slack) hold every member that can pass.
    """
    served = cls.served_at(now)
    rate = cls.rate
    if len(cls.members) == 1:
        # Its one member heads both heaps.
        flow = cls.by_target[0][2]
        if flow.target - served <= _finish_threshold(flow.size, rate, quantum):
            return [flow]
        return []
    by_time = rate * quantum
    slack = abs(served) * _SLACK
    found: dict[int, Flow] = {}
    for heap, bound in (
        (cls.by_target, served + by_time * (1.0 + _SLACK) + slack),
        (cls.by_crossing, served + slack),
    ):
        for flow in _heap_prefix(heap, bound):
            if flow.target - served <= _finish_threshold(flow.size, rate, quantum):
                found[flow.seq] = flow
    return list(found.values())


def _heap_prefix(heap: list[tuple], bound: float) -> Iterator[Flow]:
    """The in-flight flows of the ``(key, seq, flow)`` entries of ``heap``
    whose key is at most ``bound``; heap order prunes the rest."""
    if not heap:
        return
    n = len(heap)
    stack = [0]
    while stack:
        i = stack.pop()
        key, _, flow = heap[i]
        if key > bound:
            continue
        if flow.completed_at is None:
            yield flow
        child = 2 * i + 1
        if child < n:
            stack.append(child)
            if child + 1 < n:
                stack.append(child + 1)


def _live_entries(heap: list[tuple]) -> list[tuple]:
    """``heap`` without stale entries (their class moved on)."""
    live = [entry for entry in heap if entry[2] == entry[3].version]
    heapify(live)
    return live


def _admission_order(flow: Flow) -> int:
    return flow.seq
