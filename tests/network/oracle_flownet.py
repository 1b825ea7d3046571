"""The per-event flow-network loop: a test-only reference.

This is the event loop :class:`repro.network.FlowNetwork` ran by default
before it became change-proportional.  On every admit and every wake-up
it advances *every* flow, sweeps *every* flow against the finish
threshold, re-solves *all* flows with one whole-network solve, and
re-arms the next wake-up by scanning every flow.  It is slow and simple,
which is what a reference should be: the differential suite runs both
loops on the same random transfers and compares each flow's completion
time and the order of same-instant completions.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.des import Environment, Event, EventPriority, Timeout
from repro.network import Flow, Link

from tests.network.oracle import textbook_max_min_rates

_EPS = 1e-9


class OracleFlowNetwork:
    """Same ``transfer`` surface as ``FlowNetwork``: the done event's
    value is the finished flow."""

    def __init__(
        self, env: Environment, allocator: Callable = textbook_max_min_rates
    ) -> None:
        self.env = env
        self._allocator = allocator
        self._flows: dict[int, Flow] = {}
        self._fid = itertools.count(1)
        self._last_update = env.now
        self._generation = 0

    def transfer(
        self,
        size: float,
        links,
        latency: float = 0.0,
        max_rate: float = float("inf"),
        label: str = "",
    ) -> Event:
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
        # Latency is a ``Timeout`` callback, as in ``FlowNetwork``: a
        # process would start its timeout one event later, which can
        # reorder same-instant completions.
        if not flow.links and max_rate == float("inf"):
            Timeout(self.env, latency, flow).callbacks.append(
                lambda timeout: self._finish(timeout.value)
            )
            return done
        total_latency = latency + sum(link.latency for link in flow.links)
        if total_latency > 0:
            Timeout(self.env, total_latency, flow).callbacks.append(
                lambda timeout: self._admit(timeout.value)
            )
        else:
            self._admit(flow)
        return done

    def _admit(self, flow: Flow) -> None:
        self._advance_progress()
        flow.started_at = min(flow.started_at, self.env.now)
        if flow.remaining <= 0:
            self._finish(flow)
            self._reschedule()
            return
        self._sweep_drained()
        self._flows[flow.fid] = flow
        self._recompute_rates()
        self._reschedule()

    def _advance_progress(self) -> None:
        dt = self.env.now - self._last_update
        if dt > 0:
            for flow in self._flows.values():
                flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
        self._last_update = self.env.now

    def _recompute_rates(self) -> None:
        if not self._flows:
            return
        flows = list(self._flows.values())
        users_per_link: dict[str, int] = {}
        link_by_name: dict[str, Link] = {}
        for f in flows:
            for link in f.links:
                users_per_link[link.name] = users_per_link.get(link.name, 0) + 1
                link_by_name[link.name] = link
        capacities = {
            name: link_by_name[name].effective_bandwidth(users_per_link[name])
            for name in users_per_link
        }
        rates = self._allocator(
            [[link.name for link in f.links] for f in flows],
            capacities,
            [f.max_rate for f in flows],
        )
        for f, rate in zip(flows, rates):
            f.rate = rate

    def _next_completion_delay(self) -> Optional[float]:
        best: Optional[float] = None
        for flow in self._flows.values():
            if flow.rate > 0:
                eta = flow.remaining / flow.rate
                if best is None or eta < best:
                    best = eta
        return best

    def _reschedule(self) -> None:
        self._generation += 1
        delay = self._next_completion_delay()
        if delay is None:
            return
        generation = self._generation
        wake = Event(self.env)
        wake._ok = True
        wake._value = None
        wake.callbacks.append(lambda _e: self._on_wake(generation))
        self.env.schedule(wake, priority=EventPriority.HIGH, delay=max(0.0, delay))

    def _finish_threshold(self, flow: Flow) -> float:
        time_quantum = max(1e-12, abs(self.env.now) * 1e-12)
        return max(_EPS * flow.size + _EPS, flow.rate * time_quantum)

    def _sweep_drained(self) -> bool:
        finished = [
            f for f in self._flows.values()
            if f.remaining <= self._finish_threshold(f)
        ]
        for flow in finished:
            del self._flows[flow.fid]
            self._finish(flow)
        return bool(finished)

    def _on_wake(self, generation: int) -> None:
        if generation != self._generation:
            return
        self._advance_progress()
        if self._sweep_drained():
            self._recompute_rates()
        self._reschedule()

    def _finish(self, flow: Flow) -> None:
        flow.remaining = 0.0
        flow.rate = 0.0
        flow.completed_at = self.env.now
        flow.done_event.succeed(flow)
