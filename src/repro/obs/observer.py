"""The observer: the hub every instrumentation hook publishes into.

Design contract — **zero cost when disabled, zero influence when
enabled**:

* Components never hold observer references.  Each hook site reads
  ``env.obs`` (``None`` by default) and bails on ``None`` — the entire
  disabled path is one attribute load and an identity check.
* Hooks only *record*: they never create DES events, never yield, never
  touch simulated state.  An instrumented run is bit-identical to an
  uninstrumented one (asserted in ``tests/obs/test_overhead.py``).

Enable by attaching an observer to the environment before services are
built::

    obs = Observer()
    env = des.Environment()
    obs.attach(env)
    ...  # build platform/services/engine on env, run
    export_run(obs, "telemetry/")        # see repro.obs.exporters

Metric groups (``Observer(metrics=...)`` restricts collection):

========  ==========================================================
group     signals
========  ==========================================================
storage   per-service occupancy, capacity, cumulative bytes, op counts
network   concurrent-flow count, per-service achieved bandwidth
compute   per-host busy cores and allocation queue depth
engine    ready-task depth, task lifecycle spans, completion counts
des       kernel events processed
========  ==========================================================

Beyond metrics, the observer carries three further channels:

* **structured events** (:meth:`log_event`): the ``repro.obs.log/1``
  record stream subsystems publish instead of printing (lint rule
  SIM040), collected in :attr:`events` and exported deterministically;
* **live bus** (``Observer(bus=LiveBus(...))``): events, span closes
  and wait transitions stream to ``<obs-dir>/live/`` while the run
  executes (see :mod:`repro.obs.live`);
* **invariant monitors** (``Observer(monitors=True)``): online checks
  that raise :class:`~repro.obs.invariants.InvariantViolation` with the
  recent event chain at the timestep an invariant breaks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence

from repro.obs.invariants import InvariantMonitor, standard_monitors
from repro.obs.log import make_event
from repro.obs.probes import MetricRegistry
from repro.obs.spans import Span, spans_from_record
from repro.obs.waits import WaitCause, WaitInterval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.environment import Environment
    from repro.network.flownet import Flow
    from repro.obs.live import LiveBus
    from repro.traces.events import TaskRecord

#: The metric groups an observer can collect, in documentation order.
METRIC_GROUPS = ("storage", "network", "compute", "engine", "des")

#: How many of the latest event records :attr:`Observer.recent_events`
#: returns as the violation chain.
RECENT_EVENT_WINDOW = 64


class Observer:
    """Collects metrics and spans from an instrumented simulation.

    Parameters
    ----------
    metrics:
        Iterable of group names to collect (see :data:`METRIC_GROUPS`);
        ``None`` collects everything.
    bus:
        A :class:`~repro.obs.live.LiveBus` to stream events, span
        closes and wait transitions into while the run executes.
    monitors:
        ``True`` registers the standard invariant monitors
        (:func:`~repro.obs.invariants.standard_monitors`); a sequence
        registers those instances; ``None``/``False`` runs unmonitored.
    """

    def __init__(
        self,
        metrics: Optional[Iterable[str]] = None,
        bus: Optional["LiveBus"] = None,
        monitors: "bool | Sequence[InvariantMonitor] | None" = None,
    ) -> None:
        groups = frozenset(metrics) if metrics is not None else frozenset(METRIC_GROUPS)
        unknown = groups - frozenset(METRIC_GROUPS)
        if unknown:
            raise ValueError(
                f"unknown metric groups: {', '.join(sorted(unknown))} "
                f"(choose from {', '.join(METRIC_GROUPS)})"
            )
        self.groups = groups
        self.registry = MetricRegistry()
        self.spans: list[Span] = []
        #: Closed blocked intervals per task (see :mod:`repro.obs.waits`).
        self.waits: list[WaitInterval] = []
        #: Still-open blocked intervals: (task, cause) -> (start, detail).
        self._open_waits: dict[tuple[str, WaitCause], tuple[float, str]] = {}
        #: Completed-flow records (label, size, start, end, max_rate),
        #: one per finished flow, in completion order.
        self.flows: list[dict] = []
        #: Structured event records (``repro.obs.log/1``), in emission
        #: order, wall-clock free (``ts`` is ``None``).
        self.events: list[dict[str, Any]] = []
        self.env: Optional["Environment"] = None
        # Group flags are plain attributes so enabled-path hooks pay one
        # attribute test, not a set lookup.
        self._storage = "storage" in groups
        self._network = "network" in groups
        self._compute = "compute" in groups
        self._engine = "engine" in groups
        self._des = "des" in groups
        self._bus: Optional["LiveBus"] = None
        if bus is not None:
            self.attach_bus(bus)
        if monitors is True:
            monitor_list: list[InvariantMonitor] = standard_monitors()
        elif monitors:
            monitor_list = list(monitors)
        else:
            monitor_list = []
        self.monitors: tuple[InvariantMonitor, ...] = tuple(monitor_list)
        for monitor in self.monitors:
            monitor.bind(self)
        # Per-hook dispatch tuples, so a hook with no interested monitor
        # pays one truthiness test on an empty tuple.
        base = InvariantMonitor
        self._mon_occupancy = tuple(
            m for m in self.monitors
            if type(m).on_storage_occupancy is not base.on_storage_occupancy
        )
        self._mon_rates = tuple(
            m for m in self.monitors
            if type(m).on_rates_assigned is not base.on_rates_assigned
        )
        self._mon_clock = tuple(
            m for m in self.monitors
            if type(m).on_event_processed is not base.on_event_processed
        )
        self._mon_lease = tuple(
            m for m in self.monitors
            if type(m).on_bb_lease is not base.on_bb_lease
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, env: "Environment") -> "Observer":
        """Bind to ``env`` and become its active observer.

        Must happen before instrumented components are exercised (hook
        sites read ``env.obs`` at call time, so attaching late simply
        loses earlier samples — it never errors).
        """
        if self.env is not None and self.env is not env:
            raise ValueError("observer is already attached to another environment")
        self.env = env
        env.obs = self
        return self

    def detach(self) -> None:
        """Stop observing (the environment reverts to the disabled path)."""
        if self.env is not None:
            self.env.obs = None
            self.env = None

    def end_run(self) -> None:
        """The observed run has ended: its environment stops publishing.

        Clears ``env.obs`` but keeps :attr:`env`, so :attr:`now` and the
        live bus's last ``sim_time`` still read the run's end time.
        This breaks the observer <-> environment reference cycle, so a
        finished run and its telemetry are freed as soon as the caller
        drops them, not at CPython's next full collection.  The run
        entry points (:mod:`repro.scenarios`, :func:`repro.simulate`)
        call it when their run ends.
        """
        if self.env is not None:
            self.env.obs = None

    @property
    def now(self) -> float:
        if self.env is None:
            raise RuntimeError("observer is not attached to an environment")
        return self.env.now

    # ------------------------------------------------------------------
    # Structured event log / live bus
    # ------------------------------------------------------------------
    def attach_bus(self, bus: "LiveBus") -> "LiveBus":
        """Stream into ``bus`` from now on (one bus per observer)."""
        if self._bus is not None and self._bus is not bus:
            raise ValueError("observer already streams to another live bus")
        bus.attach(self)
        self._bus = bus
        return bus

    @property
    def bus(self) -> Optional["LiveBus"]:
        return self._bus

    @property
    def recent_events(self) -> list[dict[str, Any]]:
        """The last :data:`RECENT_EVENT_WINDOW` records of :attr:`events`
        — the chain invariant monitors attach to their failures."""
        return self.events[-RECENT_EVENT_WINDOW:]

    def log_event(self, component: str, event: str, **fields: Any) -> dict:
        """Publish one structured event record (``repro.obs.log/1``).

        The deterministic copy lands in :attr:`events` (wall-clock
        free); an attached live bus receives a second copy that gets a
        ``ts`` stamp at flush time.
        """
        sim_time = self.env.now if self.env is not None else 0.0
        record = make_event(sim_time, component, event, fields)
        self.events.append(record)
        bus = self._bus
        if bus is not None:
            bus.push({"kind": "event", **record})
        return record

    # ------------------------------------------------------------------
    # Storage hooks
    # ------------------------------------------------------------------
    def on_storage_occupancy(self, service: str, used: float, capacity: float) -> None:
        """A service's content table changed (file added or deleted)."""
        for monitor in self._mon_occupancy:
            monitor.on_storage_occupancy(service, used, capacity)
        if not self._storage:
            return
        self.registry.timeseries(f"storage.{service}.occupancy_bytes").sample(
            self.now, used
        )
        self.registry.gauge(f"storage.{service}.capacity_bytes").set(capacity)

    def on_storage_op(self, service: str, kind: str, nbytes: float) -> None:
        """A read/write/stage operation was issued against a service."""
        if not self._storage:
            return
        self.registry.counter(f"storage.{service}.{kind}_ops").inc()
        bytes_total = self.registry.counter(f"storage.{service}.{kind}_bytes")
        bytes_total.inc(nbytes)
        self.registry.timeseries(f"storage.{service}.cumulative_{kind}_bytes").sample(
            self.now, bytes_total.value
        )

    # ------------------------------------------------------------------
    # Network hooks
    # ------------------------------------------------------------------
    def on_flow_admitted(self, n_active: int) -> None:
        if not self._network:
            return
        self.registry.timeseries("network.active_flows").sample(self.now, n_active)

    def on_flow_finished(self, flow: "Flow", n_active: int) -> None:
        if not self._network:
            return
        self.registry.timeseries("network.active_flows").sample(self.now, n_active)
        self.registry.counter("network.flows_completed").inc()
        self.registry.counter("network.bytes_completed").inc(flow.size)
        self.flows.append(
            {
                "label": flow.label,
                "size": flow.size,
                "start": getattr(flow, "started_at", None),
                "end": self.now,
                "max_rate": getattr(flow, "max_rate", None),
            }
        )
        bandwidth = flow.achieved_bandwidth
        if bandwidth is not None and flow.size > 0:
            service = flow.label.partition(":")[0] if flow.label else "unlabeled"
            self.registry.timeseries(
                f"network.{service}.achieved_bandwidth"
            ).sample(self.now, bandwidth)

    def on_rate_solve(
        self, flows_solved: int, links_touched: int, solver_calls: int = 1
    ) -> None:
        """The rate allocator ran: ``flows_solved`` flow rates were
        recomputed over ``links_touched`` links, in ``solver_calls``
        allocator invocations (one per re-solved connected component)."""
        if not self._network:
            return
        self.registry.counter("network.solver_calls").inc(solver_calls)
        self.registry.counter("network.links_touched").inc(links_touched)
        self.registry.counter("network.flows_solved").inc(flows_solved)

    @property
    def monitors_rates(self) -> bool:
        """Whether a monitor consumes :meth:`on_rates_assigned`; the flow
        network builds the flow list for it only then."""
        return bool(self._mon_rates)

    def on_rates_assigned(self, flows: "Iterable[Flow]") -> None:
        """The allocator settled rates for the active flow set.

        Pure monitor feed: the metric story is already told by
        :meth:`on_rate_solve`; this hook exists so capacity monitors see
        the *assigned* rates, not just solver call counts.
        """
        for monitor in self._mon_rates:
            monitor.on_rates_assigned(flows)

    # ------------------------------------------------------------------
    # Compute hooks
    # ------------------------------------------------------------------
    def on_core_allocation(
        self, host: str, busy: int, total: int, queued: int
    ) -> None:
        """A host's core allocator granted or released cores."""
        if not self._compute:
            return
        self.registry.timeseries(f"compute.{host}.busy_cores").sample(self.now, busy)
        self.registry.gauge(f"compute.{host}.total_cores").set(total)
        self.registry.timeseries(f"compute.{host}.queue_depth").sample(
            self.now, queued
        )

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def on_ready_depth(self, depth: int) -> None:
        """Tasks whose dependencies are met but that have not started."""
        if not self._engine:
            return
        self.registry.timeseries("engine.ready_tasks").sample(self.now, depth)

    def on_task_complete(self, record: "TaskRecord", category: str) -> None:
        """A task finished; derive its lifecycle spans from the record."""
        if not self._engine:
            return
        self.registry.counter("engine.tasks_completed").inc()
        spans = spans_from_record(record, category)
        self.spans.extend(spans)
        bus = self._bus
        if bus is not None:
            for span in spans:
                bus.push({
                    "kind": "span_close",
                    "sim_time": span.end,
                    "name": span.name,
                    "category": span.category,
                    "track": span.track,
                    "start": span.start,
                    "end": span.end,
                })

    # ------------------------------------------------------------------
    # Wait-cause hooks (the profiler's causal signal)
    # ------------------------------------------------------------------
    def on_task_blocked(
        self, task: str, cause: WaitCause, detail: str = ""
    ) -> None:
        """``task`` stopped making progress, waiting on ``cause``.

        ``cause`` must be a :class:`~repro.obs.waits.WaitCause` member
        (lint rule SIM070 rejects ad-hoc strings at the call sites), so
        wait decompositions from any two runs are comparable.  A second
        ``blocked`` for an already-open (task, cause) pair refreshes the
        detail but keeps the original start.
        """
        if not self._engine:
            return
        key = (task, WaitCause(cause))
        if key not in self._open_waits:
            self._open_waits[key] = (self.now, detail)
            bus = self._bus
            if bus is not None:
                bus.push({
                    "kind": "wait_open",
                    "sim_time": self.now,
                    "task": task,
                    "cause": key[1].value,
                    "detail": detail,
                })

    def on_task_unblocked(self, task: str, cause: WaitCause) -> None:
        """``task`` resumed after a :meth:`on_task_blocked` for ``cause``.

        Zero-duration intervals (blocked and unblocked inside the same
        simulated instant — e.g. cores granted immediately) are dropped:
        they carry no wait time and would only bloat profiles.  An
        ``unblocked`` with no matching open interval is ignored, so hook
        sites never need to track whether the observer saw the start.
        """
        if not self._engine:
            return
        opened = self._open_waits.pop((task, WaitCause(cause)), None)
        if opened is None:
            return
        start, detail = opened
        bus = self._bus
        if bus is not None:
            bus.push({
                "kind": "wait_close",
                "sim_time": self.now,
                "task": task,
                "cause": WaitCause(cause).value,
                "start": start,
            })
        if self.now <= start:
            return
        interval = WaitInterval(
            task=task,
            cause=WaitCause(cause),
            start=start,
            end=self.now,
            detail=detail,
        )
        self.waits.append(interval)
        self.registry.counter(f"engine.wait.{interval.cause.value}_seconds").inc(
            interval.duration
        )

    # ------------------------------------------------------------------
    # Burst-buffer lease hooks
    # ------------------------------------------------------------------
    def on_bb_lease(
        self, action: str, granules: int, free: int, total: int, job: str
    ) -> None:
        """The BB provisioner queued, granted, or released a lease.

        ``free``/``total`` are the provisioner's granule counts *after*
        the action, so lease-balance monitors can cross-check its ledger
        against their own running total.
        """
        self.log_event(
            "storage", f"bb_lease_{action}",
            granules=granules, free=free, total=total, job=job,
        )
        for monitor in self._mon_lease:
            monitor.on_bb_lease(action, granules, free, total, job)

    # ------------------------------------------------------------------
    # DES kernel hooks
    # ------------------------------------------------------------------
    def on_event_processed(self, when: Optional[float] = None) -> None:
        for monitor in self._mon_clock:
            monitor.on_event_processed(when)
        if not self._des:
            return
        self.registry.counter("des.events_processed").inc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "attached" if self.env is not None else "detached"
        return (
            f"<Observer {state}: {len(self.registry)} metrics, "
            f"{len(self.spans)} spans>"
        )
