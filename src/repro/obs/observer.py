"""The observer: the hub every instrumentation hook publishes into.

Design contract — **zero cost when disabled, zero influence when
enabled**:

* Components never hold observer references.  Each hook site reads
  ``env.obs`` (``None`` by default) and bails on ``None`` — the entire
  disabled path is one attribute load and an identity check.
* Hooks only *record*: they never create DES events, never yield, never
  touch simulated state.  An instrumented run is bit-identical to an
  uninstrumented one (asserted in ``tests/obs/test_overhead.py``).

Hand one to a run entry point, which attaches it and calls
:meth:`end_run` when the run ends::

    obs = Observer()
    run_swarp(n_pipelines=4, observer=obs)   # or repro.simulate(...)
    export_run(obs, "telemetry/")            # see repro.obs.exporters

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

Each fact is recorded once: series that a run's records already hold
(finished flows, task records and their ready stamps, the kernel's
event count) are built by :meth:`end_run` when the run ends, not sampled
by hooks while it goes.  The network keeps no finished-flow log of its
own: only an attached observer records finished flows
(:meth:`on_flow_finished`), so an unobserved run does not hold them.

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
from repro.obs.probes import MetricRegistry, count_series
from repro.obs.spans import Span, spans_from_record
from repro.obs.waits import WaitCause, WaitInterval

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.environment import Environment
    from repro.network.flownet import Flow
    from repro.obs.live import LiveBus
    from repro.traces.events import ExecutionTrace, TaskRecord

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
        #: The network's finished flows, in completion order (the
        #: network keeps none; :meth:`on_flow_finished` hands them here).
        self._completed: "list[Flow]" = []
        #: Flow admission times (a flow records only its creation).
        self._admitted: list[float] = []
        #: The kernel's processed-event count at :meth:`attach`.
        self._events_before = 0
        #: Online probes by subject, so a hook builds no metric names.
        self._probes: dict[tuple, tuple] = {}
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
        self.monitors: tuple[InvariantMonitor, ...] = tuple(
            standard_monitors() if monitors is True else monitors or ()
        )
        for monitor in self.monitors:
            monitor.bind(self)
        # Per-hook dispatch tuples, so a hook with no interested monitor
        # pays one truthiness test on an empty tuple.
        self._mon_occupancy = self._overriding("on_storage_occupancy")
        self._mon_rates = self._overriding("on_rates_assigned")
        self._mon_clock = self._overriding("on_event_processed")
        self._mon_lease = self._overriding("on_bb_lease")
        #: Whether a monitor consumes :meth:`on_event_processed`; the
        #: kernel calls it per event only then.
        self.monitors_clock = bool(self._mon_clock)

    def _overriding(self, hook: str) -> tuple[InvariantMonitor, ...]:
        """The monitors whose class implements ``hook``."""
        base = getattr(InvariantMonitor, hook)
        return tuple(m for m in self.monitors if getattr(type(m), hook) is not base)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, env: "Environment") -> "Observer":
        """Bind to ``env`` and become its active observer, before its
        components run (attaching late loses earlier samples)."""
        if self.env is not None and self.env is not env:
            raise ValueError("observer is already attached to another environment")
        if self.env is None:
            self._events_before = env.events_processed
        self.env = env
        env.obs = self
        return self

    def detach(self) -> None:
        """Stop observing (the environment reverts to the disabled path)."""
        if self.env is not None:
            self.env.obs = None
            self.env = None

    def end_run(self, trace: "Optional[ExecutionTrace]" = None) -> None:
        """The run has ended: build the series its records hold, once.

        ``trace`` (the engine's; a run without an engine passes none and
        gets no ``engine.*`` metrics) gives the ``engine.*`` series; the
        flows finished while attached give :attr:`flows` and the
        ``network.*`` flow series, and the kernel's count of events
        processed since :meth:`attach` gives ``des.events_processed``.
        Then clears ``env.obs`` but keeps :attr:`env`, so :attr:`now`
        still reads the run's end time, and a finished run is freed as
        soon as the caller drops it (no observer <-> environment cycle).
        A second call does nothing.
        """
        env = self.env
        if env is None or env.obs is not self:
            return
        env.obs = None
        registry = self.registry
        processed = env.events_processed - self._events_before
        if self._des and processed:
            registry.counter("des.events_processed").inc(processed)
        if self._engine and trace is not None:
            records = trace.records.values()
            count_series(
                registry, "engine.ready_tasks",
                sorted([r.ready for r in records if r.ready is not None]),
                sorted([r.start for r in records]),
            )
            if trace.records:
                registry.counter("engine.tasks_completed").inc(len(trace.records))
        if not self._network:
            return
        completed = self._completed
        # Completion order is time order.  A flow finished unadmitted
        # (zero bytes, loopback) still marks an instant, as it did online.
        count_series(
            registry, "network.active_flows", self._admitted,
            [f.completed_at for f in completed if f.seq],
            [f.completed_at for f in completed if not f.seq],
        )
        if not completed:
            return
        registry.counter("network.flows_completed").inc(len(completed))
        moved = 0.0
        # Per service, time -> ``Flow.achieved_bandwidth`` (inlined): the
        # last flow to finish at an instant wins, as a sampled series.
        bandwidths: dict[str, dict[float, float]] = {}
        for flow in completed:
            size = flow.size
            moved += size
            elapsed = flow.completed_at - flow.started_at
            if elapsed > 0 and size > 0:
                service = flow.label.partition(":")[0] if flow.label else "unlabeled"
                bandwidths.setdefault(service, {})[flow.completed_at] = size / elapsed
        registry.counter("network.bytes_completed").inc(moved)
        for service, samples in bandwidths.items():
            series = registry.timeseries(f"network.{service}.achieved_bandwidth")
            series.times, series.values = list(samples), list(samples.values())

    @property
    def flows(self) -> list[dict]:
        """Completed-flow records (label, size, start, end, max_rate),
        one per finished flow, in completion order."""
        return [
            {"label": f.label, "size": f.size, "start": f.started_at,
             "end": f.completed_at, "max_rate": f.max_rate}
            for f in self._completed
        ]

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
    # Resource hooks: storage, network, compute
    # ------------------------------------------------------------------
    def on_storage_occupancy(self, service: str, used: float, capacity: float) -> None:
        """A file was added to a service's content table."""
        for monitor in self._mon_occupancy:
            monitor.on_storage_occupancy(service, used, capacity)
        if not self._storage:
            return
        probes = self._probes.get(("occupancy", service))
        if probes is None:
            probes = self._probes["occupancy", service] = (
                self.registry.timeseries(f"storage.{service}.occupancy_bytes"),
                self.registry.gauge(f"storage.{service}.capacity_bytes"),
            )
        probes[0].sample(self.env.now, used)
        probes[1].set(capacity)

    def on_storage_op(self, service: str, kind: str, nbytes: float) -> None:
        """A read/write/stage operation was issued against a service
        (online: an external stage-in write logs no ``IOOperation``)."""
        if not self._storage:
            return
        probes = self._probes.get(("ops", service, kind))
        if probes is None:
            probes = self._probes["ops", service, kind] = (
                self.registry.counter(f"storage.{service}.{kind}_ops"),
                self.registry.counter(f"storage.{service}.{kind}_bytes"),
                self.registry.timeseries(f"storage.{service}.cumulative_{kind}_bytes"),
            )
        ops, bytes_total, cumulative = probes
        ops.inc()
        bytes_total.inc(nbytes)
        cumulative.sample(self.env.now, bytes_total.value)

    def on_flow_admitted(self) -> None:
        """A flow's latency ended: :meth:`end_run` counts the flows in
        flight from these times and the completed flows."""
        if self._network:
            self._admitted.append(self.env.now)

    def on_flow_finished(self, flow: "Flow") -> None:
        """A flow finished: :meth:`end_run` builds the flow series and
        :attr:`flows` from these."""
        if self._network:
            self._completed.append(flow)

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
        """The allocator settled rates for the active flow set (a pure
        monitor feed: capacity monitors see the *assigned* rates)."""
        for monitor in self._mon_rates:
            monitor.on_rates_assigned(flows)

    def on_core_allocation(
        self, host: str, busy: int, total: int, queued: int
    ) -> None:
        """A host's core allocator queued, granted or released cores
        (online: no record holds when a contended job asks for cores)."""
        if not self._compute:
            return
        probes = self._probes.get(("cores", host))
        if probes is None:
            self.registry.gauge(f"compute.{host}.total_cores").set(total)
            probes = self._probes["cores", host] = (
                self.registry.timeseries(f"compute.{host}.busy_cores"),
                self.registry.timeseries(f"compute.{host}.queue_depth"),
            )
        now = self.env.now
        probes[0].sample(now, busy)
        probes[1].sample(now, queued)

    # ------------------------------------------------------------------
    # Engine hooks: task spans and waits (the profiler's causal signal)
    # ------------------------------------------------------------------
    def on_task_complete(self, record: "TaskRecord", category: str) -> None:
        """A task finished; derive its lifecycle spans from the record."""
        if not self._engine:
            return
        spans = spans_from_record(record, category)
        self.spans.extend(spans)
        bus = self._bus
        if bus is not None:
            for span in spans:
                bus.push({
                    "kind": "span_close", "sim_time": span.end,
                    "name": span.name, "category": span.category,
                    "track": span.track, "start": span.start, "end": span.end,
                })

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
        key = (task, cause)  # a ``str`` enum member keys as its value
        if key not in self._open_waits:
            self._open_waits[key] = (self.now, detail)
            bus = self._bus
            if bus is not None:
                bus.push({
                    "kind": "wait_open", "sim_time": self.now, "task": task,
                    "cause": WaitCause(cause).value, "detail": detail,
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
        opened = self._open_waits.pop((task, cause), None)
        if opened is None:
            return
        cause = WaitCause(cause)
        start, detail = opened
        now = self.env.now
        bus = self._bus
        if bus is not None:
            bus.push({
                "kind": "wait_close", "sim_time": now, "task": task,
                "cause": cause.value, "start": start,
            })
        if now <= start:
            return
        interval = WaitInterval(
            task=task, cause=cause, start=start, end=now, detail=detail
        )
        self.waits.append(interval)
        self.registry.counter(f"engine.wait.{interval.cause.value}_seconds").inc(
            interval.duration
        )

    # ------------------------------------------------------------------
    # Monitor feeds: BB leases and the DES clock
    # ------------------------------------------------------------------
    def on_bb_lease(
        self, action: str, granules: int, free: int, total: int, job: str
    ) -> None:
        """The BB provisioner queued, granted, or released a lease;
        ``free``/``total`` are its granule counts *after* the action."""
        self.log_event(
            "storage", f"bb_lease_{action}",
            granules=granules, free=free, total=total, job=job,
        )
        for monitor in self._mon_lease:
            monitor.on_bb_lease(action, granules, free, total, job)

    def on_event_processed(self, when: Optional[float] = None) -> None:
        """The kernel processed an event at ``when`` (a clock-monitor
        feed; the kernel counts its own events)."""
        for monitor in self._mon_clock:
            monitor.on_event_processed(when)
