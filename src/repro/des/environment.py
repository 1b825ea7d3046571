"""The simulation environment: clock, event queue, and main loop."""
# lint: hot-path - the main loop; step() runs once per simulation event

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.des.core import (
    Event,
    EventPriority,
    SimulationError,
    StopSimulation,
)
from repro.des.process import Process

#: Bits of the FIFO serial below the priority in a heap entry's key.
PRIORITY_SHIFT = 52
_INF = float("inf")


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class Environment:
    """Owns the simulation clock and executes events in time order.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: The pending events, as ``(time, key, event)`` heap entries.
        #: ``key`` packs ``(priority << PRIORITY_SHIFT) | serial``: the
        #: priority orders same-time events and the serial, which never
        #: reaches 2**52, breaks the remaining ties first in, first out.
        #: The key is unique, so comparisons never reach the event.
        self._heap: list[tuple[float, int, Event]] = []
        self._serial = 0
        self._active_process: Optional[Process] = None
        #: Callbacks to run once the current instant has no events left.
        self._instant_end: list[Callable[[], None]] = []
        #: Attached :class:`repro.obs.Observer`, or ``None`` (the
        #: default).  This is the single attachment point the whole
        #: instrumentation layer hangs off: every hook site in the
        #: simulator reads ``env.obs`` and bails on ``None``, so the
        #: disabled path costs one attribute load per hook.  Observers
        #: only record — they never schedule events or advance time.
        self.obs = None

    # ------------------------------------------------------------------
    # Clock and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._heap[0][0] if self._heap else _INF

    def __len__(self) -> int:
        """Number of scheduled (not yet processed) events."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Number of events taken off the queue so far."""
        return self._serial - len(self._heap)

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> Event:
        from repro.des.conditions import AllOf

        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> Event:
        from repro.des.conditions import AnyOf

        return AnyOf(self, list(events))

    # ------------------------------------------------------------------
    # Scheduling and the main loop
    # ------------------------------------------------------------------
    def schedule(
        self,
        event: Event,
        priority: EventPriority = EventPriority.NORMAL,
        delay: float = 0.0,
    ) -> None:
        """Queue ``event`` to be processed ``delay`` units from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._serial += 1
        heappush(
            self._heap,
            (self._now + delay, (priority << PRIORITY_SHIFT) | self._serial, event),
        )

    def at_instant_end(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once every event at the current time is done.

        The call happens before the clock moves on (or the run ends), and
        it is not an event: it schedules nothing unless the callback does.
        Events the callback schedules at the current time run next, and
        callbacks they register run when those are done.  This is where
        batch work that must see *all* of an instant's changes goes, such
        as :class:`~repro.network.FlowNetwork`'s rate solve.
        """
        self._instant_end.append(callback)

    def _end_instant(self) -> None:
        """Run the instant-end callbacks if the current instant is over."""
        pending = self._instant_end
        heap = self._heap
        while pending and (not heap or heap[0][0] > self._now):
            callbacks = pending[:]
            pending.clear()
            for callback in callbacks:
                callback()

    def step(self) -> None:
        """Process the single next event; raise ``EmptySchedule`` if none."""
        heap = self._heap
        if not heap:
            if self._instant_end:
                self._end_instant()
            if not heap:
                raise EmptySchedule()
        when, _key, event = heappop(heap)
        if when < self._now:  # pragma: no cover - defensive
            raise SimulationError("event scheduled in the past")
        self._now = when

        callbacks = event.callbacks
        event.callbacks = None  # mark processed
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if self._instant_end and (not heap or heap[0][0] > when):
            self._end_instant()

        obs = self.obs
        if obs is not None and obs.monitors_clock:
            obs.on_event_processed(when)

        if not event._ok and not event.defused:
            # An unhandled failure: re-raise so bugs surface loudly.
            exc = event.value
            if obs is not None:
                obs.log_event(
                    "des", "sim_error",
                    error=type(exc).__name__, detail=str(exc),
                )
            raise exc

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event queue is exhausted;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value.
        """
        stop_value: Any = None
        if until is not None:
            if isinstance(until, Event):
                if until.processed:
                    return until.value

                def _stop(event: Event) -> None:
                    if not event.ok:
                        # Propagate failures of the awaited event.
                        event.defuse()
                        raise event.value
                    raise StopSimulation(event.value)

                if until.callbacks is None:  # pragma: no cover - defensive
                    raise SimulationError("cannot wait on a processed event")
                until.callbacks.append(_stop)
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(
                        f"until={at} is in the past (now={self._now})"
                    )
                # A stop event at the target time with URGENT priority so
                # that events scheduled at exactly `until` are NOT executed
                # (SimPy semantics: run(until=t) halts the clock at t).
                def _halt(event: Event) -> None:
                    raise StopSimulation(None)

                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                stop_event.callbacks.append(_halt)
                self.schedule(
                    stop_event,
                    priority=EventPriority.URGENT,
                    delay=at - self._now,
                )

        try:
            # A stop raised by the last event of an instant skipped its
            # instant-end callbacks; they run before the clock moves on.
            self._end_instant()
            heap = self._heap
            step = self.step
            while heap or self._instant_end:
                step()
        except StopSimulation as stop:
            stop_value = stop.value
            if isinstance(until, Event):
                return stop_value
            return None
        except EmptySchedule:
            # The last instant-end callbacks scheduled nothing.
            pass

        if until is not None and not isinstance(until, Event):
            # Queue drained before reaching the target time: advance clock.
            self._now = max(self._now, float(until))
            return None
        if isinstance(until, Event) and not until.triggered:
            raise SimulationError(
                "run(until=event) finished but the event never triggered"
            )
        return until.value if isinstance(until, Event) else None


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""
