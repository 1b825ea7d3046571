"""Core event machinery for the DES kernel.

Defines :class:`Event` — the unit of scheduling — together with the
exceptions used to control simulation flow.  The pending-event heap
lives on :class:`~repro.des.Environment`.  Events move through three
states: *pending* (created, not yet triggered), *triggered* (given a value
or an exception and placed on the environment's queue), and *processed*
(its callbacks have run).
"""
# lint: hot-path - succeed()/fail() run once per simulation event

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.environment import Environment


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` early.

    Carries the value of the event that requested the stop.
    """

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Raised inside a process that was interrupted by another process.

    The ``cause`` is whatever object the interrupter supplied; it usually
    explains *why* the victim was interrupted (e.g. "preempted").
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)

    @property
    def cause(self) -> Any:
        return self.args[0]


class EventPriority(enum.IntEnum):
    """Tie-break ordering for events scheduled at the same simulated time.

    Lower values run first.  URGENT is reserved for kernel bookkeeping
    (e.g. process resumption after an interrupt) that must precede user
    events at the same timestamp.  End-of-instant batch work needs no
    priority of its own: see :meth:`~repro.des.Environment.at_instant_end`.
    """

    URGENT = 0
    HIGH = 1
    NORMAL = 2
    LOW = 3


# Sentinel distinguishing "not yet triggered" from "triggered with None".
_PENDING = object()


class Event:
    """An event that may happen at some point in simulated time.

    Events are one-shot: once triggered with :meth:`succeed` or
    :meth:`fail` they cannot be re-triggered.  Processes wait on events by
    yielding them; arbitrary callables can also be attached via
    :attr:`callbacks`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event once it is processed.  Set to
        #: ``None`` after processing (an event cannot be waited on twice).
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (or exception)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        For failed events this is the exception instance.
        """
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failed event's exception has been handled.

        An un-defused failure propagates out of :meth:`Environment.run`
        so programming errors are never silently dropped.
        """
        return self._defused

    def defuse(self) -> None:
        """Mark a failed event's exception as handled."""
        self._defused = True

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def __and__(self, other: "Event") -> "Event":
        from repro.des.conditions import AllOf

        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Event":
        from repro.des.conditions import AnyOf

        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"
