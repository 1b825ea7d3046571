"""Discrete-event simulation kernel.

A from-scratch, generator-based discrete-event simulation (DES) engine in
the style of SimPy / SimGrid's actor layer.  Every higher layer of the
library (network flows, storage services, compute services, the workflow
engine) is built on this kernel.

The central object is :class:`~repro.des.environment.Environment`, which
owns the simulation clock and the pending-event queue.  Simulated
activities are *processes*: plain Python generators that ``yield`` events
(timeouts, other processes, resource requests, ...) and are resumed when
those events fire.

Example
-------
>>> from repro import des
>>> env = des.Environment()
>>> def clock(env, name, tick):
...     while True:
...         yield env.timeout(tick)
>>> _ = env.process(clock(env, "fast", 0.5))
>>> env.run(until=2.0)
>>> env.now
2.0
"""

from repro.des.core import (
    Event,
    EventPriority,
    Interrupt,
    SimulationError,
    StopSimulation,
)
from repro.des.environment import Environment, Timeout
from repro.des.process import Process
from repro.des.conditions import AllOf, AnyOf, Condition, ConditionValue
from repro.des.resources import (
    Container,
    PriorityResource,
    Resource,
    ResourceRequest,
    Store,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Container",
    "Environment",
    "Event",
    "EventPriority",
    "Interrupt",
    "PriorityResource",
    "Process",
    "Resource",
    "ResourceRequest",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
]
