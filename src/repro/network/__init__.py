"""Flow-level network model with max-min fair bandwidth sharing.

This is the performance core of the simulator, mirroring SimGrid's fluid
("flow-level") model: a data transfer is a *flow* over a sequence of
*links*; all concurrent flows share link bandwidth according to max-min
fairness, recomputed whenever a flow starts or finishes.  Disks are
modeled as links, so an end-to-end I/O operation (compute node → fabric →
burst-buffer SSD) is a single flow whose rate is limited by its tightest
shared resource.
"""

from repro.network.link import Link
from repro.network.fairshare import (
    allocation_is_feasible,
    equal_split_rates,
    max_min_fair_rates,
)
from repro.network.allocators import (
    DEFAULT_ALLOCATOR,
    RateAllocator,
    allocator_names,
    resolve_allocator,
)
from repro.network.flownet import Flow, FlowNetwork
from repro.network.routing import Route, RoutingTable

__all__ = [
    "DEFAULT_ALLOCATOR",
    "Flow",
    "FlowNetwork",
    "Link",
    "RateAllocator",
    "Route",
    "RoutingTable",
    "allocation_is_feasible",
    "allocator_names",
    "equal_split_rates",
    "max_min_fair_rates",
    "resolve_allocator",
]
