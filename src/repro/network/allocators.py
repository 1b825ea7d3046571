"""The rate-allocator table: named bandwidth-sharing disciplines.

:class:`~repro.network.FlowNetwork` used to take a bare function for its
``allocator`` knob, which made the choice impossible to express in a
:class:`~repro.config.Config`, a sweep point, or a CLI flag.  This module gives the
knob a name: an allocator is any callable satisfying the
:class:`RateAllocator` protocol, named by a short string id that
configs and CLIs can carry.

Allocators:

================  =====================================================
name              allocator
================  =====================================================
``max-min``       :func:`~repro.network.fairshare.max_min_fair_rates` —
                  progressive filling, the paper's model and the default
``equal-split``   :func:`~repro.network.fairshare.equal_split_rates` —
                  the ablation baseline (feasible, not work-conserving)
================  =====================================================

The table is constant.  A caller with another discipline passes the
callable itself, wherever a name is accepted.

Direct calls to ``max_min_fair_rates`` outside ``repro.network`` are
rejected by lint rule SIM060 — resolve a name through
:func:`resolve_allocator` instead.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Hashable, Mapping, Protocol, Sequence

from repro.network.fairshare import equal_split_rates, max_min_fair_rates


class RateAllocator(Protocol):
    """A bandwidth-sharing discipline.

    Given each flow's traversed links, per-link capacities, and optional
    per-flow rate caps, return one rate per flow (input order).  The
    returned allocation must be feasible (see
    :func:`~repro.network.fairshare.allocation_is_feasible`).

    An allocator must be *separable by component*: a flow's rate may
    depend only on the flows it is connected to through shared links.
    :class:`~repro.network.FlowNetwork` calls it once per connected
    component that changed, with that component's flows in admission
    order, and keeps every other flow's rate as it was.
    """

    def __call__(
        self,
        flow_links: Sequence[Sequence[Hashable]],
        capacities: Mapping[Hashable, float],
        flow_caps: "Sequence[float] | None" = None,
    ) -> list[float]: ...


#: The default allocator name (the paper's sharing model).
DEFAULT_ALLOCATOR = "max-min"

#: The named allocators (read-only).
_ALLOCATORS: Mapping[str, RateAllocator] = MappingProxyType(
    {"max-min": max_min_fair_rates, "equal-split": equal_split_rates}
)


def allocator_names() -> list[str]:
    """All allocator names."""
    return sorted(_ALLOCATORS)


def resolve_allocator(
    spec: "str | RateAllocator | None",
) -> RateAllocator:
    """Resolve a name, callable, or ``None`` to an allocator.

    ``None`` resolves to the default (``max-min``); callables pass
    through unchanged (the historical ``FlowNetwork(allocator=fn)``
    contract).
    """
    if spec is None:
        spec = DEFAULT_ALLOCATOR
    if callable(spec):
        return spec
    try:
        return _ALLOCATORS[spec]
    except KeyError:
        raise ValueError(
            f"unknown allocator {spec!r} (choose from "
            f"{', '.join(allocator_names())})"
        ) from None

