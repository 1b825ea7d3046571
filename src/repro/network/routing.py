"""Routes and routing tables mapping host pairs to link sequences."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.network.link import Link


@dataclass(frozen=True)
class Route:
    """An ordered sequence of links between two endpoints."""

    links: tuple[Link, ...]

    def __init__(self, links: Iterable[Link]) -> None:
        object.__setattr__(self, "links", tuple(links))

    @property
    def latency(self) -> float:
        """Sum of per-link latencies (paid once per flow)."""
        return sum(link.latency for link in self.links)

    @property
    def bottleneck_bandwidth(self) -> float:
        """Minimum link bandwidth along the route (``inf`` if empty)."""
        if not self.links:
            return float("inf")
        return min(link.bandwidth for link in self.links)

    def __iter__(self) -> Iterator[Link]:
        return iter(self.links)

    def __len__(self) -> int:
        return len(self.links)

    def __add__(self, other: "Route") -> "Route":
        return Route(self.links + other.links)


class RoutingTable:
    """Symmetric host-pair → route table with longest-prefix fallbacks.

    Routes are registered between named endpoints (host names).  Lookups
    are symmetric: a route registered for (a, b) also answers (b, a), with
    the link order reversed (irrelevant for the fluid model, which only
    cares about the set of links traversed).  The reversed route is built
    once, on its first lookup.
    """

    def __init__(self) -> None:
        self._routes: dict[tuple[str, str], Route] = {}
        #: Reversed routes answered so far, keyed like their lookup.
        self._reversed: dict[tuple[str, str], Route] = {}
        self._loopback = Route([])

    def add_route(self, src: str, dst: str, links: Iterable[Link]) -> None:
        """Register the route between ``src`` and ``dst``."""
        if src == dst:
            raise ValueError("cannot register a route from a host to itself")
        self._routes[(src, dst)] = Route(links)
        self._reversed.pop((dst, src), None)

    def route(self, src: str, dst: str) -> Route:
        """Look up the route between two hosts.

        A host-to-itself route is the empty (infinite-bandwidth, zero
        latency) loopback, matching SimGrid's default.
        """
        if src == dst:
            return self._loopback
        key = (src, dst)
        route = self._routes.get(key)
        if route is not None:
            return route
        route = self._reversed.get(key)
        if route is not None:
            return route
        forward = self._routes.get((dst, src))
        if forward is None:
            raise KeyError(f"no route registered between {src!r} and {dst!r}")
        route = self._reversed[key] = Route(reversed(forward.links))
        return route

    def has_route(self, src: str, dst: str) -> bool:
        return (
            src == dst
            or (src, dst) in self._routes
            or (dst, src) in self._routes
        )

    def __len__(self) -> int:
        return len(self._routes)

    @property
    def links(self) -> set[Link]:
        """All distinct links appearing in any registered route."""
        out: set[Link] = set()
        for route in self._routes.values():
            out.update(route.links)
        return out
