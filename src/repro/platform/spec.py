"""Declarative platform descriptions (the analogue of SimGrid platform XML)."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional


class HostRole(str, enum.Enum):
    """What a host *is* in the storage/compute topology.

    Every host a simulation runs on declares one, so platforms are free
    to name hosts anything.
    """

    COMPUTE = "compute"
    SHARED_BB = "shared_bb"
    LOCAL_BB = "local_bb"
    PFS = "pfs"


@dataclass(frozen=True)
class DiskSpec:
    """A storage device attached to a host.

    Read and write channels are independent (NVMe devices routinely have
    asymmetric performance — Summit's PM1725a reads at ~6 GB/s but writes
    at ~2.1 GB/s).
    """

    name: str
    read_bandwidth: float      # bytes/s
    write_bandwidth: float     # bytes/s
    capacity: float = float("inf")  # bytes

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("disk name must be non-empty")
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise ValueError(
                f"disk {self.name!r}: bandwidths must be positive"
            )
        if self.capacity <= 0:
            raise ValueError(f"disk {self.name!r}: capacity must be positive")


@dataclass(frozen=True)
class HostSpec:
    """A machine: cores, per-core speed, RAM, and locally attached disks.

    ``role`` declares the host's function in the storage topology (see
    :class:`HostRole`); ``None`` means "unspecified", which the
    simulator rejects.  ``attached_to`` names the compute host a
    ``local_bb`` host serves (its NVMe sits on that node's PCIe bus).
    """

    name: str
    cores: int
    core_speed: float          # flop/s per core
    ram: float = float("inf")  # bytes
    disks: tuple[DiskSpec, ...] = ()
    role: Optional[HostRole] = None
    attached_to: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("host name must be non-empty")
        if self.cores <= 0:
            raise ValueError(f"host {self.name!r}: cores must be positive")
        if self.core_speed <= 0:
            raise ValueError(f"host {self.name!r}: core_speed must be positive")
        if self.ram <= 0:
            raise ValueError(f"host {self.name!r}: ram must be positive")
        if self.role is not None and not isinstance(self.role, HostRole):
            object.__setattr__(self, "role", HostRole(self.role))
        if self.attached_to is not None and self.role is not HostRole.LOCAL_BB:
            raise ValueError(
                f"host {self.name!r}: attached_to is only meaningful for "
                f"local_bb hosts (role is {self.role})"
            )
        object.__setattr__(self, "disks", tuple(self.disks))
        seen = set()
        for disk in self.disks:
            if disk.name in seen:
                raise ValueError(
                    f"host {self.name!r}: duplicate disk {disk.name!r}"
                )
            seen.add(disk.name)

    @property
    def speed(self) -> float:
        """Aggregate peak speed of the host in flop/s."""
        return self.cores * self.core_speed

    def disk(self, name: str) -> DiskSpec:
        for d in self.disks:
            if d.name == name:
                return d
        raise KeyError(f"host {self.name!r} has no disk {name!r}")


@dataclass(frozen=True)
class LinkSpec:
    """A network link (see :class:`repro.network.Link` for semantics)."""

    name: str
    bandwidth: float
    latency: float = 0.0
    concurrency_penalty: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("link name must be non-empty")
        if self.bandwidth <= 0:
            raise ValueError(f"link {self.name!r}: bandwidth must be positive")
        if self.latency < 0:
            raise ValueError(f"link {self.name!r}: negative latency")


@dataclass(frozen=True)
class RouteSpec:
    """A route between two hosts, referencing links by name."""

    src: str
    dst: str
    link_names: tuple[str, ...]

    def __init__(self, src: str, dst: str, link_names: Iterable[str]) -> None:
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "link_names", tuple(link_names))
        if src == dst:
            raise ValueError("route endpoints must differ")


@dataclass(frozen=True)
class PlatformSpec:
    """A complete platform: hosts, links, and routes.

    Invariants checked at construction:

    * host and link names are unique;
    * every route references existing hosts and links.
    """

    name: str
    hosts: tuple[HostSpec, ...]
    links: tuple[LinkSpec, ...] = ()
    routes: tuple[RouteSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "hosts", tuple(self.hosts))
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(self, "routes", tuple(self.routes))

        host_names = [h.name for h in self.hosts]
        if len(set(host_names)) != len(host_names):
            raise ValueError("duplicate host names in platform")
        link_names = [l.name for l in self.links]
        if len(set(link_names)) != len(link_names):
            raise ValueError("duplicate link names in platform")

        hosts = set(host_names)
        links = set(link_names)
        for h in self.hosts:
            if h.attached_to is not None and h.attached_to not in hosts:
                raise ValueError(
                    f"host {h.name!r} is attached to unknown host "
                    f"{h.attached_to!r}"
                )
        for route in self.routes:
            if route.src not in hosts or route.dst not in hosts:
                raise ValueError(
                    f"route {route.src!r}→{route.dst!r} references unknown host"
                )
            for name in route.link_names:
                if name not in links:
                    raise ValueError(
                        f"route {route.src!r}→{route.dst!r} references "
                        f"unknown link {name!r}"
                    )

    def host(self, name: str) -> HostSpec:
        for h in self.hosts:
            if h.name == name:
                return h
        raise KeyError(f"no host named {name!r}")

    def link(self, name: str) -> LinkSpec:
        for l in self.links:
            if l.name == name:
                return l
        raise KeyError(f"no link named {name!r}")

    def hosts_with_role(self, role: "HostRole | str") -> list[HostSpec]:
        """All hosts declaring ``role`` (explicit roles only)."""
        role = HostRole(role)
        return [h for h in self.hosts if h.role is role]

    @property
    def has_roles(self) -> bool:
        """True when every host declares an explicit :class:`HostRole`."""
        return all(h.role is not None for h in self.hosts)

    @property
    def total_cores(self) -> int:
        return sum(h.cores for h in self.hosts)

