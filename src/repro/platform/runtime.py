"""Live platform: a PlatformSpec instantiated into a DES environment.

The runtime platform owns:

* the :class:`~repro.network.FlowNetwork` that all transfers run on,
* the :class:`~repro.network.RoutingTable` between hosts,
* per-disk read/write channel links (a disk is two links in the flow
  graph, so reads and writes contend separately, each shared max-min
  among concurrent operations).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.des import Environment, Event
from repro.network import FlowNetwork, Link, RateAllocator, Route, RoutingTable
from repro.platform.spec import DiskSpec, HostSpec, PlatformSpec


class Platform:
    """A platform bound to a simulation environment.

    ``allocator`` selects the network's bandwidth-sharing discipline — a
    registry name or callable, passed through to
    :class:`~repro.network.FlowNetwork` (``None`` keeps the default
    max-min model).
    """

    def __init__(
        self,
        env: Environment,
        spec: PlatformSpec,
        allocator: "str | RateAllocator | None" = None,
    ) -> None:
        self.env = env
        self.spec = spec
        self.network = FlowNetwork(env, allocator=allocator)

        #: Link name → live Link object.
        self.links: dict[str, Link] = {
            ls.name: Link(
                name=ls.name,
                bandwidth=ls.bandwidth,
                latency=ls.latency,
                concurrency_penalty=ls.concurrency_penalty,
            )
            for ls in spec.links
        }

        #: (host, disk) → (read channel link, write channel link).
        self.disk_channels: dict[tuple[str, str], tuple[Link, Link]] = {}
        for host in spec.hosts:
            for disk in host.disks:
                read = Link(
                    name=f"{host.name}:{disk.name}:read",
                    bandwidth=disk.read_bandwidth,
                )
                write = Link(
                    name=f"{host.name}:{disk.name}:write",
                    bandwidth=disk.write_bandwidth,
                )
                self.disk_channels[(host.name, disk.name)] = (read, write)

        self.routing = RoutingTable()
        for route in spec.routes:
            self.routing.add_route(
                route.src,
                route.dst,
                [self.links[name] for name in route.link_names],
            )

        self.hosts: dict[str, HostSpec] = {h.name: h for h in spec.hosts}
        #: (disk host, disk, peer host, write) → a disk transfer's links.
        self._disk_paths: dict[tuple, tuple[Link, ...]] = {}

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def host(self, name: str) -> HostSpec:
        try:
            return self.hosts[name]
        except KeyError:
            raise KeyError(f"no host named {name!r}") from None

    def disk_read_link(self, host: str, disk: str) -> Link:
        return self._channels(host, disk)[0]

    def disk_write_link(self, host: str, disk: str) -> Link:
        return self._channels(host, disk)[1]

    def _channels(self, host: str, disk: str) -> tuple[Link, Link]:
        try:
            return self.disk_channels[(host, disk)]
        except KeyError:
            raise KeyError(f"no disk {disk!r} on host {host!r}") from None

    def route(self, src: str, dst: str) -> Route:
        return self.routing.route(src, dst)

    def _disk_path(self, host: str, disk: str, peer: str, write: bool) -> tuple:
        """Read channel then route to ``peer``, or route from ``peer`` then
        write channel; built once, as routes do not change."""
        key = (host, disk, peer, write)
        links = self._disk_paths.get(key)
        if links is None:
            if write:
                route = self.route(peer, host).links
                links = route + (self.disk_write_link(host, disk),)
            else:
                read = self.disk_read_link(host, disk)
                links = (read,) + self.route(host, peer).links
            self._disk_paths[key] = links
        return links

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def read_from_disk(
        self,
        size: float,
        disk_host: str,
        disk_name: str,
        dest_host: str,
        extra_latency: float = 0.0,
        max_rate: float = float("inf"),
        label: str = "",
    ) -> Event:
        """Move ``size`` bytes disk → ``dest_host`` RAM.

        The flow traverses the disk's read channel plus the network route
        from the disk's host to the destination host (empty for local
        disks).
        """
        links = self._disk_path(disk_host, disk_name, dest_host, write=False)
        return self.network.transfer(
            size, links, latency=extra_latency, max_rate=max_rate, label=label
        )

    def write_to_disk(
        self,
        size: float,
        disk_host: str,
        disk_name: str,
        src_host: str,
        extra_latency: float = 0.0,
        max_rate: float = float("inf"),
        label: str = "",
    ) -> Event:
        """Move ``size`` bytes ``src_host`` RAM → disk."""
        links = self._disk_path(disk_host, disk_name, src_host, write=True)
        return self.network.transfer(
            size, links, latency=extra_latency, max_rate=max_rate, label=label
        )

    def transfer_between_disks(
        self,
        size: float,
        src: tuple[str, str],
        dst: tuple[str, str],
        extra_latency: float = 0.0,
        max_rate: float = float("inf"),
        label: str = "",
    ) -> Event:
        """Disk-to-disk copy: src read channel → network → dst write channel."""
        src_host, src_disk = src
        dst_host, dst_disk = dst
        links = [self.disk_read_link(src_host, src_disk)]
        links += list(self.route(src_host, dst_host))
        links.append(self.disk_write_link(dst_host, dst_disk))
        return self.network.transfer(
            size, links, latency=extra_latency, max_rate=max_rate, label=label
        )
