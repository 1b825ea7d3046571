"""Interconnect topology generators: fat-tree and dragonfly.

The presets model each compute node's path to storage as a dedicated
uplink — sufficient for the paper's single-node experiments.  For
multi-node studies the fabric's structure matters: Cori's Aries is a
dragonfly, Summit's EDR InfiniBand a fat-tree.  These generators build
:class:`~repro.platform.PlatformSpec` fragments with explicit switch
levels/groups so cross-node flows contend realistically.

Both produce *routes between compute hosts* (plus optional storage
attachment points); they compose with the storage/compute services like
any other platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.platform.spec import (
    DiskSpec,
    HostRole,
    HostSpec,
    LinkSpec,
    PlatformSpec,
    RouteSpec,
)
from repro.platform.units import GB, GFLOPS, MB, US


@dataclass(frozen=True)
class NodeConfig:
    """Compute node parameters shared by the topology builders."""

    cores: int = 32
    core_speed: float = 40 * GFLOPS
    ram: float = float("inf")


def build_fat_tree(
    pods: int = 2,
    nodes_per_pod: int = 4,
    link_bandwidth: float = 12.5 * GB,
    link_latency: float = 1 * US,
    core_oversubscription: float = 1.0,
    node: Optional[NodeConfig] = None,
    pfs_bandwidth: float = 100 * MB,
) -> PlatformSpec:
    """A two-level fat-tree: edge switch per pod, one core layer.

    Each node has an access link to its pod's edge switch; pods connect
    through a core trunk whose bandwidth is the sum of pod uplinks
    divided by ``core_oversubscription`` (1.0 = full bisection).  Routes:

    * same pod:  access ↑, access ↓ (through the edge switch);
    * cross pod: access ↑, pod uplink, core trunk, pod uplink, access ↓.

    A ``pfs`` host with one disk hangs off the core layer, so storage
    traffic shares the trunk with cross-pod traffic — the fat-tree
    analogue of an I/O-node SAN.
    """
    if pods <= 0 or nodes_per_pod <= 0:
        raise ValueError("pods and nodes_per_pod must be positive")
    if core_oversubscription < 1.0:
        raise ValueError("core_oversubscription must be >= 1")
    node = node or NodeConfig()

    hosts: list[HostSpec] = []
    links: list[LinkSpec] = []
    routes: list[RouteSpec] = []

    access: dict[str, str] = {}  # host -> access link name
    uplink: dict[int, str] = {}  # pod -> uplink name
    for p in range(pods):
        up = LinkSpec(
            name=f"pod{p}-up",
            bandwidth=nodes_per_pod * link_bandwidth,
            latency=link_latency,
        )
        links.append(up)
        uplink[p] = up.name
        for n in range(nodes_per_pod):
            name = f"cn{p * nodes_per_pod + n}"
            hosts.append(
                HostSpec(
                    name=name,
                    cores=node.cores,
                    core_speed=node.core_speed,
                    ram=node.ram,
                    role=HostRole.COMPUTE,
                )
            )
            link = LinkSpec(
                name=f"{name}-access",
                bandwidth=link_bandwidth,
                latency=link_latency,
            )
            links.append(link)
            access[name] = link.name

    trunk = LinkSpec(
        name="core-trunk",
        bandwidth=pods * nodes_per_pod * link_bandwidth / core_oversubscription,
        latency=link_latency,
    )
    links.append(trunk)

    hosts.append(
        HostSpec(
            name="pfs",
            cores=1,
            core_speed=node.core_speed,
            role=HostRole.PFS,
            disks=(
                DiskSpec(
                    "lustre",
                    read_bandwidth=pfs_bandwidth,
                    write_bandwidth=pfs_bandwidth,
                ),
            ),
        )
    )

    names = [h.name for h in hosts if h.name != "pfs"]
    for i, a in enumerate(names):
        pod_a = i // nodes_per_pod
        for j in range(i + 1, len(names)):
            b = names[j]
            pod_b = j // nodes_per_pod
            if pod_a == pod_b:
                routes.append(RouteSpec(a, b, [access[a], access[b]]))
            else:
                routes.append(
                    RouteSpec(
                        a,
                        b,
                        [
                            access[a],
                            uplink[pod_a],
                            trunk.name,
                            uplink[pod_b],
                            access[b],
                        ],
                    )
                )
        routes.append(
            RouteSpec(a, "pfs", [access[a], uplink[pod_a], trunk.name])
        )

    return PlatformSpec(
        name=f"fat-tree[{pods}x{nodes_per_pod}]",
        hosts=tuple(hosts),
        links=tuple(links),
        routes=tuple(routes),
    )


def build_dragonfly(
    groups: int = 3,
    nodes_per_group: int = 4,
    local_bandwidth: float = 12.5 * GB,
    global_bandwidth: float = 4.7 * GB,
    link_latency: float = 1.3 * US,
    node: Optional[NodeConfig] = None,
    pfs_bandwidth: float = 100 * MB,
) -> PlatformSpec:
    """A simplified dragonfly: all-to-all groups, shared intra-group rail.

    Each group owns one local rail every member traverses; each ordered
    group pair shares one global link (minimal routing).  Cross-group
    routes are local rail → global link → local rail, so global links
    are the scarce resource — the defining dragonfly property.  The PFS
    attaches to group 0's rail (Aries systems reach storage through I/O
    groups).
    """
    if groups <= 1 or nodes_per_group <= 0:
        raise ValueError("need >= 2 groups and positive nodes_per_group")
    node = node or NodeConfig()

    hosts: list[HostSpec] = []
    links: list[LinkSpec] = []
    routes: list[RouteSpec] = []

    rail: dict[int, str] = {}
    for g in range(groups):
        local = LinkSpec(
            name=f"g{g}-rail",
            bandwidth=nodes_per_group * local_bandwidth,
            latency=link_latency,
        )
        links.append(local)
        rail[g] = local.name
        for n in range(nodes_per_group):
            hosts.append(
                HostSpec(
                    name=f"cn{g * nodes_per_group + n}",
                    cores=node.cores,
                    core_speed=node.core_speed,
                    ram=node.ram,
                    role=HostRole.COMPUTE,
                )
            )

    global_link: dict[tuple[int, int], str] = {}
    for a in range(groups):
        for b in range(a + 1, groups):
            link = LinkSpec(
                name=f"global-{a}-{b}",
                bandwidth=global_bandwidth,
                latency=link_latency,
            )
            links.append(link)
            global_link[(a, b)] = link.name

    hosts.append(
        HostSpec(
            name="pfs",
            cores=1,
            core_speed=node.core_speed,
            role=HostRole.PFS,
            disks=(
                DiskSpec(
                    "lustre",
                    read_bandwidth=pfs_bandwidth,
                    write_bandwidth=pfs_bandwidth,
                ),
            ),
        )
    )

    def group_of(index: int) -> int:
        return index // nodes_per_group

    names = [h.name for h in hosts if h.name != "pfs"]
    for i, a in enumerate(names):
        ga = group_of(i)
        for j in range(i + 1, len(names)):
            b = names[j]
            gb = group_of(j)
            if ga == gb:
                routes.append(RouteSpec(a, b, [rail[ga]]))
            else:
                key = (min(ga, gb), max(ga, gb))
                routes.append(
                    RouteSpec(a, b, [rail[ga], global_link[key], rail[gb]])
                )
        # PFS through group 0.
        if ga == 0:
            routes.append(RouteSpec(a, "pfs", [rail[0]]))
        else:
            key = (0, ga)
            routes.append(
                RouteSpec(a, "pfs", [rail[ga], global_link[key], rail[0]])
            )

    return PlatformSpec(
        name=f"dragonfly[{groups}x{nodes_per_group}]",
        hosts=tuple(hosts),
        links=tuple(links),
        routes=tuple(routes),
    )
