#!/usr/bin/env python3
"""Define a custom platform in JSON and compare placement heuristics.

Demonstrates the two extension points a downstream user reaches for
first: describing their own machine (here written to a JSON file and
loaded back, as one would check it into a repo) and plugging in custom
data-placement policies — the design space the paper's conclusion
proposes exploring.

Run:  python examples/custom_platform.py
"""

import tempfile
from pathlib import Path

from repro import des
from repro.compute import ComputeService
from repro.platform import Platform, platform_from_json, platform_to_json
from repro.platform.spec import (
    DiskSpec,
    HostRole,
    HostSpec,
    LinkSpec,
    PlatformSpec,
    RouteSpec,
)
from repro.platform.units import GB, GFLOPS, MB, TB
from repro.storage import BBMode, ParallelFileSystem, SharedBurstBuffer
from repro.wms import (
    AllPFS,
    FractionPlacement,
    LocalityPlacement,
    SizeThresholdPlacement,
    WorkflowEngine,
)
from repro.workflow.swarp import make_swarp


def custom_platform_spec() -> PlatformSpec:
    """A hypothetical mid-size cluster: 4 nodes, 2 BB nodes, slow PFS.

    Every host declares its storage role; the simulator reads roles,
    never host names.
    """
    hosts = [
        HostSpec(name=f"cn{i}", cores=16, core_speed=40 * GFLOPS,
                 role=HostRole.COMPUTE)
        for i in range(4)
    ]
    hosts += [
        HostSpec(
            name=f"bb{i}",
            cores=1,
            core_speed=40 * GFLOPS,
            role=HostRole.SHARED_BB,
            disks=(
                DiskSpec("ssd", read_bandwidth=2 * GB, write_bandwidth=1.5 * GB,
                         capacity=3 * TB),
            ),
        )
        for i in range(2)
    ]
    hosts.append(
        HostSpec(
            name="pfs",
            cores=1,
            core_speed=40 * GFLOPS,
            role=HostRole.PFS,
            disks=(
                DiskSpec("lustre", read_bandwidth=150 * MB,
                         write_bandwidth=150 * MB, capacity=1e15),
            ),
        )
    )
    links = [LinkSpec("san", bandwidth=5 * GB, latency=2e-6)]
    routes = []
    for cn in ("cn0", "cn1", "cn2", "cn3"):
        for target in ("bb0", "bb1", "pfs"):
            routes.append(RouteSpec(cn, target, ["san"]))
    return PlatformSpec(
        name="my-cluster", hosts=tuple(hosts), links=tuple(links),
        routes=tuple(routes),
    )


def run_with_placement(spec, placement, label: str) -> float:
    env = des.Environment()
    platform = Platform(env, spec)
    hosts = [h.name for h in spec.hosts_with_role(HostRole.COMPUTE)]
    bb_hosts = [h.name for h in spec.hosts_with_role(HostRole.SHARED_BB)]
    engine = WorkflowEngine(
        platform,
        make_swarp(n_pipelines=4, cores_per_task=4, include_stage_in=False),
        ComputeService(platform, hosts),
        ParallelFileSystem(platform),
        bb_for_host=lambda host: SharedBurstBuffer(
            platform, bb_hosts, BBMode.STRIPED
        ),
        placement=placement,
        host_assignment=lambda task: hosts[hash(task.name) % len(hosts)],
    )
    makespan = engine.run().makespan
    print(f"  {label:35s} makespan = {makespan:8.2f}s")
    return makespan


def main() -> None:
    spec = custom_platform_spec()

    # Round-trip through JSON, as a real deployment would.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "my-cluster.json"
        platform_to_json(spec, path)
        print(f"platform serialized to JSON ({path.stat().st_size} bytes) "
              "and loaded back\n")
        spec = platform_from_json(path)

    print("Comparing placement policies on 'my-cluster' "
          "(SWarp, 4 pipelines x 4 cores):")
    policies = [
        ("everything on the PFS", AllPFS()),
        ("all files in the BB", FractionPlacement(1.0, 1.0, 1.0)),
        ("intermediates only (locality)", LocalityPlacement()),
        ("large files to BB (>= 20 MB)", SizeThresholdPlacement(20e6)),
        ("half the inputs staged", FractionPlacement(input_fraction=0.5,
                                                     intermediate_fraction=1.0)),
    ]
    results = {
        label: run_with_placement(spec, policy, label)
        for label, policy in policies
    }
    best = min(results, key=results.get)
    print(f"\nbest policy here: {best!r}")


if __name__ == "__main__":
    main()
