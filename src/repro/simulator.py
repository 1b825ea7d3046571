"""WRENCH-style simulator facade: files in, trace out.

The paper (Section IV-A): "Our WRENCH simulator takes as input a
description of a workflow and a description of an execution platform ...
the simulator simulates the execution of the workflow and outputs a
time-stamped event trace."

:func:`repro.simulate` is exactly that entry point: give it a platform
description (a :class:`~repro.platform.PlatformSpec` or a JSON file)
and a workflow (a :class:`~repro.workflow.Workflow` or a WfCommons JSON
trace), pick a burst-buffer configuration, and run.  This module holds
the run path behind it and its CLI wrapper, ``repro-simulate``.

Storage roles come from each host's explicit
:class:`~repro.platform.HostRole` (``compute``, ``shared_bb``,
``local_bb``, ``pfs``); a platform with a role-less host is rejected.
The run is configured by one :class:`~repro.config.Config`.

Every workflow run, :func:`repro.simulate`'s and the paper scenarios'
(:mod:`repro.scenarios`) alike, goes through :func:`_execute`, which
builds the services from the host roles and runs the engine.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple, Optional, Sequence

from repro import des
from repro.compute import ComputeService
from repro.config import Config
from repro.network import DEFAULT_ALLOCATOR, allocator_names
from repro.platform import HostRole, Platform, PlatformSpec
from repro.storage import (
    BBMode,
    OnNodeBurstBuffer,
    ParallelFileSystem,
    SharedBurstBuffer,
    StorageService,
)
from repro.wms import FractionPlacement, WorkflowEngine
from repro.wms.policies import DEFAULT_POLICY, policy_names
from repro.workflow.model import Workflow

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs import Observer


class _HostRoles(NamedTuple):
    """A platform's storage and compute hosts, read off their roles."""

    compute: list[str]
    shared_bb: list[str]
    #: Compute host -> its ``local_bb`` host.
    local_bb: dict[str, str]
    pfs: str


def _host_roles(spec: PlatformSpec) -> _HostRoles:
    """The hosts of each role; raises ``ValueError`` on a bad platform."""
    if not spec.has_roles:
        roleless = [h.name for h in spec.hosts if h.role is None]
        raise ValueError(
            f"hosts without a role: {', '.join(roleless)}; declare "
            "role=compute|shared_bb|local_bb|pfs on every host"
        )
    compute = [h.name for h in spec.hosts_with_role(HostRole.COMPUTE)]
    if not compute:
        raise ValueError("platform has no compute hosts (role=compute)")
    local_bb: dict[str, str] = {}
    for h in spec.hosts_with_role(HostRole.LOCAL_BB):
        if h.attached_to is None:
            raise ValueError(
                f"local_bb host {h.name!r} declares no attached_to "
                "compute host"
            )
        local_bb[h.attached_to] = h.name
    pfs = spec.hosts_with_role(HostRole.PFS)
    if not pfs:
        raise ValueError("platform has no PFS host (role=pfs)")
    return _HostRoles(
        compute=compute,
        shared_bb=[h.name for h in spec.hosts_with_role(HostRole.SHARED_BB)],
        local_bb=local_bb,
        pfs=pfs[0].name,
    )


class Emulation:
    """The settings a run builds its services with.

    This base is the paper's simple model: every storage service at its
    defaults (no latencies, stream cap or metadata queue) and the plain
    :class:`~repro.compute.ComputeService`.
    :func:`repro.emulation.emulate` returns one that plays the measured
    machine.  :func:`_execute` calls each method as it builds the
    service, so an emulation may draw per-service values lazily.
    """

    def pfs(self) -> dict[str, Any]:
        """Keyword settings of the PFS service."""
        return {}

    def shared_bb(self, mode: BBMode) -> dict[str, Any]:
        """Keyword settings of one shared burst-buffer instance."""
        return {}

    def local_bb(self) -> dict[str, Any]:
        """Keyword settings of one on-node burst buffer."""
        return {}

    def compute(
        self, platform: Platform, hosts: list[str], config: Config
    ) -> ComputeService:
        """The compute service over ``hosts``."""
        return ComputeService(
            platform, hosts, use_amdahl_alpha=config.use_amdahl_alpha,
            queue_policy=config.queue_policy,
        )


#: The paper's simple model (:func:`_execute`'s default).
SIMPLE_MODEL = Emulation()


def _execute(
    spec: PlatformSpec,
    workflow: Workflow,
    config: Config,
    stage_in_external: bool = False,
    observer: Optional[Observer] = None,
    emulation: Emulation = SIMPLE_MODEL,
) -> WorkflowEngine:
    """Run ``workflow`` on ``spec`` to completion; returns the engine.

    The one run path.  Services come from the host roles: the PFS on
    the ``pfs`` host, one compute service over the ``compute`` hosts in
    platform order, and burst buffers by one rule: one striped
    namespace shared by every host, one private allocation per owning
    host, or the host's own ``local_bb`` node.  Private and on-node
    instances are built when a host first uses one.  ``config`` gives
    the mode, the staged fractions (the placement), the allocator and
    the queue policy.  ``stage_in_external`` is the engine's keyword of
    that name.

    ``emulation`` gives each service's settings as it is built: the
    PFS, then each burst buffer in order of first use, then compute.
    """
    roles = _host_roles(spec)
    env = des.Environment()
    if observer is not None:
        observer.attach(env)
    platform = Platform(env, spec, allocator=config.network_allocator)
    pfs = ParallelFileSystem(platform, host=roles.pfs, **emulation.pfs())

    def shared(mode: BBMode, owner: Optional[str] = None) -> SharedBurstBuffer:
        settings = emulation.shared_bb(mode)
        return SharedBurstBuffer(
            platform, roles.shared_bb, mode, owner_host=owner, **settings
        )

    striped = None
    if roles.shared_bb and config.bb_mode == BBMode.STRIPED:
        striped = shared(BBMode.STRIPED)

    bb_services: dict[str, StorageService] = {}

    def bb_for_host(host: str) -> Optional[StorageService]:
        service = bb_services.get(host)
        if service is not None:
            return service
        if host in roles.local_bb:
            service = OnNodeBurstBuffer(
                platform, roles.local_bb[host], **emulation.local_bb()
            )
        elif striped is not None:
            service = striped
        elif roles.shared_bb:
            service = shared(BBMode.PRIVATE, owner=host)
        else:
            return None
        bb_services[host] = service
        return service

    compute = emulation.compute(platform, roles.compute, config)
    if observer is not None and config.queue_policy != DEFAULT_POLICY:
        # Structured provenance for non-default disciplines (the
        # manifest always carries queue_policy; default runs keep
        # their historical event stream byte-identical).
        observer.log_event("wms", "queue_policy", policy=config.queue_policy)

    engine = WorkflowEngine(
        platform,
        workflow,
        compute,
        pfs,
        bb_for_host=bb_for_host if roles.shared_bb or roles.local_bb else None,
        placement=FractionPlacement(
            input_fraction=config.input_fraction,
            intermediate_fraction=config.intermediate_fraction,
            output_fraction=config.output_fraction,
        ),
        stage_in_external=stage_in_external,
    )
    engine.run()
    if observer is not None:
        observer.end_run(engine.trace)
    return engine


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: simulate a workflow JSON on a platform JSON."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Simulate a WfCommons workflow on a JSON-described "
        "platform with burst buffers.",
    )
    parser.add_argument("--platform", required=True, help="platform JSON file")
    parser.add_argument("--workflow", required=True, help="WfCommons JSON file")
    parser.add_argument(
        "--mode",
        choices=[m.value for m in BBMode],
        default=BBMode.STRIPED.value,
        help="shared burst buffer allocation mode",
    )
    parser.add_argument("--input-fraction", type=float, default=1.0)
    parser.add_argument("--intermediate-fraction", type=float, default=1.0)
    parser.add_argument("--output-fraction", type=float, default=0.0)
    parser.add_argument(
        "--network-allocator",
        choices=allocator_names(),
        default=DEFAULT_ALLOCATOR,
        help="bandwidth-sharing discipline for the flow network",
    )
    parser.add_argument(
        "--queue-policy",
        choices=policy_names(),
        default=DEFAULT_POLICY,
        help="queueing discipline for core allocation (fifo = strict "
        "FIFO, the paper's model; backfill/plan use walltime estimates)",
    )
    parser.add_argument("-o", "--output", help="write the trace JSON here")
    parser.add_argument(
        "--gantt", action="store_true", help="print an ASCII Gantt chart"
    )
    parser.add_argument(
        "--obs-dir",
        help="export run telemetry (manifest, Perfetto trace, metric CSVs) "
        "into this directory",
    )
    parser.add_argument(
        "--obs-metrics",
        help="comma-separated metric groups to collect "
        "(storage,network,compute,engine,des); default: all",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the critical-path makespan attribution; with "
        "--obs-dir, also write profile.json + profile.folded and "
        "annotate the Perfetto trace",
    )
    parser.add_argument(
        "--live",
        help="stream live telemetry into this directory while the run "
        "executes (tail with `repro-obs watch`)",
    )
    parser.add_argument(
        "--monitors",
        action="store_true",
        help="run the online invariant monitors (BB occupancy, link "
        "capacity, clock monotonicity, lease balance); a violation "
        "aborts the run with the offending event chain",
    )
    args = parser.parse_args(argv)

    groups = (
        tuple(g.strip() for g in args.obs_metrics.split(",") if g.strip())
        if args.obs_metrics
        else None
    )
    config = Config(
        bb_mode=BBMode(args.mode),
        input_fraction=args.input_fraction,
        intermediate_fraction=args.intermediate_fraction,
        output_fraction=args.output_fraction,
        network_allocator=args.network_allocator,
        queue_policy=args.queue_policy,
        metrics=groups,
        monitors=args.monitors,
        live_dir=args.live,
        obs_dir=args.obs_dir,
        profile=args.profile,
    )

    from repro.api import simulate

    result = simulate(Path(args.platform), Path(args.workflow), config=config)
    trace = result.trace
    print(f"workflow: {trace.workflow_name}")
    print(f"tasks:    {len(trace.records)}")
    print(f"makespan: {trace.makespan:.3f}s")
    if args.gantt:
        from repro.traces.gantt import render_gantt

        print()
        print(render_gantt(trace))
    if args.output:
        trace.to_json(args.output)
        print(f"trace written to {args.output}")
    if args.profile:
        profile = result.profile()
        print()
        print("critical-path attribution (sums to the makespan):")
        for resource, seconds in sorted(
            profile.attribution.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            share = profile.shares.get(resource, 0.0)
            print(f"  {resource:<28} {seconds:>12.3f}s {100 * share:>6.1f}%")
        print(f"  dominant: {profile.dominant_resource} "
              f"({profile.dominant_class}-bound)")
    if args.obs_dir:
        directory = result.export_telemetry(args.obs_dir)
        print(f"telemetry written to {directory}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
