"""WRENCH-style simulator facade: files in, trace out.

The paper (Section IV-A): "Our WRENCH simulator takes as input a
description of a workflow and a description of an execution platform ...
the simulator simulates the execution of the workflow and outputs a
time-stamped event trace."

:class:`Simulator` is exactly that entry point: give it a platform
description (a :class:`~repro.platform.PlatformSpec` or a JSON file)
and a workflow (a :class:`~repro.workflow.Workflow` or a WfCommons JSON
trace), pick a burst-buffer configuration, and run.  The CLI wrapper is
``repro-simulate``.  Most callers want the one-call
:func:`repro.simulate` facade instead of instantiating this class.

Storage roles come from each host's explicit
:class:`~repro.platform.HostRole` (``compute``, ``shared_bb``,
``local_bb``, ``pfs``); a platform with a role-less host is rejected.
The run is configured by one :class:`~repro.config.Config`.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from repro import des
from repro.compute import ComputeService
from repro.config import Config
from repro.network import DEFAULT_ALLOCATOR, allocator_names
from repro.platform import HostRole, Platform, PlatformSpec, platform_from_json
from repro.storage import (
    BBMode,
    OnNodeBurstBuffer,
    ParallelFileSystem,
    SharedBurstBuffer,
    StorageService,
)
from repro.traces.events import ExecutionTrace
from repro.wms import EngineConfig, FractionPlacement, WorkflowEngine
from repro.wms.policies import DEFAULT_POLICY, policy_names
from repro.workflow.model import Workflow
from repro.workflow.wfformat import workflow_from_wfformat

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs import Observer


class Simulator:
    """One-shot workflow simulation on a described platform."""

    def __init__(
        self,
        platform: "PlatformSpec | str | Path",
        workflow: "Workflow | str | Path",
        config: "Config | Mapping[str, Any] | str | Path | None" = None,
        observer: Optional[Observer] = None,
    ) -> None:
        if not isinstance(platform, PlatformSpec):
            platform = platform_from_json(platform)
        if not isinstance(workflow, Workflow):
            workflow = workflow_from_wfformat(workflow)
        if not platform.has_roles:
            roleless = [h.name for h in platform.hosts if h.role is None]
            raise ValueError(
                f"hosts without a role: {', '.join(roleless)}; declare "
                "role=compute|shared_bb|local_bb|pfs on every host"
            )
        self.spec = platform
        self.workflow = workflow
        #: The run's configuration; the model knobs are read off it and
        #: the manifest records it whole.
        self.config = Config.from_any(config)
        #: Optional telemetry sink; attached to the run's environment
        #: before any service is built, so every sample is captured.
        self.observer = observer

        self._compute_hosts = [
            h.name for h in platform.hosts_with_role(HostRole.COMPUTE)
        ]
        if not self._compute_hosts:
            raise ValueError("platform has no compute hosts (role=compute)")
        self._shared_bb_hosts = [
            h.name for h in platform.hosts_with_role(HostRole.SHARED_BB)
        ]
        self._local_bb_hosts: dict[str, str] = {}
        for h in platform.hosts_with_role(HostRole.LOCAL_BB):
            if h.attached_to is None:
                raise ValueError(
                    f"local_bb host {h.name!r} declares no attached_to "
                    "compute host"
                )
            self._local_bb_hosts[h.attached_to] = h.name
        if not platform.hosts_with_role(HostRole.PFS):
            raise ValueError("platform has no PFS host (role=pfs)")

    def run(self) -> ExecutionTrace:
        """Simulate the workflow execution; returns the event trace."""
        env = des.Environment()
        if self.observer is not None:
            self.observer.attach(env)
        platform = Platform(
            env, self.spec, allocator=self.config.network_allocator
        )
        pfs = ParallelFileSystem(platform)
        compute = ComputeService(
            platform,
            self._compute_hosts,
            use_amdahl_alpha=self.config.use_amdahl_alpha,
            queue_policy=self.config.queue_policy,
        )
        if (
            self.observer is not None
            and self.config.queue_policy != DEFAULT_POLICY
        ):
            # Structured provenance for non-default disciplines (the
            # manifest always carries queue_policy; default runs keep
            # their historical event stream byte-identical).
            self.observer.log_event(
                "wms", "queue_policy", policy=self.config.queue_policy
            )

        bb_services: dict[str, StorageService] = {}

        def bb_for_host(host: str) -> Optional[StorageService]:
            if host in bb_services:
                return bb_services[host]
            if host in self._local_bb_hosts:
                service: StorageService = OnNodeBurstBuffer(
                    platform, self._local_bb_hosts[host]
                )
            elif self._shared_bb_hosts:
                service = SharedBurstBuffer(
                    platform,
                    self._shared_bb_hosts,
                    self.config.bb_mode,
                    owner_host=host
                    if self.config.bb_mode == BBMode.PRIVATE
                    else None,
                )
            else:
                return None
            bb_services[host] = service
            return service

        has_bb = bool(self._shared_bb_hosts or self._local_bb_hosts)
        engine = WorkflowEngine(
            platform,
            self.workflow,
            compute,
            pfs,
            bb_for_host=bb_for_host if has_bb else None,
            placement=FractionPlacement(
                input_fraction=self.config.input_fraction,
                intermediate_fraction=self.config.intermediate_fraction,
                output_fraction=self.config.output_fraction,
            ),
            config=EngineConfig(use_amdahl_alpha=self.config.use_amdahl_alpha),
        )
        trace = engine.run()
        if self.observer is not None:
            self.observer.end_run()
        return trace

    def export_telemetry(
        self,
        directory: "str | Path",
        trace: Optional[ExecutionTrace] = None,
        profile=None,
    ) -> Path:
        """Write this run's telemetry (manifest, Chrome trace, CSVs).

        Requires the simulator to have been constructed with an
        :class:`~repro.obs.Observer` and :meth:`run` to have completed;
        ``trace`` enriches the manifest with result figures.  ``profile``
        (a :class:`~repro.profile.Profile`) additionally writes
        ``profile.json``/``profile.folded`` and annotates the Perfetto
        trace with the critical-path lane.
        """
        from repro.obs import build_manifest, export_run

        if self.observer is None:
            raise ValueError("simulator was constructed without an observer")
        manifest = build_manifest(
            config=self.config,
            platform=self.spec,
            workflow=self.workflow,
            trace=trace,
            observer=self.observer,
        )
        return export_run(
            self.observer, directory, manifest=manifest, profile=profile
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: simulate a workflow JSON on a platform JSON."""
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
        help="bandwidth-sharing discipline for the flow network "
        "(incremental and vectorized are aliases of max-min)",
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
    observer = config.make_observer()

    simulator = Simulator(
        Path(args.platform),
        Path(args.workflow),
        config,
        observer=observer,
    )
    trace = simulator.run()
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
    profile = None
    if args.profile:
        from repro.profile import build_profile

        profile = build_profile(trace, observer=observer)
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
        directory = simulator.export_telemetry(
            args.obs_dir, trace=trace, profile=profile
        )
        print(f"telemetry written to {directory}")
    elif observer is not None and observer.bus is not None:
        observer.bus.close()  # export_run closes it on the --obs-dir path
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
