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
``local_bb``, ``pfs``).  Legacy descriptions that rely on the historical
name conventions (``cn*``, ``bb*``, ``*-bb``, ``pfs``) still work:
roles are inferred with a ``DeprecationWarning`` via
:func:`~repro.platform.infer_host_roles`.
"""

from __future__ import annotations

import argparse
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro import des
from repro.compute import ComputeService
from repro.network import DEFAULT_ALLOCATOR, allocator_names
from repro.obs import Observer
from repro.platform import (
    HostRole,
    Platform,
    PlatformSpec,
    infer_host_roles,
    platform_from_json,
)
from repro.storage import (
    BBMode,
    OnNodeBurstBuffer,
    ParallelFileSystem,
    SharedBurstBuffer,
    StorageService,
)
from repro.traces.events import ExecutionTrace
from repro.wms import EngineConfig, FractionPlacement, WorkflowEngine
from repro.wms.policies import DEFAULT_POLICY, policy_names, resolve_policy
from repro.workflow.model import Workflow
from repro.workflow.wfformat import workflow_from_wfformat


@dataclass
class SimulatorConfig:
    """Knobs of one simulation run."""

    bb_mode: BBMode = BBMode.STRIPED
    input_fraction: float = 1.0
    intermediate_fraction: float = 1.0
    output_fraction: float = 0.0
    #: Honor per-task Amdahl alphas instead of Eq. (4)'s perfect speedup.
    use_amdahl_alpha: bool = False
    #: Named bandwidth-sharing discipline for the flow network (see
    #: :func:`repro.network.allocator_names`); ``"incremental"`` and
    #: ``"vectorized"`` are aliases of ``"max-min"``.
    network_allocator: str = DEFAULT_ALLOCATOR
    #: Named queueing discipline for the core allocators (and, in the
    #: contended scenarios, the BB provisioner) — see
    #: :func:`repro.wms.policy_names`.  ``"fifo"`` is the historical,
    #: byte-identical default; the backfill/plan policies consume the
    #: walltime estimates the engine threads through.
    queue_policy: str = DEFAULT_POLICY

    def __post_init__(self) -> None:
        # The string forms ("private"/"striped") still coerce, but the
        # blessed string-accepting surface is now repro.Config — warn so
        # mapping-built SimulatorConfigs migrate there.
        if not isinstance(self.bb_mode, BBMode):
            warnings.warn(
                "passing bb_mode as a string to SimulatorConfig is "
                "deprecated; pass a BBMode enum, or build the run "
                "through repro.Config (which accepts the string forms)",
                DeprecationWarning,
                stacklevel=3,
            )
        self.bb_mode = BBMode(self.bb_mode)
        # Fail fast on unknown policy names (same contract as BBMode).
        if self.queue_policy not in policy_names():
            resolve_policy(self.queue_policy)  # raises with the choices


class Simulator:
    """One-shot workflow simulation on a described platform."""

    def __init__(
        self,
        platform: "PlatformSpec | str | Path",
        workflow: "Workflow | str | Path",
        config: "SimulatorConfig | None" = None,
        observer: Optional[Observer] = None,
    ) -> None:
        if config is not None and not isinstance(config, SimulatorConfig):
            # Accept a repro.Config (or anything Config.from_any does)
            # and keep only the model knobs — observability switches are
            # the caller's concern at this layer.
            from repro.config import Config

            config = Config.from_any(config).to_simulator_config()
        if not isinstance(platform, PlatformSpec):
            platform = platform_from_json(platform)
        if not isinstance(workflow, Workflow):
            workflow = workflow_from_wfformat(workflow)
        # Legacy descriptions carry no roles; infer them from the name
        # conventions (DeprecationWarning) so discovery below is uniform.
        platform = infer_host_roles(platform)
        self.spec = platform
        self.workflow = workflow
        self.config = config or SimulatorConfig()
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
        return engine.run()

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

    from repro.config import Config

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
        config.to_simulator_config(),
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
